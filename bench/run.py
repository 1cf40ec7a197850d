"""donlat benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload census --seed 1 --seconds 20 --trace 0

Run from the repository root.  donlat is not installed: the benchmark
imports it from src/ (as PYTHONPATH=src would) and gives child processes
the same path.  With --trace 0 the last line of stdout is a JSON object
holding the end-to-end metrics; with --trace 1 it holds the per-layer
metrics.  The line before it holds the run context.  Both, plus the
spans of a traced run, are also written under .bench_runs/.  See
bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import speed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_runs"
SETUP_REPEATS = 7


class Tally:
    """Checked operations: every result is compared to its reference."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, op, out, exc: Exception | None) -> None:
        self.attempted += 1
        if exc is None:
            try:
                error = op.check(out)
            except Exception as check_exc:  # a malformed result is a failed operation
                error = f"check raised {check_exc!r}"
        else:
            error = f"raised {exc!r}"
        if error is not None:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(f"{op.kind}: {error}")


def call(op, tracer=None):
    """(result, None) or (None, exception) of one operation."""
    try:
        return (tracer.op(op.kind, op.run) if tracer else op.run()), None
    except Exception as exc:  # counted as a failed operation
        return None, exc


def run_pass(ops, tally: Tally, sampler: speed.Sampler, tracer=None) -> tuple[list[float], list[float]]:
    """One pass over `ops`: each operation's latency scaled to the
    reference speed (see speed.py), and as measured, in seconds.  The
    checks run outside the timed calls."""
    scaled: list[float] = []
    raw: list[float] = []
    group: list[float] = []
    start = None
    for i, op in enumerate(ops):
        t0 = time.perf_counter()
        paused = sampler.paused
        out, exc = call(op, tracer)
        paused = sampler.paused - paused
        t1 = time.perf_counter()
        start = t0 if start is None else start
        group.append(t1 - t0 - paused)
        tally.record(op, out, exc)
        if t1 - start >= speed.GROUP_S or i == len(ops) - 1:
            f = sampler.factor(start, t1)
            scaled += [dt * f for dt in group]
            raw += group
            group = []
            start = None
    return scaled, raw


def measure(ops, seconds: float, tally: Tally, workload: str):
    """Closed loop, one client: passes over `ops` until `seconds` elapse
    (at least one).  Returns the passes and the peak RSS at the end of
    the first one, which does not depend on how many passes fit."""
    passes = []
    deadline = time.perf_counter() + seconds
    with speed.Sampler() as sampler:
        while not passes or time.perf_counter() < deadline:
            passes.append(run_pass(ops, tally, sampler))
            if len(passes) == 1:
                rss_mb = peak_rss_mb(workload)
    return passes, rss_mb


def per_op(latencies: list[list[float]]) -> list[float]:
    """Each operation's median latency over the passes."""
    return [statistics.median(column) for column in zip(*latencies)]


def setup_times(workload: str, seed: int, env: dict[str, str]) -> list[tuple[float, float]]:
    """(scaled, measured) seconds of fresh interpreters timing import plus
    input building; the first one is a warm-up that also compiles the
    bytecode."""
    times = []
    for i in range(SETUP_REPEATS + 1):
        workdir = OUT / f"setup-{os.getpid()}-{i}"
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_time.py"), "--workload", workload,
             "--seed", str(seed), "--workdir", str(workdir)],
            capture_output=True, text=True, env=env, cwd=ROOT, check=True, timeout=120,
        )
        if i:
            scaled, raw = map(float, proc.stdout.split())
            times.append((scaled, raw))
    return times


def peak_rss_mb(workload: str) -> float:
    # the cli workload's donlat processes are children of this one
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def line_counts() -> dict[str, int]:
    return {
        p.stem: len(p.read_text().splitlines())
        for p in sorted((SRC / "donlat").glob("*.py"))
    }


def untraced_run(args, ops, tally, env):
    setup = setup_times(args.workload, args.seed, env)
    passes, rss_mb = measure(ops, args.seconds, tally, args.workload)
    latencies = per_op([scaled for scaled, _ in passes])
    tail, pct, count = layers.tail(latencies)
    metrics = {
        "setup_s": statistics.median(s for s, _ in setup),
        "wall_s": sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail * 1e3,
        "peak_rss_mb": rss_mb,
    }
    detail = {
        "setup_runs": len(setup),
        "passes": len(passes),
        "operations": count,
        "op_tail_percentile": pct,
        "measured_wall_s": sum(per_op([raw for _, raw in passes])),
        "measured_setup_s": statistics.median(r for _, r in setup),
    }
    return metrics, detail


def traced_run(args, ops, tally, env, workdir):
    import donlat as D

    # untraced and traced passes alternate, so that drift in the
    # machine's speed does not show up as tracing overhead
    untraced = []
    traced = []
    tracer = tracing.Tracer()
    deadline = time.perf_counter() + args.seconds
    with speed.Sampler() as sampler:
        while not traced or time.perf_counter() < deadline:
            untraced.append(run_pass(ops, tally, sampler))
            tracer.install()
            try:
                traced.append(run_pass(ops, tally, sampler, tracer))
            finally:
                tracer.uninstall()
    tracer.install()
    try:
        tracer.phase = "probe"
        probe_dir = workdir / "probe"
        probes = [op for w in workloads.WORKLOADS for op in workloads.build(w, args.seed, probe_dir, probe=True)]
        for op in probes:
            tally.record(op, *call(op, tracer))
        tracer.phase = "probe-cli"
        in_process = workloads.build_cli_inprocess(probe_dir)
        for op in in_process:
            tally.record(op, *call(op, tracer))
    finally:
        tracer.uninstall()
    metrics = layers.from_spans(tracer, len(traced))
    metrics.update(layers.micro(D, env))
    untraced_wall = sum(per_op([scaled for scaled, _ in untraced]))
    traced_wall = sum(per_op([scaled for scaled, _ in traced]))
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json")
    detail = {
        "untraced_passes": len(untraced),
        "traced_passes": len(traced),
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "spans": len(tracer.spans),
        "probe_ops": len(probes) + len(in_process),
    }
    return metrics, detail


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "donlat" / "__init__.py").is_file():
        print(f"error: no donlat sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One vCPU for this process and the children it waits on, so that the
    # speed samples (speed.py) come from the CPU that does the timed work.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    env = workloads.cli_env()
    tally = Tally()
    try:
        ops = workloads.build(args.workload, args.seed, workdir)
        if args.trace:
            metrics, detail = traced_run(args, ops, tally, env, workdir)
        else:
            metrics, detail = untraced_run(args, ops, tally, env)
        for op in workloads.references(args.workload):
            tally.record(op, *call(op))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    fail_frac = tally.failed / tally.attempted
    if not args.trace:
        # reported as its complement so that the metric is never 0
        metrics["ok_frac"] = 1.0 - fail_frac
    names = [m["name"] for m in wanted]
    if set(metrics) != set(names):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: missing {sorted(set(names) - set(metrics))}, "
            f"extra {sorted(set(metrics) - set(names))}"
        )
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "fail_frac": fail_frac,
        "errors": tally.errors,
        "src_lines": line_counts(),
        **detail,
    }
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"context": context, "result": result}, indent=1)
    )
    for error in tally.errors:
        print(f"failed: {error}", file=sys.stderr)
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
