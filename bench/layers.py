"""Per-layer metrics of a traced run.

Two sources feed them:

* spans and counts the tracer recorded, first from the workload's own
  traced passes ("workload" phase) and, for every function those passes
  never call, from the other workloads run once at probe scale
  ("probe" phase);
* tight loops over fixed inputs for the functions too hot to wrap
  (lattice arithmetic, classify, compose_chain, canonicalize_cycle) and
  fresh interpreters for the import time.

Names are <module>.<function>.<unit>.  `.ms` of an oracle function is
its span time per traced pass, `.calls` and other counts are per pass,
`.us` is the median time per call.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from itertools import product

from tracing import LAYERS

CLI_SUBCOMMANDS = ("classify", "fixture", "validate", "dot", "smooth", "census", "enumerate")
VIOLATION_CODES = (
    "rank-mismatch",
    "single-not-nodal",
    "not-a-curve",
    "two-type-b",
    "pair-intersection",
    "adjacent-intersection",
    "nonadjacent-intersection",
    "attach-out-of-range",
    "shared-attachment",
    "tree-curve-not-type-a",
    "tree-not-chain",
    "tree-attach-mismatch",
    "tree-interior-meets-cycle",
    "trees-overlap",
)
# (metric, span name, statistic)
SPAN_METRICS = (
    ("oracle.census.ms", "oracle.census", "ms"),
    ("oracle.enumerate_cycles.ms", "oracle.enumerate_cycles", "ms"),
    ("oracle.enumerate_cycles.calls", "oracle.enumerate_cycles", "calls"),
    ("oracle.candidate_curve_classes.ms", "oracle.candidate_curve_classes", "ms"),
    ("oracle.enumerate_cycles_raw.ms", "oracle.enumerate_cycles_raw", "ms"),
    ("oracle.verify_chain_dichotomy.ms", "oracle.verify_chain_dichotomy", "ms"),
    ("oracle.verify_internonvide.ms", "oracle.verify_internonvide", "ms"),
    ("oracle.verify_rational_pattern.ms", "oracle.verify_rational_pattern", "ms"),
    ("cycle.validate_cycle.us_p50", "cycle.validate_cycle", "us"),
    ("cycle.validate_cycle.us_tail", "cycle.validate_cycle", "us_tail"),
    ("cycle.validate_cycle.calls", "cycle.validate_cycle", "calls"),
    ("cycle.betti_check.us", "cycle.betti_check", "us"),
    ("cycle.from_selfintersections.us", "cycle.from_selfintersections", "us"),
    ("divisor.validate_maximal_divisor.us", "divisor.validate_maximal_divisor", "us"),
    ("divisor.validate_maximal_divisor.calls", "divisor.validate_maximal_divisor", "calls"),
    ("deform.smooth_node.us", "deform.smooth_node", "us"),
    ("deform.smooth_node.calls", "deform.smooth_node", "calls"),
    ("graph.divisor_graph.us", "graph.divisor_graph", "us"),
    ("graph.to_dot.us", "graph.to_dot", "us"),
    ("fixtures.fixture.us", "fixtures.fixture", "us"),
) + tuple(
    (f"cli.process_ms.{sub}", f"op.cli.{sub}", "ms_p50") for sub in CLI_SUBCOMMANDS
) + tuple(
    (f"cli.main.ms.{sub}", f"op.cli.main.{sub}", "ms_p50") for sub in CLI_SUBCOMMANDS
)
# (metric, span whose presence selects the phase, counter)
COUNT_METRICS = (
    ("oracle.enumerate_cycles.classes", "oracle.enumerate_cycles", "oracle.enumerate_cycles.classes"),
    ("oracle.enumerate_cycles_raw.tuples", "oracle.enumerate_cycles_raw", "oracle.enumerate_cycles_raw.tuples"),
    ("oracle.verify_internonvide.positives", "oracle.verify_internonvide", "oracle.verify_internonvide.positives"),
) + tuple(
    (f"divisor.violations.{code}", "divisor.validate_maximal_divisor", f"divisor.violations.{code}")
    for code in VIOLATION_CODES
)


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, count) at the highest percentile, p90 or
    above, that still has at least ten samples above it.  With fewer
    than 100 samples there is none, and the maximum is reported."""
    xs = sorted(samples)
    n = len(xs)
    if n < 100:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def _median_time(fn, repeats: int = 3) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def micro(D, env: dict[str, str]) -> dict[str, float]:
    """Tight-loop timings of the hot functions, with the tracer removed."""
    pool6 = D.candidate_curve_classes(6)
    pool5 = D.candidate_curve_classes(5)
    intersect, add, classify = D.intersect, D.add, D.classify
    out: dict[str, float] = {}

    def pairing_table():
        for a in pool6:
            for b in pool6:
                intersect(a, b)

    calls = len(pool6) ** 2
    out["lattice.intersect.ns_per_call"] = _median_time(pairing_table) / calls * 1e9
    out["lattice.intersect.calls"] = calls

    def sums():
        for a in pool5:
            for b in pool5:
                add(a, b)

    out["lattice.add.ns_per_call"] = _median_time(sums) / len(pool5) ** 2 * 1e9

    box = [D.ClassVector(v) for v in product(range(-2, 3), repeat=5)]
    vectors = list(pool6) + box
    out["curveclass.classify.ns_per_call"] = (
        _median_time(lambda: [classify(v) for v in vectors]) / len(vectors) * 1e9
    )

    is_b = {c: isinstance(classify(c), D.TypeB) for c in pool5}
    adjacent = [
        (a, b) for a in pool5 for b in pool5
        if intersect(a, b) == 1 and not (is_b[a] and is_b[b])
    ]
    out["curveclass.compose_chain.us_per_call"] = (
        _median_time(lambda: [D.compose_chain(a, b) for a, b in adjacent]) / len(adjacent) * 1e6
    )

    cycles = [c for s in range(2, 6) for c in D.enumerate_cycles(5, s)]
    out["oracle.canonicalize_cycle.us_per_call"] = (
        _median_time(lambda: [D.canonicalize_cycle(c) for c in cycles]) / len(cycles) * 1e6
    )

    code = (
        "import time; t = time.perf_counter(); import donlat.cli; "
        "print(time.perf_counter() - t)"
    )
    imports = []
    for _ in range(5):
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True, timeout=60
        )
        imports.append(float(proc.stdout))
    out["cli.import_ms"] = statistics.median(imports) * 1e3
    return out


def from_spans(tracer, traced_passes: int) -> dict[str, float]:
    """Span- and count-based metrics, each from the first phase that
    exercises it: the workload's traced passes, then the probes of the
    other workloads, then the in-process CLI probe (kept apart because
    its subcommands call into every other layer)."""
    phases = {
        phase: (tracer.durations(phase), passes, tracer.self_ns(phase))
        for phase, passes in (("workload", traced_passes), ("probe", 1), ("probe-cli", 1))
    }

    def source(span: str):
        for phase, (durations, passes, _) in phases.items():
            if span in durations:
                return phase, durations[span], passes
        raise RuntimeError(f"no {span} span in the traced run")

    out: dict[str, float] = {}
    for metric, span, stat in SPAN_METRICS:
        _, ns, passes = source(span)
        if stat == "ms":
            out[metric] = sum(ns) / passes / 1e6
        elif stat == "calls":
            out[metric] = len(ns) / passes
        elif stat == "us":
            out[metric] = statistics.median(ns) / 1e3
        elif stat == "us_tail":
            out[metric] = tail(ns)[0] / 1e3
        else:
            out[metric] = statistics.median(ns) / 1e6
    for metric, span, counter in COUNT_METRICS:
        phase, _, passes = source(span)
        out[metric] = tracer.counts.get(phase, {}).get(counter, 0) / passes

    for layer in LAYERS:
        own = next((p for p in phases.values() if p[2].get(layer)), None)
        if own is None:
            raise RuntimeError(f"no {layer} span in the traced run")
        out[f"{layer}.self_ms"] = own[2][layer] / own[1] / 1e6

    phase, _, _ = source("oracle.census")
    total, covered = tracer.covered_ns(
        phase, "oracle.census", ("oracle.enumerate_cycles", "cycle.betti_check")
    )
    out["oracle.census.covered_frac"] = covered / total
    return out
