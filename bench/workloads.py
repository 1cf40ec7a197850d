"""The four workloads as lists of checked operations.

An Op's `run` is the timed call into donlat; `check` runs untimed on its
result and returns an error message, or None when the result matches
the reference.  Calls go through module attributes (`D.census`, ...)
so that the tracer can wrap them.  donlat is imported inside the
build functions, never at module level, so that setup_time.py can time the
import.

Each build function takes `probe`: the traced run of every workload also runs
the other workloads at probe scale (small inputs), so that every layer
metric is measured on every traced run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())
WORKLOADS = ("census", "sweeps", "configs", "cli")


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def census_json(rows) -> str:
    """The JSON text `donlat census --format json` prints."""
    return json.dumps(
        [{"n": n, "s": s, "verdict": v.value, "count": c} for n, s, v, c in rows]
    )


def enumerate_json(configs) -> str:
    """The JSON text `donlat enumerate --format json` prints."""
    return json.dumps([cfg.to_json() for cfg in configs])


def check_census(n: int, rows) -> str | None:
    if sha256(census_json(rows)) != REFERENCE["census_json_sha256"][str(n)]:
        return f"census({n}) digest differs from the pinned one"
    per_s: dict[int, int] = {}
    for _, s, _, count in rows:
        per_s[s] = per_s.get(s, 0) + count
    for key, want in REFERENCE["cycle_counts"].items():
        kn, ks = map(int, key.split(","))
        if kn == n and per_s.get(ks) != want:
            return f"census({n}) has {per_s.get(ks)} cycles at s={ks}, expected {want}"
    return None


def check_enumerate(n: int, s: int, configs) -> str | None:
    key = f"{n},{s}"
    if sha256(enumerate_json(configs)) != REFERENCE["enumerate_json_sha256"][key]:
        return f"enumerate({n},{s}) digest differs from the pinned one"
    want = REFERENCE["cycle_counts"].get(key)
    if want is not None and len(configs) != want:
        return f"enumerate({n},{s}) has {len(configs)} classes, expected {want}"
    return None


def _shuffled(ops: list[Op], seed: int) -> list[Op]:
    random.Random(seed).shuffle(ops)
    return ops


# --- census -----------------------------------------------------------------

def build_census(seed: int, workdir: Path, probe: bool = False) -> list[Op]:
    import donlat as D

    def op(n: int) -> Op:
        return Op("census", lambda: D.census(n, cap=n), lambda rows: check_census(n, rows))

    # a fixed order: the peak RSS of a pass depends on which census runs first
    return [op(n) for n in ((4,) if probe else (5, 6))]


def census_references() -> list[Op]:
    """Pinned outputs no timed census operation prints; checked once per run."""
    import donlat as D

    def enum_op(n: int, s: int) -> Op:
        return Op(
            "enumerate_cycles",
            lambda: D.enumerate_cycles(n, s, cap=n),
            lambda got: check_enumerate(n, s, got),
        )

    census4 = Op("census", lambda: D.census(4), lambda rows: check_census(4, rows))
    return [census4, enum_op(5, 5), enum_op(6, 6)]


# --- sweeps -----------------------------------------------------------------

def _report_check(label: str, **want) -> Callable[[object], str | None]:
    def check(report) -> str | None:
        if not report.ok or report.witnesses:
            return f"{label} reports failure with witnesses {report.witnesses[:3]}"
        for field, value in want.items():
            got = len(report.positives) if field == "positives" else getattr(report, field)
            if got != value:
                return f"{label} {field} = {got}, expected {value}"
        return None

    return check


def build_sweeps(seed: int, workdir: Path, probe: bool = False) -> list[Op]:
    import donlat as D

    pins = REFERENCE["sweeps"]
    if probe:
        raw_n, raw_s, chain_n, inter, box = 4, 3, 4, (4, 3), (3, 2)
    else:
        raw_n, raw_s, chain_n, inter, box = 5, 4, 6, (5, 3), (5, 3)
    raw_want = pins[f"enumerate_raw_{raw_n}_{raw_s}_tuples"]

    def check_raw(configs) -> str | None:
        if len(configs) != raw_want:
            return f"enumerate({raw_n},{raw_s}, raw) gave {len(configs)} tuples, expected {raw_want}"
        return None

    ops = [
        Op("enumerate_cycles_raw", lambda: D.enumerate_cycles(raw_n, raw_s, symmetry=False), check_raw),
        # two type B classes pair as -(4[i=j] + 2[i in J] + 2[j in I] + |I&J|) <= 0
        Op(
            "verify_chain_dichotomy",
            lambda: D.verify_chain_dichotomy(chain_n),
            _report_check(f"verify_chain_dichotomy({chain_n})", max_type_b_pairing=0),
        ),
        Op(
            "verify_internonvide",
            lambda: D.verify_internonvide(*inter),
            _report_check(
                f"verify_internonvide{inter}",
                positives=pins["internonvide_{}_{}_positives".format(*inter)],
            ),
        ),
        Op(
            "verify_rational_pattern",
            lambda: D.verify_rational_pattern(*box),
            _report_check(f"verify_rational_pattern{box}"),
        ),
    ]
    return ops


# --- configs ----------------------------------------------------------------

def _rows(cycle) -> tuple:
    return tuple(c.coeffs for c in cycle.curves)


def _configs_op(D, item: gen.Item) -> Op:
    curves = tuple(D.ClassVector(r) for r in item.cycle)
    cycle = D.CycleConfig(item.n, curves, None)
    trees = tuple(
        D.TreeConfig(tuple(D.ClassVector(r) for r in chain), attach)
        for chain, attach in item.trees
    )
    divisor = D.MaximalDivisorConfig(cycle, trees)
    source = item.source

    if source[0] == "fsi":
        ks = source[1]
        make_div = lambda: D.MaximalDivisorConfig(D.from_selfintersections(ks), ())
    elif source[0] == "fixture":
        make_div = lambda: D.fixture(source[1])
    else:
        make_div = lambda: divisor

    if item.code is not None:
        code = item.code
        name = "validate_cycle" if item.kind == "cycle" else "validate_maximal_divisor"
        target = cycle if item.kind == "cycle" else divisor

        def check_invalid(report) -> str | None:
            if report.ok or code not in report.codes():
                return f"{name} planted {code}, got {report.codes()}"
            return None

        return Op(name, lambda: getattr(D, name)(target), check_invalid)

    all_rows = item.cycle + tuple(r for chain, _ in item.trees for r in chain)

    def same_input(div) -> str | None:
        got = tuple(c.coeffs for c in div.all_curves())
        if got != all_rows:
            return f"{source} built {got[:3]}..., expected {all_rows[:3]}..."
        return None

    if item.kind == "cycle":
        def run_cycle():
            cfg = make_div().cycle
            return cfg, D.validate_cycle(cfg), D.betti_check(cfg)

        def check_cycle(out) -> str | None:
            cfg, report, (verdict, value) = out
            if _rows(cfg) != item.cycle:
                return f"{source} built the wrong curves"
            if not report.ok:
                return f"valid cycle rejected with {report.codes()}"
            want = gen.betti(item.cycle)
            if (verdict.value, value) != want:
                return f"betti_check gave {(verdict.value, value)}, expected {want}"
            return None

        return Op("validate_cycle", run_cycle, check_cycle)

    if item.kind == "divisor":
        def run_divisor():
            div = make_div()
            return div, D.validate_maximal_divisor(div)

        def check_divisor(out) -> str | None:
            div, report = out
            if (err := same_input(div)) is not None:
                return err
            if not report.ok:
                return f"valid divisor rejected with {report.codes()}"
            if report.total.coeffs != gen.tsum(all_rows):
                return "total class differs from the sum of the curves"
            cycle_sum = gen.tsum(item.cycle)
            support = frozenset(k for k, a in enumerate(cycle_sum) if a == -1)
            if report.trace[0] != support or len(report.trace) != len(all_rows) - len(item.cycle) + 1:
                return "support trace does not start at the cycle support"
            return None

        return Op("validate_maximal_divisor", run_divisor, check_divisor)

    if item.kind == "smooth":
        positions = item.positions

        def run_smooth():
            cfg = make_div().cycle
            ejected = []
            for pos in positions:
                cfg, out = D.smooth_node(cfg, pos)
                if out is not None:
                    ejected.append(out.coeffs)
            return cfg, ejected

        def check_smooth(out) -> str | None:
            final, ejected = out
            if not isinstance(final, D.EllipticOutcome):
                return f"walk of {len(positions)} smoothings did not end elliptic"
            if final.curve_class.coeffs != gen.tsum(item.cycle):
                return "smoothing changed the cycle class"
            if len(ejected) != len(item.cycle) - 1 or any(
                sorted(e) != [0] * (item.n - 1) + [1] for e in ejected
            ):
                return f"ejected classes {ejected} are not s-1 basis classes"
            return None

        return Op("smooth_node", run_smooth, check_smooth)

    def run_graph():
        div = make_div()
        graph = D.divisor_graph(div)
        return div, graph, D.to_dot(graph)

    def check_graph(out) -> str | None:
        div, graph, text = out
        if (err := same_input(div)) is not None:
            return err
        squares = tuple(sq for _, sq in graph.vertices)
        if squares != tuple(gen.dot(r, r) for r in all_rows):
            return "graph vertices carry the wrong self-intersections"
        want = gen.edge_count(item.cycle, item.trees)
        if text.count(" -- ") != want:
            return f"DOT has {text.count(' -- ')} edges, expected {want}"
        return None

    return Op("divisor_graph", run_graph, check_graph)


def build_configs(seed: int, workdir: Path, probe: bool = False) -> list[Op]:
    import donlat as D

    items = gen.configs_stream(seed, rounds=1 if probe else gen.ROUNDS, tail=not probe)
    return _shuffled([_configs_op(D, item) for item in items], seed)


# --- cli --------------------------------------------------------------------

def _kato_json(attach: int) -> str:
    return json.dumps(
        {
            "cycle": {"n": 6, "curves": [list(r) for r in gen.KATO[0]], "alphas": None},
            "trees": [{"chain": [list(r) for r in gen.KATO_CHAIN], "attach": attach}],
        }
    )


CLI_FILES = {
    "curve.json": "[1, -1, -1]",
    "noncurve.json": "[1, 1, 0]",
    "kato.json": _kato_json(0),
    "rejected.json": _kato_json(1),
    "ex333.json": json.dumps({"n": 3, "curves": [list(r) for r in gen.EX333], "alphas": None}),
    "malformed.json": '{"cycle": {"n": 3, "curves": [[1, -1, -1]',
}

# (label, argv, stdin file or None, exit code).  The label keys the
# pinned stdout digest; census/enumerate use the pinned library digests.
CLI_COMMANDS = (
    ("classify", ["classify"], "curve.json", 0),
    ("classify-noncurve", ["classify", "{noncurve.json}"], None, 1),
    ("fixture-ex333", ["fixture", "ex333"], None, 0),
    ("fixture-kato", ["fixture", "kato522332"], None, 0),
    ("validate-text", ["validate", "{kato.json}"], None, 0),
    ("validate-json", ["validate", "--format", "json", "{kato.json}"], None, 0),
    ("validate-rejected", ["validate", "{rejected.json}"], None, 1),
    ("validate-malformed", ["validate", "{malformed.json}"], None, 2),
    ("dot", ["dot", "{kato.json}"], None, 0),
    ("smooth", ["smooth", "--i", "0", "{ex333.json}"], None, 0),
    ("census-5", ["census", "--n", "5", "--format", "json"], None, 0),
    ("census-5", ["census", "--n", "5", "--format", "json"], None, 0),
    ("census-5", ["census", "--n", "5", "--format", "json"], None, 0),
    ("enumerate-5-5", ["enumerate", "--n", "5", "--s", "5", "--format", "json"], None, 0),
    ("enumerate-5-5", ["enumerate", "--n", "5", "--s", "5", "--format", "json"], None, 0),
)


# CLI outputs that are exactly a pinned library JSON text plus a newline
LIBRARY_PINS = {
    "census-5": REFERENCE["census_json_sha256"]["5"],
    "enumerate-5-5": REFERENCE["enumerate_json_sha256"]["5,5"],
}


def _cli_check(label: str, code: int):
    def check(out) -> str | None:
        got_code, stdout = out
        if got_code != code:
            return f"donlat {label} exited {got_code}, expected {code}"
        if label in LIBRARY_PINS:
            same = stdout.endswith("\n") and sha256(stdout[:-1]) == LIBRARY_PINS[label]
        else:
            same = sha256(stdout) == REFERENCE["cli_stdout_sha256"][label]
        if not same:
            return f"donlat {label} stdout digest differs from the pinned one"
        return None

    return check


def write_cli_files(workdir: Path) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    for name, text in CLI_FILES.items():
        (workdir / name).write_text(text)


def _argv(template: list[str], workdir: Path) -> list[str]:
    return [str(workdir / a[1:-1]) if a.startswith("{") else a for a in template]


def cli_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("DONLAT_CAP", None)
    return env


def _commands(one_per_subcommand: bool):
    seen = set()
    for command in CLI_COMMANDS:
        subcommand = command[1][0]
        if not (one_per_subcommand and subcommand in seen):
            seen.add(subcommand)
            yield command


def build_cli(seed: int, workdir: Path, probe: bool = False) -> list[Op]:
    """One fresh `python -m donlat.cli` process per operation."""
    write_cli_files(workdir)
    env = cli_env()
    ops = []
    for label, template, stdin, code in _commands(probe):
        argv = [sys.executable, "-m", "donlat.cli", *_argv(template, workdir)]
        stdin_path = workdir / stdin if stdin else os.devnull

        def run(argv=argv, stdin_path=stdin_path):
            with open(stdin_path, "rb") as fh:
                proc = subprocess.run(
                    argv, stdin=fh, capture_output=True, env=env, cwd=ROOT, timeout=120
                )
            return proc.returncode, proc.stdout.decode()

        ops.append(Op("cli." + template[0], run, _cli_check(label, code)))
    return _shuffled(ops, seed)


def build_cli_inprocess(workdir: Path) -> list[Op]:
    """donlat.cli.main called in this process, one per subcommand."""
    import donlat.cli as C

    write_cli_files(workdir)
    ops = []
    for label, template, stdin, code in _commands(True):
        argv = _argv(template, workdir)
        text = (workdir / stdin).read_text() if stdin else ""

        def run(argv=argv, text=text):
            out = io.StringIO()
            saved = sys.stdin
            sys.stdin = io.StringIO(text)
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    got = C.main(argv)
            finally:
                sys.stdin = saved
            return got, out.getvalue()

        ops.append(Op("cli.main." + template[0], run, _cli_check(label, code)))
    return ops


BUILD_FUNCTIONS = {
    "census": build_census,
    "sweeps": build_sweeps,
    "configs": build_configs,
    "cli": build_cli,
}


def build(workload: str, seed: int, workdir: Path, probe: bool = False) -> list[Op]:
    return BUILD_FUNCTIONS[workload](seed, workdir, probe)


def references(workload: str) -> list[Op]:
    return census_references() if workload == "census" else []
