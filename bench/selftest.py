"""Show that the benchmark's checks catch wrong outputs.

    python3 bench/selftest.py

Each case feeds a tampered result (a flipped census row, a wrong
violation code, a wrong class sum, a wrong exit code) to the same check
the benchmark applies, and requires fail_frac > 0; the untampered
results must give fail_frac == 0.  It also requires the configs inputs
to be byte-identical for equal seeds.  Exits 1 if any case goes
undetected.
"""

from __future__ import annotations

import dataclasses
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def fail_frac(op, out) -> float:
    tally = run.Tally()
    tally.record(op, out, None)
    return tally.failed / tally.attempted


def census_cases():
    import donlat as D

    op = workloads.build_census(0, Path(), probe=True)[0]
    rows = list(op.run())
    n, s, verdict, count = rows[2]
    flipped = rows[:2] + [(n, s, verdict, count + 1)] + rows[3:]
    other = next(v for v in D.CycleVerdict if v is not verdict)
    relabelled = rows[:2] + [(n, s, other, count)] + rows[3:]
    yield "census(4) as computed", op, tuple(rows), False
    yield "census(4) with one count flipped", op, tuple(flipped), True
    yield "census(4) with one verdict relabelled", op, tuple(relabelled), True


def configs_cases():
    import donlat as D

    ops = workloads.build_configs(0, Path(), probe=True)
    divisor_ops = [op for op in ops if op.kind == "validate_maximal_divisor"]
    planted = next(op for op in divisor_ops if not isinstance(op.run(), tuple))
    report = planted.run()
    wrong = D.Violation("not-a-real-code", "tampered")
    yield "planted violation as reported", planted, report, False
    yield "planted violation with the wrong code", planted, dataclasses.replace(report, violations=(wrong,)), True
    yield "planted violation reported valid", planted, dataclasses.replace(report, violations=()), True

    valid = next(op for op in divisor_ops if isinstance(op.run(), tuple))
    div, report = valid.run()
    bad_total = D.ClassVector(tuple(a - 1 for a in report.total.coeffs))
    yield "valid divisor as reported", valid, (div, report), False
    yield "valid divisor with a wrong total class", valid, (div, dataclasses.replace(report, total=bad_total)), True


def cli_cases(workdir: Path):
    op = next(op for op in workloads.build_cli_inprocess(workdir) if op.kind == "cli.main.validate")
    code, stdout = op.run()
    yield "donlat validate as printed", op, (code, stdout), False
    yield "donlat validate with the wrong exit code", op, (1, stdout), True
    yield "donlat validate with one character changed", op, (code, stdout.replace("valid", "vaild", 1)), True


def main() -> int:
    undetected = 0
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        cases = [*census_cases(), *configs_cases(), *cli_cases(Path(tmp))]
    for label, op, out, tampered in cases:
        frac = fail_frac(op, out)
        ok = (frac > 0) == tampered
        undetected += not ok
        print(f"{'ok  ' if ok else 'MISS'} fail_frac={frac:.0f}  {label}")

    same = repr(gen.configs_stream(7, rounds=1)) == repr(gen.configs_stream(7, rounds=1))
    differ = repr(gen.configs_stream(7, rounds=1)) != repr(gen.configs_stream(8, rounds=1))
    undetected += not (same and differ)
    print(f"{'ok  ' if same and differ else 'MISS'} configs inputs repeat for a seed and change with it")
    return 1 if undetected else 0


if __name__ == "__main__":
    sys.exit(main())
