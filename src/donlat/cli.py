"""Command line front end.

Subcommands wrap the library one-to-one and speak JSON on stdin/stdout
so they compose in pipes, e.g.

    donlat fixture kato522332 | donlat validate
    donlat fixture ex333 | donlat smooth --i 0
    donlat fixture ih522342 | donlat dot

Exit codes: 0 for a valid result, 1 for a well-formed input that fails
a check (non-curve class, rejected configuration), 2 for malformed
input or arguments, 141 when the reader closes stdout early (as in
`donlat fixture oddih-300 | head -c 10`; 128 + SIGPIPE, what a shell
reports for a program killed by that signal).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from . import oracle
from .curveclass import TypeA, TypeB, classify, kind_to_json
from .cycle import CycleConfig, Violation, betti_check, cycle_notation
from .deform import EllipticOutcome, smooth_node
from .divisor import MaximalDivisorConfig, validate_maximal_divisor
from .errors import (
    CapExceededError,
    DonlatError,
    IndexRangeError,
    InvalidCycleError,
    PositionOutOfRangeError,
    SchemaError,
    UnknownFixtureError,
)
from .fixtures import fixture
from .graph import divisor_graph, to_dot
from .lattice import ClassVector

__all__ = ["main", "entry"]

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_BROKEN_PIPE = 141


# longest integer literal accepted; products and sums of such numbers
# stay well inside Python's 4300-digit limit for printing an int
_MAX_DIGITS = 1000

# with every ASCII digit read as 0, a text holds an integer literal too
# long exactly if it holds this many zeros in a row (JSON numbers take
# ASCII digits only; a long run in a string or a fraction also counts)
_DIGITS_TO_ZERO = str.maketrans("123456789", "0" * 9)
_LONG_RUN = "0" * (_MAX_DIGITS + 1)


def _parse_int(literal: str) -> int:
    if len(literal.lstrip("-")) > _MAX_DIGITS:
        raise SchemaError(f"integer literal longer than {_MAX_DIGITS} digits")
    return int(literal)


def _read_json(path: str) -> object:
    try:
        if path == "-":
            raw = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                raw = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from None
    try:
        # with no long run of digits, no literal needs the length check,
        # and the C parser makes no Python call per literal
        if _LONG_RUN not in raw.translate(_DIGITS_TO_ZERO):
            return json.loads(raw)
        return json.loads(raw, parse_int=_parse_int)
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError is a ValueError; nesting deeper than the
        # interpreter's recursion limit raises RecursionError
        raise SchemaError(f"invalid JSON: {exc}") from None


def _load_divisor(data: object) -> MaximalDivisorConfig:
    """Accept either a divisor object or a bare cycle object."""
    if isinstance(data, dict) and "cycle" in data:
        return MaximalDivisorConfig.from_json(data)
    return MaximalDivisorConfig(CycleConfig.from_json(data), ())


def _print_violations(violations: Sequence[Violation]) -> int:
    print("invalid")
    for v in violations:
        print(f"violation {v.code}: {v.message}")
    return EXIT_INVALID


def _set_text(indices: frozenset[int]) -> str:
    return "{" + ",".join(str(i) for i in sorted(indices)) + "}"


def _cmd_classify(args: argparse.Namespace) -> int:
    data = _read_json(args.file)
    kind = classify(ClassVector.from_json(data))
    print(json.dumps(kind_to_json(kind)))
    return EXIT_OK if isinstance(kind, (TypeA, TypeB)) else EXIT_INVALID


def _cmd_fixture(args: argparse.Namespace) -> int:
    print(json.dumps(fixture(args.name).to_json()))
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    divisor = _load_divisor(_read_json(args.file))
    report = validate_maximal_divisor(divisor)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "ok": report.ok,
                    "violations": [
                        {"code": v.code, "message": v.message} for v in report.violations
                    ],
                    "trace": [sorted(step) for step in report.trace],
                    "total": report.total.to_json() if report.total else None,
                }
            )
        )
        return EXIT_OK if report.ok else EXIT_INVALID
    if report.ok:
        print("valid")
        print("support trace: " + " -> ".join(_set_text(step) for step in report.trace))
        assert report.total is not None
        print("total class: " + json.dumps(report.total.to_json()))
        return EXIT_OK
    return _print_violations(report.violations)


def _cmd_census(args: argparse.Namespace) -> int:
    rows = oracle.census(args.n, cap=args.cap)
    if args.format == "json":
        print(
            json.dumps(
                [
                    {"n": n, "s": s, "verdict": verdict.value, "count": count}
                    for n, s, verdict, count in rows
                ]
            )
        )
        return EXIT_OK
    print("n\ts\tverdict\tcount")
    for n, s, verdict, count in rows:
        print(f"{n}\t{s}\t{verdict.value}\t{count}")
    return EXIT_OK


def _cmd_enumerate(args: argparse.Namespace) -> int:
    configs = oracle.enumerate_cycles(args.n, args.s, symmetry=not args.no_symmetry, cap=args.cap)
    if args.format == "json":
        print(json.dumps([cfg.to_json() for cfg in configs]))
        return EXIT_OK
    print("n\ts\tnotation\tverdict")
    for cfg in configs:
        verdict, _ = betti_check(cfg)
        print(f"{cfg.n}\t{cfg.s}\t{cycle_notation(cfg)}\t{verdict.value}")
    return EXIT_OK


def _cmd_smooth(args: argparse.Namespace) -> int:
    divisor = _load_divisor(_read_json(args.file))
    if divisor.trees:
        raise SchemaError("smoothing applies to a bare cycle; drop the trees")
    outcome, ejected = smooth_node(divisor.cycle, args.i)
    if isinstance(outcome, EllipticOutcome):
        print(json.dumps({"elliptic": outcome.curve_class.to_json()}))
        return EXIT_OK
    assert ejected is not None
    print(json.dumps({"exceptional": ejected.to_json(), "cycle": outcome.to_json()}))
    return EXIT_OK


def _cmd_dot(args: argparse.Namespace) -> int:
    divisor = _load_divisor(_read_json(args.file))
    report = validate_maximal_divisor(divisor)
    if not report.ok:
        return _print_violations(report.violations)
    sys.stdout.write(to_dot(divisor_graph(divisor)))
    return EXIT_OK


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="donlat",
        description="Exact-integer toolkit for cycles of rational curves in "
        "negative definite Donaldson lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a class vector read as JSON")
    p.add_argument("file", nargs="?", default="-", help="JSON array file, - for stdin")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("fixture", help="print a bundled configuration as JSON")
    p.add_argument("name", help="ex333, ih522342, kato522332 or oddih-N")
    p.set_defaults(func=_cmd_fixture)

    p = sub.add_parser("validate", help="validate a cycle or divisor configuration")
    p.add_argument("file", nargs="?", default="-", help="JSON config file, - for stdin")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("census", help="count cycles per (s, verdict) at rank n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cap", type=int, default=None, help="enumeration cap override")
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("enumerate", help="list cycles of s curves at rank n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--no-symmetry", action="store_true", help="keep all ordered tuples")
    p.add_argument("--cap", type=int, default=None, help="enumeration cap override")
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("smooth", help="smooth one node of a cycle")
    p.add_argument("file", nargs="?", default="-", help="JSON config file, - for stdin")
    p.add_argument("--i", type=int, required=True, help="node position to smooth")
    p.set_defaults(func=_cmd_smooth)

    p = sub.add_parser("dot", help="emit the dual graph as DOT")
    p.add_argument("file", nargs="?", default="-", help="JSON config file, - for stdin")
    p.set_defaults(func=_cmd_dot)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (
        SchemaError,
        UnknownFixtureError,
        CapExceededError,
        PositionOutOfRangeError,
        IndexRangeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvalidCycleError as exc:
        return _print_violations(exc.report.violations if exc.report is not None else ())
    except DonlatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def entry() -> None:
    # the SIGPIPE recipe of the `signal` module's documentation: flush
    # inside the try, so a closed pipe raises here and not at exit
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit; give it nowhere
        # to fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = EXIT_BROKEN_PIPE
    raise SystemExit(status)


if __name__ == "__main__":
    entry()
