"""The package's public name list, the README's quick tour, the oracle
loading on first use, and the input rules written once."""

from __future__ import annotations

import ast
import doctest
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import donlat

README = Path(__file__).resolve().parents[1] / "README.md"


def test_public_names_are_sorted_unique_and_resolve():
    names = donlat.__all__
    assert names == sorted(set(names))
    for name in names:
        assert hasattr(donlat, name), name


def test_readme_quick_tour_runs():
    failed, attempted = doctest.testfile(str(README), module_relative=False)
    assert attempted > 0
    assert failed == 0


# A fresh interpreter that notes whether oracle.py's module body runs
# (the audit hook sees the `exec` of its code object), then runs the
# rest of its command line as `python -m donlat.cli` would.  Its last
# stderr line is that note.
_PROBE = """
import os, runpy, sys
ran = []
sys.addaudithook(
    lambda event, args: event == "exec"
    and getattr(args[0], "co_filename", "").endswith(os.sep + "oracle.py")
    and ran.append(True)
)
try:
    runpy.run_module("donlat.cli", run_name="__main__", alter_sys=True)
finally:
    print(f"oracle ran: {bool(ran)}", file=sys.stderr)
"""


def _fresh(*args, stdin=""):
    env = {**os.environ, "PYTHONPATH": str(Path(donlat.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, *args], input=stdin, capture_output=True, text=True, env=env, timeout=60
    )


_KATO = json.dumps(donlat.fixture("kato522332").to_json())
_EX333 = json.dumps(donlat.fixture("ex333").to_json())


@pytest.mark.parametrize(
    "argv, stdin, oracle_runs",
    [
        (["classify"], "[1, -1, -1]", False),
        (["fixture", "ex333"], "", False),
        (["validate"], _KATO, False),
        (["smooth", "--i", "0"], _EX333, False),
        (["dot"], _KATO, False),
        (["census", "--n", "3"], "", True),
        (["enumerate", "--n", "3", "--s", "3"], "", True),
    ],
    ids=["classify", "fixture", "validate", "smooth", "dot", "census", "enumerate"],
)
def test_cli_runs_the_oracle_only_for_its_commands(argv, stdin, oracle_runs):
    proc = _fresh("-c", _PROBE, *argv, stdin=stdin)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == f"oracle ran: {oracle_runs}"


def test_lazy_oracle_is_registered_and_resolves():
    # what a tracer that patches donlat.oracle relies on: the module is
    # in sys.modules once donlat.cli is imported, and the package names
    # read through it
    script = """
import sys
import donlat.cli
import donlat
lazy = sys.modules["donlat.oracle"]
assert lazy is donlat.oracle
assert "census" not in object.__getattribute__(lazy, "__dict__")
assert donlat.census is donlat.oracle.census
assert donlat.enumerate_cycles is lazy.enumerate_cycles
names = {}
exec("from donlat import *", names)
assert sorted(set(names) - {"__builtins__"}) == donlat.__all__
assert all(names[name] is getattr(donlat, name) for name in donlat.__all__)
listed = dir(donlat)
assert set(donlat.__all__) <= set(listed) and "oracle" in listed and "__all__" in listed
assert "__getattr__" not in listed and "__dir__" not in listed
"""
    proc = _fresh("-c", script)
    assert proc.returncode == 0, proc.stderr


def _sites(match) -> list[tuple[str, str]]:
    """(module, innermost enclosing function) of each node under
    src/donlat that match(node) accepts, in file order."""
    sites = []

    def visit(node, module, where):
        for child in ast.iter_child_nodes(node):
            if match(child):
                sites.append((module, where))
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, module, child.name if is_def else where)

    for path in sorted(Path(donlat.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, "<module>")
    return sites


def _raises(error: str, text: str = ""):
    """Whether a node raises `error(...)` with `text` in the literal
    parts of its message."""

    def match(node):
        if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)):
            return False
        literal = "".join(
            part.value
            for part in ast.walk(node.exc)
            if isinstance(part, ast.Constant) and isinstance(part.value, str)
        )
        return getattr(node.exc.func, "id", None) == error and text in literal

    return match


def _range_test(node):
    """Whether a node is a comparison `0 <= x < y`."""
    return (
        isinstance(node, ast.Compare)
        and isinstance(node.left, ast.Constant)
        and node.left.value == 0
        and [type(op) for op in node.ops] == [ast.LtE, ast.Lt]
    )


def test_rank_label_and_position_rules_are_written_once():
    # each rule has one home in lattice.py, so that every entry point
    # refuses the same inputs (a float or a bool among them) with the
    # same typed error
    assert _sites(_raises("RankMismatchError")) == [("lattice", "_check_rank")]
    assert _sites(_raises("IndexRangeError", "outside [0, ")) == [("lattice", "_check_indices")]
    assert _sites(_range_test) == [("lattice", "_in_range")]
