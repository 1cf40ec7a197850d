"""Command line behaviour: JSON in, JSON or text out, exit-code contract."""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import donlat
from donlat import (
    CycleConfig,
    MaximalDivisorConfig,
    NotNodalFormError,
    TreeConfig,
    divisor_graph,
    enumerate_cycles,
    fixture,
    to_dot,
)
from donlat import oracle
from donlat.cli import main


def run(monkeypatch, capsys, argv, stdin=None):
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_classify_type_a(monkeypatch, capsys):
    code, out, err = run(monkeypatch, capsys, ["classify"], stdin="[1, -1, -1]")
    assert code == 0 and err == ""
    assert json.loads(out) == {"kind": "A", "i": 0, "I": [1, 2]}


def test_classify_non_curve_exits_one(monkeypatch, capsys):
    code, out, _ = run(monkeypatch, capsys, ["classify"], stdin="[1, 1, 0]")
    assert code == 1
    assert json.loads(out) == {"kind": "none", "defect": -2}


def test_classify_reads_files(tmp_path, monkeypatch, capsys):
    path = tmp_path / "v.json"
    path.write_text("[-2, -1, 0]")
    code, out, _ = run(monkeypatch, capsys, ["classify", str(path)])
    assert code == 0
    assert json.loads(out) == {"kind": "B", "i": 0, "I": [1]}


def test_malformed_input_exits_two(monkeypatch, capsys):
    code, out, err = run(monkeypatch, capsys, ["classify"], stdin="not json")
    assert code == 2 and out == ""
    assert err.startswith("error: invalid JSON")
    code, _, err = run(monkeypatch, capsys, ["classify", "/no/such/file.json"])
    assert code == 2
    assert err.startswith("error: cannot read")
    cycle = fixture("ex333").cycle.to_json()
    for payload, message in (
        ({"n": 3, "curves": []}, "cycle needs a non-empty 'curves' array"),
        (
            {"n": 3, "curves": [[1, -1, -1]], "alphas": [True]},
            "'alphas' must be an integer array or null",
        ),
        ({"cycle": cycle, "trees": [5]}, "expected a tree object, got 5"),
        ({"cycle": cycle, "trees": {}}, "'trees' must be an array"),
    ):
        code, out, err = run(monkeypatch, capsys, ["validate"], stdin=json.dumps(payload))
        assert (code, out, err) == (2, "", f"error: {message}\n"), payload


def test_fixture_round_trips(monkeypatch, capsys):
    code, out, _ = run(monkeypatch, capsys, ["fixture", "kato522332"])
    assert code == 0
    assert MaximalDivisorConfig.from_json(json.loads(out)) == fixture("kato522332")


def test_unknown_fixture(monkeypatch, capsys):
    code, _, err = run(monkeypatch, capsys, ["fixture", "nope"])
    assert code == 2
    assert err == (
        "error: no fixture named 'nope'; known: "
        "ex333, ih522342, kato522332, oddih-N\n"
    )


def test_validate_text_output(monkeypatch, capsys):
    payload = json.dumps(fixture("kato522332").to_json())
    code, out, _ = run(monkeypatch, capsys, ["validate"], stdin=payload)
    assert code == 0
    assert out.splitlines() == [
        "valid",
        "support trace: {1,2,3,5} -> {0,1,2,3} -> {0,1,2,4,5} "
        "-> {0,1,3,4,5} -> {0,2,3,4,5}",
        "total class: [-1, 0, -1, -1, -1, -1]",
    ]


def test_validate_accepts_bare_cycles(monkeypatch, capsys):
    payload = json.dumps(fixture("ex333").cycle.to_json())
    code, out, _ = run(monkeypatch, capsys, ["validate"], stdin=payload)
    assert code == 0
    assert out.splitlines()[0] == "valid"


def test_validate_rejects_and_names_the_violation(monkeypatch, capsys):
    payload = json.dumps({"n": 2, "curves": [[1, -1], [1, -1]]})
    code, out, _ = run(monkeypatch, capsys, ["validate"], stdin=payload)
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "invalid"
    assert "violation pair-intersection: the two curves meet -2 times, need 2" in lines


def test_validate_rejects_mismatched_alphas(monkeypatch, capsys):
    payload = json.dumps(
        {"n": 3, "curves": [[1, -1, 0], [0, 1, -1], [-1, 0, 1]], "alphas": [7, 7, 7]}
    )
    code, out, _ = run(monkeypatch, capsys, ["validate"], stdin=payload)
    assert code == 1
    assert out.splitlines()[0] == "invalid"
    assert out.splitlines()[1].startswith("violation alphas-mismatch: alphas [7, 7, 7]")
    code, out, _ = run(monkeypatch, capsys, ["validate", "--format", "json"], stdin=payload)
    assert code == 1
    assert [v["code"] for v in json.loads(out)["violations"]] == ["alphas-mismatch"]


def test_validate_json_format(monkeypatch, capsys):
    payload = json.dumps(fixture("kato522332").to_json())
    code, out, _ = run(
        monkeypatch, capsys, ["validate", "--format", "json"], stdin=payload
    )
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert data["violations"] == []
    assert data["trace"][0] == [1, 2, 3, 5]
    assert data["trace"][-1] == [0, 2, 3, 4, 5]
    assert data["total"] == [-1, 0, -1, -1, -1, -1]


def test_census_tsv(monkeypatch, capsys):
    code, out, _ = run(monkeypatch, capsys, ["census", "--n", "2"])
    assert code == 0
    assert out.splitlines() == [
        "n\ts\tverdict\tcount",
        "2\t1\tPartitionCase\t1",
        "2\t1\tInadmissible\t1",
        "2\t2\tPartitionCase\t1",
        "2\t2\tOddIH\t2",
        "2\t2\tInadmissible\t1",
    ]


def test_census_json(monkeypatch, capsys):
    code, out, _ = run(monkeypatch, capsys, ["census", "--n", "2", "--format", "json"])
    assert code == 0
    rows = json.loads(out)
    assert rows[0] == {"n": 2, "s": 1, "verdict": "PartitionCase", "count": 1}
    assert sum(r["count"] for r in rows) == 6


def test_census_cap(monkeypatch, capsys):
    code, _, err = run(monkeypatch, capsys, ["census", "--n", "6"])
    assert code == 2 and err.startswith("error:")
    code, out, _ = run(monkeypatch, capsys, ["census", "--n", "2", "--cap", "2"])
    assert code == 0 and out


def test_non_integer_cap_environment_exits_two(monkeypatch, capsys):
    monkeypatch.setenv("DONLAT_CAP", "six")
    code, out, err = run(monkeypatch, capsys, ["census", "--n", "3"])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "DONLAT_CAP" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["census", "--n", "0"],
        ["census", "--n", "-1"],
        ["enumerate", "--n", "3", "--s", "0"],
    ],
)
def test_out_of_range_arguments_exit_two(monkeypatch, capsys, argv):
    code, out, err = run(monkeypatch, capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("error:")


def test_other_library_errors_exit_one(monkeypatch, capsys):
    # a DonlatError outside the usage errors means the input was read
    # but the mathematics refused it
    def refuse(n, cap=None):
        raise NotNodalFormError("cycle class [1, 1] has a coefficient outside {0,-1}")

    # the CLI reads census off the oracle module when the command runs
    monkeypatch.setattr(oracle, "census", refuse)
    code, out, err = run(monkeypatch, capsys, ["census", "--n", "2"])
    assert code == 1 and out == ""
    assert err == "error: cycle class [1, 1] has a coefficient outside {0,-1}\n"
    assert "Traceback" not in err


def test_enumerate_tsv(monkeypatch, capsys):
    code, out, _ = run(monkeypatch, capsys, ["enumerate", "--n", "3", "--s", "3"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n\ts\tnotation\tverdict"
    assert lines[1] == "3\t3\t(621)\tOddIH"
    assert lines[-1] == "3\t3\t(222)\tPartitionCase"
    assert len(lines) == 8


def test_enumerate_json_round_trips(monkeypatch, capsys):
    code, out, _ = run(
        monkeypatch,
        capsys,
        ["enumerate", "--n", "2", "--s", "2", "--format", "json"],
    )
    assert code == 0
    configs = [CycleConfig.from_json(c) for c in json.loads(out)]
    assert len(configs) == 4


def test_enumerate_no_symmetry_prints_every_ordered_tuple(monkeypatch, capsys):
    argv = ["enumerate", "--n", "4", "--s", "3", "--no-symmetry"]
    raw = enumerate_cycles(4, 3, symmetry=False)
    code, out, err = run(monkeypatch, capsys, argv + ["--format", "json"])
    assert code == 0 and err == ""
    assert len(raw) == 1728
    assert out == json.dumps([cfg.to_json() for cfg in raw]) + "\n"
    code, out, err = run(monkeypatch, capsys, argv)
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "n\ts\tnotation\tverdict"
    assert len(lines) == 1 + 1728


def test_smooth_triangle(monkeypatch, capsys):
    payload = json.dumps(fixture("ex333").to_json())
    code, out, _ = run(monkeypatch, capsys, ["smooth", "--i", "0"], stdin=payload)
    assert code == 0
    assert json.loads(out) == {
        "exceptional": [0, 1, 0],
        "cycle": {"n": 3, "curves": [[0, 0, -2], [-1, -1, 1]], "alphas": None},
    }


def test_smooth_nodal_curve_goes_elliptic(monkeypatch, capsys):
    payload = json.dumps({"n": 2, "curves": [[-1, -1]]})
    code, out, _ = run(monkeypatch, capsys, ["smooth", "--i", "0"], stdin=payload)
    assert code == 0
    assert json.loads(out) == {"elliptic": [-1, -1]}


def test_smooth_guards(monkeypatch, capsys):
    with_tree = json.dumps(fixture("kato522332").to_json())
    code, _, err = run(monkeypatch, capsys, ["smooth", "--i", "0"], stdin=with_tree)
    assert code == 2 and "bare cycle" in err

    payload = json.dumps(fixture("ex333").to_json())
    code, _, err = run(monkeypatch, capsys, ["smooth", "--i", "7"], stdin=payload)
    assert code == 2 and err.startswith("error: position 7")

    junk = json.dumps({"n": 2, "curves": [[1, 1], [1, -1]]})
    code, out, _ = run(monkeypatch, capsys, ["smooth", "--i", "0"], stdin=junk)
    assert code == 1
    assert out.splitlines()[0] == "invalid"
    assert any("not-a-curve" in line for line in out.splitlines())


def test_dot_matches_the_library(monkeypatch, capsys):
    payload = json.dumps(fixture("kato522332").to_json())
    code, out, _ = run(monkeypatch, capsys, ["dot"], stdin=payload)
    assert code == 0
    assert out == to_dot(divisor_graph(fixture("kato522332")))
    assert out.startswith("graph divisor {")


def test_dot_refuses_an_invalid_divisor(monkeypatch, capsys):
    kato = fixture("kato522332")
    moved = MaximalDivisorConfig(kato.cycle, (TreeConfig(kato.trees[0].chain, 1),))
    payload = json.dumps(moved.to_json())
    code, out, err = run(monkeypatch, capsys, ["dot"], stdin=payload)
    assert code == 1 and err == ""
    assert out.splitlines()[0] == "invalid"
    assert out.splitlines()[1].startswith("violation tree-attach-mismatch: ")
    assert "graph" not in out
    assert (code, out) == run(monkeypatch, capsys, ["validate"], stdin=payload)[:2]


def test_oddih_rank_is_bounded(monkeypatch, capsys):
    code, out, err = run(monkeypatch, capsys, ["fixture", "oddih-5000"])
    assert code == 2 and out == ""
    assert err == "error: oddih fixtures need a rank in [2, 1024], got 5000\n"


def test_oddih_rank_takes_only_ascii_digits(monkeypatch, capsys):
    for name in ("oddih-5_0", "oddih- 7", "oddih-+7", "oddih-\u0663"):
        code, out, err = run(monkeypatch, capsys, ["fixture", name])
        assert code == 2 and out == ""
        assert err == f"error: bad rank in fixture name {name!r}\n"


def test_unreadable_json_exits_two(tmp_path, monkeypatch, capsys):
    """Inputs that broke the JSON reader with a traceback."""
    overlong = "[1" + "0" * 1000 + "]"
    deep = "[" * 100_000
    for raw in (overlong, deep, "9" * 5000):
        code, out, err = run(monkeypatch, capsys, ["classify"], stdin=raw)
        assert code == 2 and out == ""
        assert err.startswith("error: ")
    path = tmp_path / "latin1.json"
    path.write_bytes(b"[\xff]")
    code, _, err = run(monkeypatch, capsys, ["validate", str(path)])
    assert code == 2 and err.startswith("error: cannot read")
    # the longest accepted literals still print: their pairings double the digits
    widest = "1" + "0" * 999
    payload = f'{{"n": 2, "curves": [[{widest}, 0], [{widest}, 0]]}}'
    code, out, _ = run(monkeypatch, capsys, ["validate"], stdin=payload)
    assert code == 1 and "pair-intersection" in out


def test_a_closed_pipe_ends_with_141_and_no_traceback():
    # the fixture's JSON is far larger than a pipe buffer, so the writer
    # is still writing when the reader closes its end
    env = {**os.environ, "PYTHONPATH": str(Path(donlat.__file__).parents[1])}
    argv = [sys.executable, "-m", "donlat.cli", "fixture", "oddih-300"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.read(10) == b'{"cycle": '
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
    assert err == b""


KEYS = ("n", "curves", "alphas", "cycle", "trees", "chain", "attach")
scalars = (
    st.none()
    | st.booleans()
    | st.integers(-3, 4)
    | st.integers()
    | st.floats()
    | st.text(max_size=4)
    | st.lists(st.integers(-3, 3), max_size=5)
)
documents = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=3), inner, max_size=4),
    max_leaves=24,
)
vectors = st.lists(st.integers(-3, 2), min_size=1, max_size=4)
cycles = st.fixed_dictionaries(
    {"n": st.integers(0, 4), "curves": st.lists(vectors, min_size=1, max_size=5)},
    optional={"alphas": st.none() | st.lists(st.integers(-1, 4), max_size=5)},
)
divisors = st.fixed_dictionaries(
    {
        "cycle": cycles,
        "trees": st.lists(
            st.fixed_dictionaries(
                {"chain": st.lists(vectors, min_size=1, max_size=3), "attach": st.integers(-1, 5)}
            ),
            max_size=3,
        ),
    }
)
KNOWN = [fixture(name).to_json() for name in ("ex333", "ih522342", "kato522332", "oddih-4")]
KNOWN += [doc["cycle"] for doc in KNOWN] + [{"n": 3, "curves": [[-1, 0, -1]]}]


@st.composite
def near_valid(draw):
    """A fixture or its bare cycle with up to two coefficients changed."""
    doc = copy.deepcopy(draw(st.sampled_from(KNOWN)))
    rows = doc.get("cycle", doc)["curves"] + [r for t in doc.get("trees", ()) for r in t["chain"]]
    for _ in range(draw(st.integers(0, 2))):
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, len(row) - 1))] = draw(st.integers(-3, 3))
    return doc


COMMANDS = (["classify"], ["validate"], ["validate", "--format", "json"], ["smooth", "--i", "0"], ["dot"])


@settings(max_examples=200, deadline=None)
@given(document=documents | cycles | divisors | vectors | near_valid(), argv=st.sampled_from(COMMANDS))
@example(document=fixture("kato522332").to_json(), argv=["dot"])
@example(document={"n": 1, "curves": [[-1]]}, argv=["smooth", "--i", "0"])
def test_arbitrary_json_gets_a_documented_exit_code(document, argv):
    """classify, validate, smooth and dot on any JSON document: exit
    0, 1 or 2, and never an exception."""
    stdin, sys.stdin = sys.stdin, io.StringIO(json.dumps(document))
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    finally:
        sys.stdin = stdin
    assert code in (0, 1, 2)
