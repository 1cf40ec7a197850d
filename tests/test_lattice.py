"""Bilinear pairing, basis helpers and JSON round-trips."""

from __future__ import annotations

from enum import IntEnum

import pytest
from hypothesis import given
from hypothesis import strategies as st

from donlat import (
    ClassVector,
    CycleConfig,
    IndexRangeError,
    RankMismatchError,
    SchemaError,
    TreeConfig,
    TypeA,
    TypeB,
    add,
    basis,
    e_sum,
    intersect,
    kind_from_json,
    negate,
    pullback_double_cover,
    reconstruct,
    square,
    zero,
)
from donlat.lattice import _class_sum

Ranks = st.integers(min_value=1, max_value=6)


def vectors(n: int):
    return st.lists(st.integers(-6, 6), min_size=n, max_size=n).map(
        lambda c: ClassVector(tuple(c))
    )


Vectors = Ranks.flatmap(vectors)
VectorPairs = Ranks.flatmap(lambda n: st.tuples(vectors(n), vectors(n)))
VectorTriples = Ranks.flatmap(lambda n: st.tuples(vectors(n), vectors(n), vectors(n)))


def test_basis_pairing_is_minus_delta():
    for i in range(4):
        for j in range(4):
            assert intersect(basis(i, 4), basis(j, 4)) == (-1 if i == j else 0)


def test_e_sum_collapses_duplicates():
    assert e_sum([2, 0, 2], 4) == ClassVector((1, 0, 1, 0))
    assert e_sum([], 3) == zero(3)


def test_index_bounds():
    with pytest.raises(IndexRangeError):
        basis(3, 3)
    with pytest.raises(IndexRangeError):
        basis(-1, 3)
    with pytest.raises(IndexRangeError):
        e_sum([0, 5], 5)
    with pytest.raises(IndexRangeError):
        e_sum([], 0)
    with pytest.raises(IndexRangeError):
        zero(0)
    # a rank or label that is no plain int gets the same error, never a
    # bare TypeError, and a bool is no label 0 or 1 nor a rank 1
    for junk in (1.0, True, False, None, "1"):
        for call in (
            lambda: basis(junk, 3),
            lambda: basis(0, junk),
            lambda: e_sum((0, junk), 3),
            lambda: e_sum((), junk),
            lambda: zero(junk),
            lambda: _class_sum((), junk),
            lambda: reconstruct(TypeA(junk, frozenset()), 3),
            lambda: reconstruct(TypeA(2, frozenset({junk})), 3),
            lambda: reconstruct(TypeB(0, frozenset()), junk),
        ):
            with pytest.raises(IndexRangeError):
                call()


def test_rank_mismatch():
    with pytest.raises(RankMismatchError):
        intersect(zero(2), zero(3))
    with pytest.raises(RankMismatchError):
        add(basis(0, 2), basis(0, 4))


def test_class_sum_refuses_mixed_ranks():
    with pytest.raises(RankMismatchError):
        _class_sum([basis(0, 3), basis(1, 3), basis(0, 4)], 3)
    with pytest.raises(RankMismatchError):
        _class_sum([basis(0, 2)], 3)
    with pytest.raises(IndexRangeError):
        _class_sum([], 0)


@given(Ranks.flatmap(lambda n: st.tuples(st.just(n), st.lists(vectors(n), max_size=5))))
def test_class_sum_matches_repeated_addition(case):
    n, classes = case
    assert _class_sum(classes, n) == sum(classes, zero(n))


def test_coefficients_must_be_plain_ints():
    for bad in ((1, True), (False,), (1.0, 0), (0, "1"), (None,)):
        with pytest.raises(TypeError):
            ClassVector(bad)
    with pytest.raises(ValueError):
        ClassVector(())


@pytest.mark.parametrize(
    "parse, error",
    [
        pytest.param(lambda row: ClassVector(tuple(row)), TypeError, id="constructor"),
        pytest.param(ClassVector.from_json, SchemaError, id="json"),
    ],
)
def test_coefficient_check_reads_every_position_of_a_long_row(parse, error):
    row = [0] * 160
    for pos in range(160):
        with pytest.raises(error, match="got True"):
            parse(row[:pos] + [True] + row[pos + 1 :])
    # the first coefficient that is no plain int is the one named
    with pytest.raises(error, match="got 1.5"):
        parse(row[:7] + [1.5] + row[8:80] + [False] + row[81:])

    class Coefficient(IntEnum):
        ONE = 1

    x = parse(row[:159] + [Coefficient.ONE])
    assert x.coeffs[159] is Coefficient.ONE
    assert x == basis(159, 160)


@given(VectorPairs)
def test_symmetry(pair):
    """x.y == y.x."""
    x, y = pair
    assert intersect(x, y) == intersect(y, x)


@given(VectorTriples)
def test_bilinearity(triple):
    """(x+y).z == x.z + y.z."""
    x, y, z = triple
    assert intersect(add(x, y), z) == intersect(x, z) + intersect(y, z)


@given(Vectors)
def test_negative_definite(x):
    """x.x <= -1 unless x == 0."""
    if x.is_zero():
        assert square(x) == 0
    else:
        assert square(x) <= -1


@given(Vectors)
def test_negate_is_involution(x):
    assert negate(negate(x)) == x
    assert add(x, negate(x)).is_zero()


@given(VectorPairs)
def test_pullback_doubles_the_pairing(pair):
    """p(x).p(y) == 2 * (x.y), and the rank doubles."""
    x, y = pair
    px, py = pullback_double_cover(x), pullback_double_cover(y)
    assert px.n == 2 * x.n
    assert intersect(px, py) == 2 * intersect(x, y)


@given(Vectors)
def test_json_round_trip(x):
    assert ClassVector.from_json(x.to_json()) == x


def test_json_rejects_bad_payloads():
    with pytest.raises(SchemaError):
        ClassVector.from_json([])
    with pytest.raises(SchemaError):
        ClassVector.from_json([1, "2"])
    with pytest.raises(SchemaError):
        ClassVector.from_json([True])
    with pytest.raises(SchemaError):
        ClassVector.from_json({"coeffs": [1]})


@pytest.mark.parametrize(
    "parse, good, bad, error",
    [
        # each integer slot: a payload that parses, and the same payload
        # with true in that slot; the constructor raises TypeError
        pytest.param(ClassVector, (1, 0), (True, 0), TypeError, id="constructor"),
        pytest.param(ClassVector.from_json, [1, 0], [True, 0], SchemaError, id="coefficient"),
        pytest.param(
            CycleConfig.from_json,
            {"n": 1, "curves": [[-1]]},
            {"n": True, "curves": [[-1]]},
            SchemaError,
            id="cycle-n",
        ),
        pytest.param(
            CycleConfig.from_json,
            {"n": 2, "curves": [[1, -1], [-1, 1]], "alphas": [0, 1]},
            {"n": 2, "curves": [[1, -1], [-1, 1]], "alphas": [0, True]},
            SchemaError,
            id="cycle-alphas",
        ),
        pytest.param(
            TreeConfig.from_json,
            {"chain": [[1, -1]], "attach": 1},
            {"chain": [[1, -1]], "attach": True},
            SchemaError,
            id="tree-attach",
        ),
        pytest.param(
            kind_from_json,
            {"kind": "none", "defect": 1},
            {"kind": "none", "defect": True},
            SchemaError,
            id="kind-defect",
        ),
        pytest.param(
            kind_from_json,
            {"kind": "A", "i": 1, "I": [0]},
            {"kind": "A", "i": True, "I": [0]},
            SchemaError,
            id="kind-head",
        ),
        pytest.param(
            kind_from_json,
            {"kind": "B", "i": 0, "I": [1]},
            {"kind": "B", "i": 0, "I": [True]},
            SchemaError,
            id="kind-tail",
        ),
    ],
)
def test_true_fills_no_integer_slot(parse, good, bad, error):
    parse(good)
    with pytest.raises(error):
        parse(bad)


def test_operator_sugar_matches_functions():
    x, y = ClassVector((1, -1, 0)), ClassVector((0, 2, -1))
    assert x + y == add(x, y)
    assert x - y == add(x, negate(y))
    assert -x == negate(x)
    assert tuple(x) == (1, -1, 0)
    # a difference across ranks raises as a sum does, naming both ranks
    with pytest.raises(RankMismatchError, match=r"^rank mismatch: 6 vs 2$"):
        ClassVector((1, 0, 0, -1, 0, 0)) - ClassVector((1, -1))
