"""Curve-class recognition, reconstruction and chain composition."""

from __future__ import annotations

import copy
import dataclasses
import inspect
import pickle
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from donlat import (
    ClassVector,
    IndexRangeError,
    NonCurve,
    NotACurveError,
    NotAdjacentError,
    NotTypeAError,
    RankMismatchError,
    SchemaError,
    TwoTypeBError,
    TypeA,
    TypeB,
    classify,
    compose_chain,
    distinct_heads,
    genus_defect,
    intersect,
    is_nodal_cycle_class,
    kind_from_json,
    kind_to_json,
    reconstruct,
)

Ranks = st.integers(min_value=1, max_value=6)


def vectors(n: int):
    return st.lists(st.integers(-4, 4), min_size=n, max_size=n).map(
        lambda c: ClassVector(tuple(c))
    )


Vectors = Ranks.flatmap(vectors)


def kinds(n: int):
    # head index plus any tail not containing it, in both shapes
    return st.tuples(
        st.integers(0, n - 1),
        st.frozensets(st.integers(0, n - 1), max_size=n - 1),
        st.booleans(),
    ).map(
        lambda hsb: (TypeA if hsb[2] else TypeB)(hsb[0], hsb[1] - {hsb[0]})
    )


RankedKinds = st.integers(2, 6).flatmap(lambda n: st.tuples(st.just(n), kinds(n)))


def test_classify_basic_shapes():
    assert classify(ClassVector((1, -1, -1))) == TypeA(0, frozenset({1, 2}))
    assert classify(ClassVector((-1, -2, 0))) == TypeB(1, frozenset({0}))
    assert classify(ClassVector((0, 0, 0))) == NonCurve(2)
    assert classify(ClassVector((1, 1, 0))) == NonCurve(-2)
    assert classify(ClassVector((-1, -1, -1))) == NonCurve(2)


def _reference_classify(x):
    """The two-pass classify: collect the coefficients outside {0, -1},
    then read the tail in a second scan.  The defect is summed per
    coefficient."""
    special = [(k, a) for k, a in enumerate(x.coeffs) if a not in (0, -1)]
    if len(special) == 1:
        k, a = special[0]
        tail = frozenset(j for j, c in enumerate(x.coeffs) if c == -1)
        if a == 1:
            return TypeA(k, tail)
        if a == -2:
            return TypeB(k, tail)
    return NonCurve(2 - sum(a * a + a for a in x.coeffs))


def test_classify_matches_the_two_pass_reference_on_the_box():
    for n in range(1, 5):
        for coeffs in product(range(-3, 4), repeat=n):
            x = ClassVector(coeffs)
            assert classify(x) == _reference_classify(x), coeffs


# mostly zeros and curve coefficients, with some far outside the box
SparseVectors = st.lists(
    st.one_of(
        st.sampled_from([0, 0, 0, -1, 1, -2]),
        st.integers(-(10**30), 10**30),
    ),
    min_size=1,
    max_size=40,
).map(lambda c: ClassVector(tuple(c)))


@given(SparseVectors)
def test_classify_matches_the_two_pass_reference_on_sparse_vectors(x):
    assert classify(x) == _reference_classify(x)


def test_head_never_sits_in_the_tail():
    with pytest.raises(ValueError):
        TypeA(1, frozenset({1, 2}))
    with pytest.raises(ValueError):
        TypeB(0, frozenset({0}))
    with pytest.raises(ValueError, match="head 2 may not lie in the tail"):
        TypeA(2, [0, 2])


def test_kind_value_semantics():
    built = TypeA(0, [2, 1, 2])
    twin = TypeA(0, frozenset({1, 2}))
    assert type(built.tail) is frozenset
    assert built == twin and hash(built) == hash(twin)
    assert TypeB(3, (1,)) == TypeB(3, frozenset({1}))
    assert hash(TypeB(3, (1,))) == hash(TypeB(3, frozenset({1})))
    assert TypeA(0, frozenset({1})) != TypeB(0, frozenset({1}))
    assert TypeA(head=0, tail=[1, 2]) == twin
    assert repr(twin) == "TypeA(head=0, tail=frozenset({1, 2}))"
    assert repr(TypeB(1, ())) == "TypeB(head=1, tail=frozenset())"
    assert repr(NonCurve(-2)) == "NonCurve(defect=-2)"
    for cls in (TypeA, TypeB):
        assert cls.__match_args__ == ("head", "tail")
        assert [f.name for f in dataclasses.fields(cls)] == ["head", "tail"]
        assert list(inspect.signature(cls).parameters) == ["head", "tail"]
    assert NonCurve.__match_args__ == ("defect",)
    assert [f.name for f in dataclasses.fields(NonCurve)] == ["defect"]
    match twin:
        case TypeA(head, tail):
            assert (head, tail) == (0, frozenset({1, 2}))
        case _:
            pytest.fail("TypeA did not match by position")

    for kind, name in ((twin, "head"), (TypeB(1, [0]), "tail"), (NonCurve(3), "defect")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(kind, name, 4)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(kind, name)
        assert pickle.loads(pickle.dumps(kind)) == kind
        assert copy.deepcopy(kind) == kind and copy.copy(kind) == kind
        # slotted: the fields are the whole instance
        assert not hasattr(kind, "__dict__")

    assert dataclasses.replace(twin, head=3) == TypeA(3, frozenset({1, 2}))
    assert dataclasses.replace(twin, tail=[5]) == TypeA(0, frozenset({5}))
    assert dataclasses.replace(NonCurve(3), defect=-1) == NonCurve(-1)
    with pytest.raises(ValueError):
        dataclasses.replace(twin, head=1)


@given(RankedKinds)
def test_reconstruct_round_trip(ranked):
    """classify(reconstruct(k)) == k for both curve shapes."""
    n, kind = ranked
    assert classify(reconstruct(kind, n)) == kind


def test_reconstruct_rejects_non_curves():
    with pytest.raises(NotACurveError):
        reconstruct(NonCurve(0), 3)


@pytest.mark.parametrize(
    "kind, n",
    [
        (TypeA(0, frozenset({-1})), 3),  # would wrap to index 2
        (TypeB(-3, frozenset()), 3),
        (TypeA(5, frozenset()), 3),
        (TypeB(0, frozenset({3})), 3),
        (TypeA(0, frozenset()), 0),
        (TypeA(0, frozenset()), -2),
    ],
)
def test_reconstruct_rejects_indices_outside_the_rank(kind, n):
    with pytest.raises(IndexRangeError):
        reconstruct(kind, n)


@given(Vectors)
def test_classify_matches_defect_and_coefficient_test(x):
    """Curve shapes are exactly: defect 0 and one coefficient outside {0,-1}."""
    outside = [a for a in x.coeffs if a not in (0, -1)]
    expected = genus_defect(x) == 0 and len(outside) == 1
    assert isinstance(classify(x), (TypeA, TypeB)) == expected


@given(Vectors)
def test_defect_of_curves_is_zero(x):
    kind = classify(x)
    if not isinstance(kind, NonCurve):
        assert genus_defect(x) == 0


def test_nodal_cycle_class_shapes():
    assert is_nodal_cycle_class(ClassVector((0, -1, -1))) == (
        True,
        frozenset({1, 2}),
    )
    assert is_nodal_cycle_class(ClassVector((0, 0))) == (False, frozenset())
    assert is_nodal_cycle_class(ClassVector((1, -1))) == (False, None)


def _reference_nodal(x):
    """The per-coefficient nodal test: every coefficient in {0, -1}."""
    if any(a not in (0, -1) for a in x.coeffs):
        return False, None
    support = frozenset(k for k, a in enumerate(x.coeffs) if a == -1)
    return bool(support), support


def test_nodal_cycle_class_matches_the_reference_on_the_box():
    for n in range(1, 5):
        for coeffs in product(range(-2, 2), repeat=n):
            x = ClassVector(coeffs)
            assert is_nodal_cycle_class(x) == _reference_nodal(x), coeffs


@given(SparseVectors)
def test_nodal_cycle_class_matches_the_reference_on_sparse_vectors(x):
    assert is_nodal_cycle_class(x) == _reference_nodal(x)


def test_compose_chain_merges_adjacent_pairs():
    a = ClassVector((1, -1, 0, 0))
    b = ClassVector((0, 1, -1, 0))
    assert intersect(a, b) == 1
    assert compose_chain(a, b) == TypeA(0, frozenset({2}))
    tb = ClassVector((-1, 0, -2, 0))
    assert intersect(tb, a) == 1
    assert compose_chain(tb, a) == TypeB(2, frozenset({1}))


def test_compose_chain_error_cases():
    a = ClassVector((1, -1, 0))
    with pytest.raises(NotACurveError):
        compose_chain(a, ClassVector((0, 0, 0)))
    with pytest.raises(TwoTypeBError):
        compose_chain(ClassVector((-2, 0, 0)), ClassVector((0, -2, 0)))
    with pytest.raises(NotAdjacentError):
        compose_chain(a, ClassVector((0, 0, 1)))


@given(RankedKinds, st.data())
def test_compose_chain_stays_a_curve(ranked, data):
    """Whenever two curve classes meet once, their sum is again a curve."""
    n, ka = ranked
    kb = data.draw(kinds(n))
    a, b = reconstruct(ka, n), reconstruct(kb, n)
    if intersect(a, b) != 1:
        return
    merged = compose_chain(a, b)
    assert not isinstance(merged, NonCurve)
    # a -2 head is contagious; two type A classes may still fuse to type B
    if isinstance(ka, TypeB) or isinstance(kb, TypeB):
        assert isinstance(merged, TypeB)


@given(st.integers(2, 5), st.data())
def test_two_type_b_never_adjacent(n, data):
    """Pairs of -2-head classes always meet a non-positive number of times."""
    ka = data.draw(kinds(n))
    kb = data.draw(kinds(n))
    a = reconstruct(TypeB(ka.head, ka.tail), n)
    b = reconstruct(TypeB(kb.head, kb.tail), n)
    assert intersect(a, b) <= 0


def test_distinct_heads():
    a = ClassVector((1, -1, 0))
    b = ClassVector((0, 1, -1))
    assert distinct_heads(a, b)
    assert not distinct_heads(a, ClassVector((1, 0, -1)))
    with pytest.raises(NotTypeAError):
        distinct_heads(a, ClassVector((-2, 0, 0)))
    # mixed ranks raise, as in every other binary operation
    with pytest.raises(RankMismatchError):
        distinct_heads(ClassVector((1, -1)), ClassVector((1, -1, 0)))


@given(RankedKinds)
def test_kind_json_round_trip(ranked):
    _, kind = ranked
    assert kind_from_json(kind_to_json(kind)) == kind


def test_kind_json_rejects_bad_payloads():
    assert kind_from_json({"kind": "none", "defect": 3}) == NonCurve(3)
    with pytest.raises(SchemaError):
        kind_from_json({"kind": "C", "i": 0, "I": []})
    with pytest.raises(SchemaError):
        kind_from_json({"kind": "A", "i": "0", "I": []})
    with pytest.raises(SchemaError):
        kind_from_json({"kind": "A", "i": 0, "I": [0.5]})
    with pytest.raises(SchemaError):
        kind_from_json({"kind": "none", "defect": True})
    with pytest.raises(SchemaError):
        kind_from_json([1, 2])
    # a head inside the tail, or a negative index, names no curve
    with pytest.raises(SchemaError):
        kind_from_json({"kind": "A", "i": 0, "I": [0]})
    with pytest.raises(SchemaError):
        kind_from_json({"kind": "B", "i": 2, "I": [1, 2]})
    with pytest.raises(SchemaError):
        kind_from_json({"kind": "A", "i": -1, "I": []})
    with pytest.raises(SchemaError):
        kind_from_json({"kind": "B", "i": 0, "I": [1, -2]})
