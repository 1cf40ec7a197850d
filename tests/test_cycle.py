"""Cycle validation, the betti count and canonical numbering."""

from __future__ import annotations

import copy
import dataclasses
import inspect
import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from donlat import (
    BadSelfIntersectionError,
    ClassVector,
    CycleConfig,
    CycleVerdict,
    IndexRangeError,
    InvalidCycleError,
    NotNodalFormError,
    NotPartitionCaseError,
    RankMismatchError,
    RankTooSmallError,
    SchemaError,
    SingleCurveError,
    basis,
    betti_check,
    canonical_numbering,
    canonicalize_cycle,
    cycle_class,
    cycle_notation,
    e_sum,
    enumerate_cycles,
    fixture,
    from_selfintersections,
    intersection_matrix,
    odd_ih_cycle,
    selfintersections,
    smooth_node,
    validate_cycle,
    zero,
)

SelfIntLists = st.lists(st.integers(2, 5), min_size=2, max_size=5).map(tuple)


def test_from_selfintersections_kato_shape():
    cfg = from_selfintersections((5, 3))
    assert cfg.n == 6
    assert cfg.alphas == (0, 4)
    assert cfg.curves == (
        ClassVector((1, -1, -1, -1, -1, 0)),
        ClassVector((-1, 0, 0, 0, 1, -1)),
    )
    assert selfintersections(cfg) == (-5, -3)


def test_from_selfintersections_rejects_bad_input():
    with pytest.raises(SingleCurveError):
        from_selfintersections((4,))
    with pytest.raises(BadSelfIntersectionError):
        from_selfintersections((3, 1))
    # the length is checked before the entries, as in the reference
    for build in (from_selfintersections, _reference_from_selfintersections):
        for ks in ((), (1,), (4,)):
            with pytest.raises(SingleCurveError):
                build(ks)
        for ks in ((1, 5), (5, 1), (2, 3, 0)):
            with pytest.raises(BadSelfIntersectionError):
                build(ks)
    # an entry that is no plain int is refused before any arithmetic
    for ks in ((3.0, 3, 2), (3, 3, "2"), (True, 3), (3, None)):
        with pytest.raises(BadSelfIntersectionError, match="must be integers"):
            from_selfintersections(ks)


@given(SelfIntLists)
def test_builder_cycles_are_valid_partition_cases(ks):
    """Prescribed self-intersections come back verbatim and validate."""
    cfg = from_selfintersections(ks)
    assert cfg.n == sum(k - 1 for k in ks)
    assert selfintersections(cfg) == tuple(-k for k in ks)
    assert validate_cycle(cfg).ok
    verdict, value = betti_check(cfg)
    assert verdict is CycleVerdict.PARTITION_CASE
    assert value == cfg.n


def test_validate_reports_shape_violations():
    assert "empty" in validate_cycle(CycleConfig(2, ())).codes()
    mixed = CycleConfig(2, (basis(0, 2), basis(0, 3)))
    assert "rank-mismatch" in validate_cycle(mixed).codes()
    assert "single-not-nodal" in validate_cycle(
        CycleConfig(2, (ClassVector((0, -2)),))
    ).codes()
    junk = CycleConfig(2, (ClassVector((1, 1)), basis(0, 2)))
    assert "not-a-curve" in validate_cycle(junk).codes()
    double_b = CycleConfig(
        2, (ClassVector((-2, 0)), ClassVector((0, -2)))
    )
    assert "two-type-b" in validate_cycle(double_b).codes()


def test_validate_pair_and_adjacency_counts():
    pair = CycleConfig(2, (ClassVector((1, -1)), ClassVector((1, -1))))
    assert "pair-intersection" in validate_cycle(pair).codes()
    square4 = from_selfintersections((2, 2, 2, 2))
    c = square4.curves
    swapped = CycleConfig(4, (c[0], c[2], c[1], c[3]))
    codes = validate_cycle(swapped).codes()
    assert "adjacent-intersection" in codes
    assert "nonadjacent-intersection" in codes


def test_cycle_class_support():
    cfg = from_selfintersections((5, 3))
    total, support = cycle_class(cfg)
    assert total == ClassVector((0, -1, -1, -1, 0, -1))
    assert support == frozenset({1, 2, 3, 5})
    # a cycle of (-2)-curves covering everything sums to zero
    assert cycle_class(from_selfintersections((2, 2, 2, 2))) == (
        zero(4),
        frozenset(),
    )
    with pytest.raises(NotNodalFormError):
        cycle_class(CycleConfig(2, (ClassVector((1, -1)), ClassVector((1, -1)))))


def test_betti_verdicts():
    assert betti_check(from_selfintersections((5, 3))) == (
        CycleVerdict.PARTITION_CASE,
        6,
    )
    assert betti_check(odd_ih_cycle(3)) == (CycleVerdict.ODD_IH, 6)
    narrow = CycleConfig(
        3, (ClassVector((1, -1, 0)), ClassVector((-1, 1, 0)))
    )
    assert validate_cycle(narrow).ok
    assert betti_check(narrow) == (CycleVerdict.INADMISSIBLE, 2)


def test_betti_partition_needs_type_a_tails():
    # value == n alone is not enough once a -2 head is present
    cfg = CycleConfig(4, (ClassVector((0, -2, 0, 0)), ClassVector((0, 1, 0, -1))))
    assert validate_cycle(cfg).ok
    assert betti_check(cfg) == (CycleVerdict.INADMISSIBLE, 4)


def test_single_curve_cycles():
    nodal = CycleConfig(3, (ClassVector((0, -1, -1)),))
    assert validate_cycle(nodal).ok
    assert betti_check(nodal) == (CycleVerdict.PARTITION_CASE, 3)
    assert canonical_numbering(
        CycleConfig(3, (ClassVector((-1, 0, -1)),))
    ).curves == (ClassVector((0, -1, -1)),)


def test_odd_ih_cycle_shape():
    cfg = odd_ih_cycle(4)
    assert selfintersections(cfg) == (-6, -2, -2, -2)
    assert validate_cycle(cfg).ok
    with pytest.raises(RankTooSmallError):
        odd_ih_cycle(1)
    for n in (3.0, True, "3", None):
        with pytest.raises(IndexRangeError, match="rank must be an integer"):
            odd_ih_cycle(n)


def _reference_odd_ih_cycle(n):
    """odd_ih_cycle built from differences of dense basis classes."""
    head = [0] * n
    head[1] = -2
    for j in range(2, n):
        head[j] = -1
    curves = [ClassVector(tuple(head))]
    for j in range(1, n - 1):
        curves.append(basis(j, n) - basis(j + 1, n))
    curves.append(basis(n - 1, n) - basis(0, n))
    return CycleConfig(n, tuple(curves), None)


def test_odd_ih_cycle_matches_the_basis_differences():
    for n in [*range(2, 65), 1024]:
        assert odd_ih_cycle(n) == _reference_odd_ih_cycle(n), n


def _reference_from_selfintersections(ks):
    """from_selfintersections built from dense basis classes, with the
    last curve's tail wrapping around to e_0 by hand."""
    ks = tuple(ks)
    if len(ks) < 2:
        raise SingleCurveError("need at least two self-intersections")
    for k in ks:
        if k < 2:
            raise BadSelfIntersectionError(f"self-intersection opposite {k} below 2")
    s = len(ks)
    n = sum(k - 1 for k in ks)
    alphas = [0]
    for k in ks[:-1]:
        alphas.append(alphas[-1] + k - 1)
    curves = []
    for i in range(s):
        lo = alphas[i] + 1
        hi = alphas[i + 1] + 1 if i + 1 < s else n
        tail = list(range(lo, hi))
        if i == s - 1:
            tail.append(0)
        curves.append(basis(alphas[i], n) - e_sum(tail, n))
    return CycleConfig(n, tuple(curves), tuple(alphas))


def _assert_same_exact_config(got, want):
    assert got == want
    assert type(got.curves) is tuple and type(got.alphas) is tuple
    assert [type(c.coeffs) for c in got.curves] == [tuple] * got.s


@given(SelfIntLists)
def test_from_selfintersections_matches_the_basis_differences(ks):
    _assert_same_exact_config(from_selfintersections(ks), _reference_from_selfintersections(ks))


def test_from_selfintersections_matches_on_long_cycles():
    # the configs benchmark's long shapes: s = 40 at n = 100 and s = 64
    # at n = 160, entries in [2, 6]
    rng = random.Random(0)
    for s, n in ((40, 100), (64, 160)):
        for _ in range(5):
            parts = [1] * s
            for _ in range(n - s):
                parts[rng.choice([p for p in range(s) if parts[p] < 5])] += 1
            ks = tuple(p + 1 for p in parts)
            cfg = from_selfintersections(ks)
            assert cfg.n == n
            _assert_same_exact_config(cfg, _reference_from_selfintersections(ks))



def test_cycle_notation():
    assert cycle_notation(from_selfintersections((5, 2, 2, 3, 3, 2))) == "(522332)"
    assert cycle_notation(from_selfintersections((12, 2))) == "(12,2)"


def test_intersection_matrix():
    assert intersection_matrix(from_selfintersections((5, 3))) == (
        (-5, 2),
        (2, -3),
    )


def test_cycle_readers_refuse_a_rank_mismatch():
    # a curve of another rank, and curves that agree with each other
    # but not with the cycle's n: betti_check and cycle_class raise too
    short_one = CycleConfig(3, (ClassVector((1, -1, 0)), ClassVector((0, 1))), None)
    short_both = CycleConfig(3, (ClassVector((1, -1)), ClassVector((-1, 1))), None)
    readers = (selfintersections, cycle_notation, intersection_matrix, betti_check, cycle_class)
    for cfg in (short_one, short_both):
        for read in readers:
            with pytest.raises(RankMismatchError):
                read(cfg)


@given(SelfIntLists)
def test_canonical_numbering_is_idempotent(ks):
    cfg = from_selfintersections(ks)
    canon = canonical_numbering(cfg)
    assert canonical_numbering(canon) == canon
    assert sorted(selfintersections(canon)) == sorted(selfintersections(cfg))


@given(SelfIntLists, st.integers(0, 4))
def test_canonical_numbering_kills_rotations(ks, shift):
    """Any rotation of the curve tuple lands on the same canonical form."""
    cfg = from_selfintersections(ks)
    r = shift % cfg.s
    rotated = CycleConfig(cfg.n, cfg.curves[r:] + cfg.curves[:r], None)
    assert canonical_numbering(rotated) == canonical_numbering(cfg)


@given(SelfIntLists, st.integers(0, 4), st.booleans(), st.randoms(use_true_random=False))
def test_canonical_numbering_follows_the_orientation(ks, shift, reflect, rng):
    """Every rotation and reflection of the curves, with the labels
    permuted, gets the numbering of the cycle itself."""
    cfg = from_selfintersections(ks)
    r = shift % cfg.s
    curves = cfg.curves[r:] + cfg.curves[:r]
    if reflect:
        curves = curves[::-1]
    perm = list(range(cfg.n))
    rng.shuffle(perm)
    relabelled = tuple(ClassVector(tuple(c.coeffs[k] for k in perm)) for c in curves)
    assert canonical_numbering(CycleConfig(cfg.n, relabelled)) == canonical_numbering(cfg)


def test_canonical_numbering_of_a_reversed_cycle():
    cfg = from_selfintersections((2, 3, 4))
    rev = CycleConfig(6, tuple(reversed(cfg.curves)))
    assert validate_cycle(rev).ok
    assert betti_check(rev)[0] is CycleVerdict.PARTITION_CASE
    # read backwards the squares are (4, 3, 2), another class
    assert canonicalize_cycle(from_selfintersections((4, 3, 2))) != canonicalize_cycle(rev)
    assert canonical_numbering(rev) == canonical_numbering(cfg)
    assert canonical_numbering(cfg) == from_selfintersections((4, 2, 3))


def test_canonical_numbering_keeps_every_partition_class():
    for n in range(2, 9):
        for s in range(2, n + 1):
            for cfg in enumerate_cycles(n, s, cap=8):
                if betti_check(cfg)[0] is CycleVerdict.PARTITION_CASE:
                    assert canonicalize_cycle(canonical_numbering(cfg)) == cfg, (n, s, cfg)


def test_canonical_numbering_validates_its_input():
    # the value is n and the tails partition the labels, but curve 2
    # meets curve 1 twice and curve 0 not at all
    rows = [(1, 0, 0, -1), (-1, 1, -1, 0), (0, -1, 1, 0)]
    cfg = CycleConfig(4, tuple(map(ClassVector, rows)))
    assert betti_check(cfg)[0] is CycleVerdict.PARTITION_CASE
    with pytest.raises(InvalidCycleError) as info:
        canonical_numbering(cfg)
    assert info.value.report.codes() == ("adjacent-intersection",) * 2
    # the error carries the validator's report and its joined messages
    report = validate_cycle(cfg)
    assert info.value.report == report
    assert str(info.value) == "; ".join(v.message for v in report.violations)
    assert str(info.value) == (
        "consecutive curves 0,2 meet 0 times, need 1; "
        "consecutive curves 1,2 meet 2 times, need 1"
    )
    # one curve e_0 at rank 2, and e_1 - e_2 - e_3 at rank 4: the value
    # 1 - C.C is n, yet neither is a nodal curve, so neither is the
    # partition case, and the verdict is checked first
    for single in (
        CycleConfig(2, (ClassVector((1, 0)),)),
        CycleConfig(4, (ClassVector((0, 1, -1, -1)),)),
    ):
        assert betti_check(single) == (CycleVerdict.INADMISSIBLE, single.n)
        assert validate_cycle(single).codes() == ("single-not-nodal",)
        with pytest.raises(NotPartitionCaseError):
            canonical_numbering(single)
    # a nodal curve -e_I with |I| = n - 1 has the value n and still is
    nodal = CycleConfig(4, (ClassVector((0, -1, -1, -1)),))
    assert betti_check(nodal) == (CycleVerdict.PARTITION_CASE, 4)
    assert canonical_numbering(nodal) == nodal
    # the verdict is checked first
    with pytest.raises(NotPartitionCaseError):
        canonical_numbering(CycleConfig(2, (ClassVector((1, 1)), ClassVector((1, 1)))))


def test_canonical_numbering_prefers_the_steep_start():
    assert canonical_numbering(from_selfintersections((3, 5))) == (
        from_selfintersections((5, 3))
    )
    with pytest.raises(NotPartitionCaseError):
        canonical_numbering(odd_ih_cycle(3))


def test_cycle_json_round_trip():
    cfg = from_selfintersections((5, 3))
    assert CycleConfig.from_json(cfg.to_json()) == cfg
    bare = CycleConfig(2, (ClassVector((0, -1)),))
    assert CycleConfig.from_json(bare.to_json()) == bare


def test_cycle_config_value_semantics():
    rows = [ClassVector((0, -1)), ClassVector((-1, 0))]
    built = CycleConfig(2, list(rows), [0, 1])
    twin = CycleConfig(2, tuple(rows), (0, 1))
    assert type(built.curves) is tuple and type(built.alphas) is tuple
    assert built == twin and hash(built) == hash(twin)

    class Row(tuple):
        pass

    assert type(CycleConfig(2, Row(rows), Row((0, 1))).curves) is tuple
    with pytest.raises(dataclasses.FrozenInstanceError):
        built.n = 3
    assert repr(built) == (
        "CycleConfig(n=2, curves=(ClassVector(coeffs=(0, -1)), "
        "ClassVector(coeffs=(-1, 0))), alphas=(0, 1))"
    )
    assert dataclasses.replace(built, alphas=None) == CycleConfig(2, tuple(rows), None)
    assert copy.deepcopy(built) == built
    assert pickle.loads(pickle.dumps(built)) == built
    # slotted: the fields are the whole instance
    assert not hasattr(built, "__dict__")

    # the constructor's public shape
    rows = tuple(rows)
    params = inspect.signature(CycleConfig).parameters
    assert list(params) == ["n", "curves", "alphas"]
    empty = inspect.Parameter.empty
    assert [p.default for p in params.values()] == [empty, empty, None]
    cfg = CycleConfig(curves=rows, n=2)
    assert cfg.alphas is None and cfg == CycleConfig(2, rows, None)
    # any iterable becomes a tuple; an exact tuple is kept as given
    assert CycleConfig(2, (r for r in rows)).curves == rows
    assert cfg.curves is rows
    heads = (0, 1)
    assert CycleConfig(2, rows, heads).alphas is heads
    with pytest.raises(dataclasses.FrozenInstanceError):
        del cfg.n
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.curves = rows[:1]
    fields = dataclasses.fields(CycleConfig)
    assert [f.name for f in fields] == ["n", "curves", "alphas"]
    assert [f.default for f in fields] == [dataclasses.MISSING] * 2 + [None]
    assert CycleConfig.__match_args__ == ("n", "curves", "alphas")
    copied = copy.copy(cfg)
    assert copied == cfg and copied.curves is cfg.curves


def test_every_cycle_builder_returns_exact_tuples():
    kato = from_selfintersections((5, 3))
    built = [
        kato,
        CycleConfig.from_json(kato.to_json()),
        odd_ih_cycle(5),
        canonical_numbering(kato),
        canonicalize_cycle(kato),
        smooth_node(from_selfintersections((4, 3, 2)), 0)[0],
    ]
    built += [fixture(name).cycle for name in ("ex333", "ih522342", "kato522332", "oddih-4")]
    for n in range(1, 5):
        for s in range(1, n + 1):
            for symmetry in (True, False):
                built += enumerate_cycles(n, s, symmetry=symmetry)
    for cfg in built:
        assert type(cfg.curves) is tuple, cfg
        assert cfg.alphas is None or type(cfg.alphas) is tuple, cfg
        assert cfg == CycleConfig(cfg.n, list(cfg.curves), cfg.alphas), cfg


def test_cycle_json_rejects_bad_payloads():
    with pytest.raises(SchemaError):
        CycleConfig.from_json({"curves": [[0, -1]]})
    with pytest.raises(SchemaError):
        CycleConfig.from_json({"n": 2, "curves": [[0, "x"]]})
    with pytest.raises(SchemaError):
        CycleConfig.from_json({"n": True, "curves": [[0, -1]]})
    with pytest.raises(SchemaError):
        CycleConfig.from_json([1])


def test_alphas_must_be_the_increasing_type_a_heads():
    triangle = [[1, -1, 0], [0, 1, -1], [-1, 0, 1]]
    cfg = CycleConfig.from_json({"n": 3, "curves": triangle, "alphas": [7, 7, 7]})
    assert validate_cycle(cfg).codes() == ("alphas-mismatch",)
    assert validate_cycle(CycleConfig(3, cfg.curves, (0, 1, 2))).ok
    # the same heads, listed for a rotated cycle, are no longer increasing
    rotated = cfg.curves[1:] + cfg.curves[:1]
    assert validate_cycle(CycleConfig(3, rotated, (1, 2, 0))).codes() == ("alphas-mismatch",)
    # a type B curve has no head numbering
    odd = odd_ih_cycle(3)
    assert validate_cycle(odd).ok
    assert validate_cycle(CycleConfig(3, odd.curves, (1, 1, 2))).codes() == ("alphas-mismatch",)
    # nor may alphas list the None head of a curve that is not type A,
    # the nodal curve of a one-curve cycle included
    nodal = CycleConfig(3, (ClassVector((0, -1, -1)),), (None,))
    for cfg in (CycleConfig(3, odd.curves, (None, 1, 2)), nodal):
        assert validate_cycle(cfg).codes() == ("alphas-mismatch",)
        with pytest.raises(InvalidCycleError):
            smooth_node(cfg, 0)


def test_builders_set_alphas_that_validate():
    for ks in ((2, 2), (5, 3), (2, 3, 4), (3, 3, 3, 2), (4, 2, 2, 5, 3)):
        cfg = from_selfintersections(ks)
        assert cfg.alphas is not None
        assert validate_cycle(cfg).ok, ks
        rotated = CycleConfig(cfg.n, cfg.curves[1:] + cfg.curves[:1], None)
        renumbered = canonical_numbering(rotated)
        assert renumbered.alphas is not None
        assert validate_cycle(renumbered).ok, ks
