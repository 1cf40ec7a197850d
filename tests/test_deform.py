"""Node smoothing: one curve absorbs its successor and ejects a basis class."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from donlat import (
    ClassVector,
    CycleConfig,
    EllipticOutcome,
    InvalidCycleError,
    PositionOutOfRangeError,
    TypeA,
    basis,
    betti_check,
    canonicalize_cycle,
    classify,
    cycle_class,
    enumerate_cycles,
    fixture,
    from_selfintersections,
    odd_ih_cycle,
    smooth_node,
    validate_cycle,
)
from donlat.oracle import _bits, _pool

SelfIntLists = st.lists(st.integers(2, 5), min_size=2, max_size=5).map(tuple)


def test_triangle_smooths_to_a_pair():
    cfg = fixture("ex333").cycle
    out, ejected = smooth_node(cfg, 0)
    assert isinstance(out, CycleConfig)
    assert out.curves == (ClassVector((0, 0, -2)), ClassVector((-1, -1, 1)))
    assert ejected == basis(1, 3)
    assert validate_cycle(out).ok
    assert cycle_class(out) == cycle_class(cfg)
    assert betti_check(out).value == betti_check(cfg).value - 1


def test_pair_smooths_to_a_nodal_curve():
    pair, _ = smooth_node(fixture("ex333").cycle, 0)
    out, ejected = smooth_node(pair, 0)
    assert out == CycleConfig(3, (ClassVector((-1, -1, -1)),))
    assert ejected == basis(2, 3)
    assert validate_cycle(out).ok


def test_nodal_curve_smooths_to_elliptic():
    nodal = CycleConfig(3, (ClassVector((-1, -1, -1)),))
    out, ejected = smooth_node(nodal, 0)
    assert out == EllipticOutcome(ClassVector((-1, -1, -1)))
    assert ejected is None


def test_zero_class_pair_smooths_to_the_rejected_zero_curve():
    # the class of this pair is zero, so the ladder ends at the zero
    # class, which is no nodal curve (documented in smooth_node)
    cfg = CycleConfig(2, (ClassVector((1, -1)), ClassVector((-1, 1))))
    assert validate_cycle(cfg).ok
    for position, head in ((0, 1), (1, 0)):
        out, ejected = smooth_node(cfg, position)
        assert out == CycleConfig(2, (ClassVector((0, 0)),))
        assert ejected == basis(head, 2)
        assert [v.code for v in validate_cycle(out).violations] == ["single-not-nodal"]
        with pytest.raises(InvalidCycleError):
            smooth_node(out, 0)


def test_wraparound_node():
    cfg = from_selfintersections((5, 3))
    out, ejected = smooth_node(cfg, 1)
    # the merged curve takes the front slot, curve 0's head pops out
    assert ejected == basis(0, 6)
    assert out == CycleConfig(6, (ClassVector((0, -1, -1, -1, 0, -1)),))


def test_position_and_validity_guards():
    cfg = from_selfintersections((5, 3))
    with pytest.raises(PositionOutOfRangeError):
        smooth_node(cfg, 2)
    with pytest.raises(PositionOutOfRangeError):
        smooth_node(cfg, -1)
    # a position that is no plain int is out of range too: 1.0 would
    # raise a bare TypeError, True would smooth node 1
    for junk in (1.0, True, False, None, "0"):
        with pytest.raises(PositionOutOfRangeError):
            smooth_node(cfg, junk)
    junk = CycleConfig(2, (ClassVector((1, 1)), ClassVector((1, -1))))
    with pytest.raises(InvalidCycleError) as err:
        smooth_node(junk, 0)
    assert "not-a-curve" in err.value.report.codes()
    # the error carries the validator's report and its joined messages
    report = validate_cycle(junk)
    assert err.value.report == report
    assert str(err.value) == "; ".join(v.message for v in report.violations)
    assert str(err.value) == (
        "curve 0 is not a rational curve class; the two curves meet 0 times, need 2"
    )


@given(SelfIntLists, st.integers(0, 4))
def test_smoothing_preserves_the_cycle_class(ks, pos):
    """One smoothing: class fixed, s drops by one, the successor head ejects."""
    cfg = from_selfintersections(ks)
    position = pos % cfg.s
    absorbed = classify(cfg.curves[(position + 1) % cfg.s])
    assert isinstance(absorbed, TypeA)
    out, ejected = smooth_node(cfg, position)
    assert isinstance(out, CycleConfig)
    assert out.s == cfg.s - 1
    assert ejected == basis(absorbed.head, cfg.n)
    assert cycle_class(out) == cycle_class(cfg)
    # the zero-class ladder ends in a degenerate one-curve state
    if out.s > 1 or not cycle_class(out).vector.is_zero():
        assert validate_cycle(out).ok


@given(SelfIntLists)
def test_smoothing_all_the_way_down(ks):
    """Repeated smoothing at 0 reaches s == 1, ejecting s-1 distinct classes."""
    cfg = from_selfintersections(ks)
    state = cfg
    seen = []
    while state.s > 1:
        state, ejected = smooth_node(state, 0)
        assert isinstance(state, CycleConfig)
        seen.append(ejected)
        assert cycle_class(state) == cycle_class(cfg)
    assert len(seen) == cfg.s - 1
    assert len(set(seen)) == len(seen)
    final = cycle_class(cfg).vector
    if not final.is_zero():
        # a genuine nodal curve remains; one more step goes elliptic
        assert validate_cycle(state).ok
        out, last = smooth_node(state, 0)
        assert out == EllipticOutcome(final)
        assert last is None


def test_full_walk_of_a_long_cycle():
    """Smoothing odd_ih_cycle(64) down to one curve and then its node:
    64 validations of cycles of up to 64 curves."""
    cfg = odd_ih_cycle(64)
    start = cycle_class(cfg)
    ejected = []
    out = cfg
    while isinstance(out, CycleConfig):
        assert cycle_class(out) == start
        out, e = smooth_node(out, 0)
        if e is not None:
            ejected.append(e)
    assert isinstance(out, EllipticOutcome)
    assert out.curve_class == start.vector
    assert len(ejected) == 63
    assert set(ejected) == {basis(i, 64) for i in range(1, 64)}


# per rank n, for s = 1..n: how many classes of s curves are the
# smoothing of no class of s + 1 curves, pinned once against the
# inverse search `_unsplit_counts`; CI runs ranks 7 and 8
UNREACHED = {
    1: [0],
    2: [0, 2],
    3: [0, 0, 4],
    4: [0, 0, 1, 9],
    5: [0, 0, 1, 2, 27],
    6: [0, 0, 1, 2, 11, 100],
}


def _smoothing_census(n):
    """Smooth every node of every class of `enumerate_cycles(n, s)`,
    s = 2..n + 1.  Each result must validate, and its canonical form
    must be a class of s - 1 curves, except at the zero-class pair,
    whose nodes smooth to the zero class (`single-not-nodal`, as
    `smooth_node` documents).  Returns, for s = 1..n, the set of classes
    of s curves that no class of s + 1 curves smooths to, and the
    (class, position) pairs that gave the exception."""
    classes = {s: set(enumerate_cycles(n, s, cap=n + 1)) for s in range(1, n + 2)}
    reached = {s: set() for s in classes}
    exceptions = []
    for s in range(2, n + 2):
        for cfg in classes[s]:
            for position in range(s):
                out, _ = smooth_node(cfg, position)
                codes = validate_cycle(out).codes()
                if codes:
                    assert codes == ("single-not-nodal",), (cfg, position, codes)
                    exceptions.append((cfg, position))
                    continue
                form = canonicalize_cycle(out)
                assert form in classes[s - 1], (cfg, position)
                reached[s - 1].add(form)
    return [classes[s] - reached[s] for s in range(1, n + 1)], exceptions


def _unsplit_counts(n):
    """The counts of `_smoothing_census` by the inverse search, with no
    smoothing and no class of s + 1 curves: a class of s curves is a
    smoothing iff some curve D splits into A + B, B the curve after A,
    so that the s + 1 curves validate.  B meets the curve after it
    once (at s = 1 it may be any curve class), and A = D - B must be a
    curve class; each such split is then decided by `validate_cycle`."""
    pool = _pool(n)
    cand = pool.classes
    index = {c: i for i, c in enumerate(cand)}
    counts = []
    for s in range(1, n + 1):
        unsplit = 0
        for cfg in enumerate_cycles(n, s, cap=n):
            curves = cfg.curves
            unsplit += not any(
                curves[i] - b in index
                and validate_cycle(CycleConfig(n, (*curves[:i], curves[i] - b, b, *curves[i + 1 :]))).ok
                for i in range(s)
                for b in (
                    cand
                    if s == 1
                    else map(cand.__getitem__, _bits(pool.meets_once[index[curves[(i + 1) % s]]]))
                )
            )
        counts.append(unsplit)
    return counts


def _type_a_odd_ih_of_its_own_rank(cfg):
    """Whether the s curves of cfg are all type A and use only s labels,
    all of them in I (so the class is -e_I, and the cycle is OddIH in
    rank s with any further labels dropped)."""
    labels = {i for c in cfg.curves for i, x in enumerate(c.coeffs) if x}
    return len(labels) == cfg.s == len(cycle_class(cfg).support) and all(
        isinstance(classify(c), TypeA) for c in cfg.curves
    )


def test_every_node_of_every_class_smooths_to_a_shorter_class():
    for n, want in UNREACHED.items():
        unreached, exceptions = _smoothing_census(n)
        assert [len(u) for u in unreached] == want, n
        # the one exception: both nodes of the zero-class pair
        assert sorted(position for _, position in exceptions) == ([0, 1] if n > 1 else []), n
        assert len({cfg for cfg, _ in exceptions}) == min(n - 1, 1), n
        assert all(cfg.s == 2 and cycle_class(cfg).vector.is_zero() for cfg, _ in exceptions)
        # below s = n, the classes that no longer cycle smooths to are
        # the type A OddIH cycles of rank s (0, 0, 1, 2, 11, 50 and 227
        # for s = 1..7, the same at every n > s up to 8); a rule seen,
        # not proved.  At s = n the unreached classes are of every kind
        for s in range(1, n):
            rule = {cfg for cfg in enumerate_cycles(n, s, cap=n) if _type_a_odd_ih_of_its_own_rank(cfg)}
            assert unreached[s - 1] == rule, (n, s)


def test_the_inverse_search_finds_the_same_unreached_counts():
    for n, want in UNREACHED.items():
        assert _unsplit_counts(n) == want, n
