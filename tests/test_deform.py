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
    classify,
    cycle_class,
    fixture,
    from_selfintersections,
    odd_ih_cycle,
    smooth_node,
    validate_cycle,
)

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
