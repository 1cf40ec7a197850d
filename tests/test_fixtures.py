"""Bundled configurations: class tables and their invariants."""

from __future__ import annotations

import pytest

from donlat import (
    ClassVector,
    CycleVerdict,
    FIXTURE_NAMES,
    TypeB,
    UnknownFixtureError,
    betti_check,
    classify,
    cycle_class,
    fixture,
    odd_ih_cycle,
    selfintersections,
    validate_cycle,
    validate_maximal_divisor,
)


def test_names_are_exposed():
    assert FIXTURE_NAMES == ("ex333", "ih522342", "kato522332", "oddih-N")


def test_ex333_table():
    cfg = fixture("ex333")
    assert cfg.trees == ()
    assert cfg.cycle.curves == (
        ClassVector((1, -1, -1)),
        ClassVector((-1, 1, -1)),
        ClassVector((-1, -1, 1)),
    )
    assert selfintersections(cfg.cycle) == (-3, -3, -3)
    assert betti_check(cfg.cycle) == (CycleVerdict.ODD_IH, 6)
    first_node = cfg.cycle.curves[0] + cfg.cycle.curves[1]
    assert classify(first_node) == TypeB(2, frozenset())


def test_ih522342_table():
    cfg = fixture("ih522342")
    assert cfg.trees == ()
    assert cfg.cycle.curves == (
        ClassVector((1, -1, -1, -1, -1, 0)),
        ClassVector((-1, -1, 0, 0, 1, -1)),
        ClassVector((0, 1, -1, 0, 0, 0)),
        ClassVector((0, 0, 1, -1, 0, 0)),
        ClassVector((0, 0, 0, 1, -1, -1)),
        ClassVector((-1, 0, 0, 0, 0, 1)),
    )
    assert validate_cycle(cfg.cycle).ok
    assert selfintersections(cfg.cycle) == (-5, -4, -2, -2, -3, -2)
    assert betti_check(cfg.cycle) == (CycleVerdict.ODD_IH, 12)
    # hexagon class: every basis index is consumed
    assert cycle_class(cfg.cycle).support == frozenset(range(6))


def test_kato522332_table():
    cfg = fixture("kato522332")
    assert cfg.cycle.curves == (
        ClassVector((1, -1, -1, -1, -1, 0)),
        ClassVector((-1, 0, 0, 0, 1, -1)),
    )
    assert len(cfg.trees) == 1
    assert cfg.trees[0].attach == 0
    assert cfg.trees[0].chain == (
        ClassVector((-1, 0, 0, 0, 0, 1)),
        ClassVector((0, 0, 0, 1, -1, -1)),
        ClassVector((0, 0, 1, -1, 0, 0)),
        ClassVector((0, 1, -1, 0, 0, 0)),
    )
    assert validate_maximal_divisor(cfg).ok
    assert betti_check(cfg.cycle) == (CycleVerdict.PARTITION_CASE, 6)


def test_oddih_family():
    for n in range(2, 7):
        cfg = fixture(f"oddih-{n}")
        assert cfg.cycle == odd_ih_cycle(n)
        assert cfg.trees == ()
        assert validate_maximal_divisor(cfg).ok


def test_unknown_names():
    for name in ("nope", "oddih-", "oddih-x", "oddih-1", "EX333"):
        with pytest.raises(UnknownFixtureError):
            fixture(name)


def test_oddih_rank_is_bounded():
    assert fixture("oddih-1024").cycle.s == 1024
    for name in ("oddih-1025", "oddih-5000", "oddih-" + "9" * 5000):
        with pytest.raises(UnknownFixtureError):
            fixture(name)


def test_oddih_rank_takes_only_ascii_digits():
    assert fixture("oddih-007").cycle.s == 7
    for name in ("oddih-5_0", "oddih- 7", "oddih-7 ", "oddih-+7", "oddih--7", "oddih-\u0663"):
        with pytest.raises(UnknownFixtureError, match="bad rank"):
            fixture(name)
