"""Maximal divisor validation, genus bookkeeping and the second component."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from donlat import (
    ClassVector,
    CycleConfig,
    InvalidDivisorError,
    MaximalDivisorConfig,
    NonCurveComponentError,
    NotDisjointError,
    NotLemmaFormError,
    NotTreeShapedError,
    RankMismatchError,
    SchemaError,
    SecondComponentVerdict,
    TreeConfig,
    arithmetic_genus,
    basis,
    enumerate_cycles,
    fixture,
    from_selfintersections,
    second_component_check,
    simply_connected_class,
    total_class,
    validate_cycle,
    validate_maximal_divisor,
)


def e(i: int, n: int = 6) -> ClassVector:
    return basis(i, n)


KATO = fixture("kato522332")
ROOT = e(5) - e(0)


def test_kato_divisor_is_accepted():
    report = validate_maximal_divisor(KATO)
    assert report.ok
    assert report.trace == (
        frozenset({1, 2, 3, 5}),
        frozenset({0, 1, 2, 3}),
        frozenset({0, 1, 2, 4, 5}),
        frozenset({0, 1, 3, 4, 5}),
        frozenset({0, 2, 3, 4, 5}),
    )
    assert report.total == ClassVector((-1, 0, -1, -1, -1, -1))
    assert report.support == frozenset({0, 2, 3, 4, 5})
    assert total_class(KATO) == (report.total, report.support)


def test_tree_order_never_matters():
    cyc = from_selfintersections((3, 3))
    trees = (TreeConfig((basis(1, 4),), 0), TreeConfig((basis(3, 4),), 1))
    forward = validate_maximal_divisor(MaximalDivisorConfig(cyc, trees))
    backward = validate_maximal_divisor(
        MaximalDivisorConfig(cyc, tuple(reversed(trees)))
    )
    assert forward.ok and backward.ok
    assert forward.trace == backward.trace
    # both basis indices get consumed, the divisor class vanishes
    assert forward.support == frozenset()
    assert forward.total is not None and forward.total.is_zero()


def test_two_trees_on_one_cycle_curve_are_rejected():
    bad = MaximalDivisorConfig(
        KATO.cycle,
        (TreeConfig((ROOT,), 0), TreeConfig((e(1) - e(5),), 0)),
    )
    assert "shared-attachment" in validate_maximal_divisor(bad).codes()


def test_branching_tree_is_rejected():
    branch = TreeConfig(
        (ROOT, e(3) - e(4) - e(5), e(2) - e(3) - e(5)), 0
    )
    codes = validate_maximal_divisor(
        MaximalDivisorConfig(KATO.cycle, (branch,))
    ).codes()
    assert "tree-not-chain" in codes


def test_minus_two_head_outside_the_cycle_is_rejected():
    bad = MaximalDivisorConfig(
        KATO.cycle,
        (TreeConfig((ClassVector((0, 0, 0, 0, 0, -2)),), 0),),
    )
    assert "tree-curve-not-type-a" in validate_maximal_divisor(bad).codes()


def test_remaining_structural_rejections():
    def codes(trees):
        return validate_maximal_divisor(
            MaximalDivisorConfig(KATO.cycle, trees)
        ).codes()

    assert "attach-out-of-range" in codes((TreeConfig((ROOT,), 5),))
    assert "tree-attach-mismatch" in codes((TreeConfig((ROOT,), 1),))
    assert "tree-interior-meets-cycle" in codes(
        (TreeConfig((ROOT, e(1) - e(5)), 0),)
    )
    assert "trees-overlap" in codes(
        (TreeConfig((ROOT,), 0), TreeConfig((ROOT,), 1))
    )
    assert "rank-mismatch" in codes((TreeConfig((basis(0, 3),), 0),))


@pytest.mark.parametrize("attach", [None, "0", 0.0, True])
def test_an_attach_that_is_no_plain_int_is_out_of_range(attach):
    # the JSON reader refuses these; a Python caller gets the report,
    # neither a TypeError nor a tree attached at a float or a bool
    tree = TreeConfig(KATO.trees[0].chain, attach)
    report = validate_maximal_divisor(MaximalDivisorConfig(KATO.cycle, (tree,)))
    assert report.codes() == ("attach-out-of-range",)


NO_PLAIN_INT = st.one_of(
    st.floats(allow_nan=True),
    st.booleans(),
    st.text(max_size=3),
    st.none(),
    st.tuples(st.integers(-2, 1), st.integers(-2, 1)),
)


@given(NO_PLAIN_INT, st.integers(-1, len(KATO.all_curves()) - 1))
def test_a_rank_or_curve_of_the_wrong_type_is_reported(junk, slot):
    # slot -1 is the rank; the JSON readers refuse all of these, and a
    # Python caller gets the report, never a bare exception
    curves = list(KATO.all_curves())
    s = KATO.cycle.s
    if slot < 0:
        n = junk
        want = ("rank-mismatch",) * len(curves)
    else:
        n = KATO.cycle.n
        curves[slot] = junk
        want = ("not-a-curve",)
    cycle = CycleConfig(n, curves[:s])
    tree = TreeConfig(curves[s:], KATO.trees[0].attach)
    report = validate_maximal_divisor(MaximalDivisorConfig(cycle, (tree,)))
    assert report.codes() == want
    if slot >= 0:
        assert f"is a {type(junk).__name__}, " in report.violations[0].message
    assert validate_cycle(cycle).codes() == (want[:s] if slot < s else ())


def test_empty_tree_is_rejected():
    # from_json refuses a tree with an empty chain, so the validator must
    # too, or a divisor it accepts could not be read back
    bare = fixture("ex333")
    empty = MaximalDivisorConfig(bare.cycle, (TreeConfig((), 0),))
    assert validate_maximal_divisor(empty).codes() == ("tree-empty",)
    with pytest.raises(SchemaError):
        MaximalDivisorConfig.from_json(empty.to_json())
    # nor may an empty tree turn a second cycle into a tree conflict
    pair = (ClassVector((1, -1, 0)), ClassVector((-1, 1, 0)))
    assert not second_component_check(bare, pair).tree_conflict
    with pytest.raises(InvalidDivisorError):
        second_component_check(empty, pair)


def _raw_dot(x: ClassVector, y: ClassVector) -> int:
    return -sum(a * b for a, b in zip(x.coeffs, y.coeffs))


def _raw_type_a_pool(n: int) -> list[ClassVector]:
    """Every e_i - e_I at rank n, built coordinate by coordinate."""
    pool = []
    for i in range(n):
        for signs in itertools.product((0, -1), repeat=n - 1):
            coeffs = list(signs)
            coeffs.insert(i, 1)
            pool.append(ClassVector(tuple(coeffs)))
    return pool


def _check_replay_by_hand(cfg: MaximalDivisorConfig, report) -> None:
    """Redo, in raw coordinates, what the validator's replay takes as given."""
    n = cfg.cycle.n
    total = tuple(sum(col) for col in zip(*(c.coeffs for c in cfg.all_curves())))
    minus_e_support = tuple(-1 if k in report.support else 0 for k in range(n))
    assert total == report.total.coeffs == minus_e_support

    union = list(cfg.cycle.curves)
    step = 0
    for tree in sorted(cfg.trees, key=lambda t: t.attach):
        for c in tree.chain:
            assert sum(_raw_dot(c, u) for u in union) == 1
            union.append(c)
            head = c.coeffs.index(1)
            tail = {k for k, a in enumerate(c.coeffs) if a == -1}
            before, after = report.trace[step], report.trace[step + 1]
            assert head in before and not tail & before
            assert after == (before - {head}) | tail
            step += 1
    assert len(report.trace) == step + 1


def test_replay_needs_no_checks_of_its_own():
    """Exhaustive at n <= 3: every ordered cycle, every chain of up to
    three type A curves at each position, and every combination of such
    chains on distinct cycle curves.  Chains grow only from accepted
    prefixes, since every check on a prefix is also made on the chain.
    """
    accepted = multi_tree = 0
    for n in range(1, 4):
        pool = _raw_type_a_pool(n)
        for s in range(1, n + 1):
            for cycle in enumerate_cycles(n, s, symmetry=False):
                singles = []
                for pos in range(s):
                    ok, frontier = [], [()]
                    for _ in range(3):
                        grown = []
                        for chain in frontier:
                            for c in pool:
                                tree = TreeConfig(chain + (c,), pos)
                                cfg = MaximalDivisorConfig(cycle, (tree,))
                                report = validate_maximal_divisor(cfg)
                                if report.ok:
                                    _check_replay_by_hand(cfg, report)
                                    ok.append(tree)
                                    grown.append(tree.chain)
                        frontier = grown
                    singles.append(ok)
                    accepted += len(ok)
                for k in range(2, s + 1):
                    for positions in itertools.combinations(range(s), k):
                        for trees in itertools.product(*(singles[p] for p in positions)):
                            cfg = MaximalDivisorConfig(cycle, trees)
                            report = validate_maximal_divisor(cfg)
                            if report.ok:
                                _check_replay_by_hand(cfg, report)
                                accepted += 1
                                multi_tree += 1
    assert accepted == 424
    assert multi_tree == 12


def test_total_class_raises_on_invalid_input():
    bad = MaximalDivisorConfig(KATO.cycle, (TreeConfig((ROOT,), 5),))
    with pytest.raises(InvalidDivisorError) as err:
        total_class(bad)
    assert "attach-out-of-range" in err.value.report.codes()
    # total_class, and second_component_check through it, raise the
    # validator's report with its violation messages joined by "; "
    chain, attach = KATO.trees[0].chain, KATO.trees[0].attach
    swapped = chain[:1] + (chain[2], chain[1]) + chain[3:]
    bad = MaximalDivisorConfig(KATO.cycle, (TreeConfig(swapped, attach),))
    report = validate_maximal_divisor(bad)
    assert report.codes() == ("tree-not-chain",) * 4
    joined = "; ".join(v.message for v in report.violations)
    assert joined.startswith(
        "tree 0 curves 0,1 meet 0 times, need 1; trees must be chains; "
        "tree 0 curves 0,2 meet 1 times, need 0; trees must be chains; "
    )
    for call in (lambda: total_class(bad), lambda: second_component_check(bad, ())):
        with pytest.raises(InvalidDivisorError) as err:
            call()
        assert err.value.report == report
        assert str(err.value) == joined


def test_arithmetic_genus():
    assert arithmetic_genus(KATO.all_curves()) == 1
    assert arithmetic_genus(KATO.cycle.curves) == 1
    assert arithmetic_genus(KATO.trees[0].chain) == 0
    assert arithmetic_genus((ClassVector((0, -1, -1)),)) == 1
    with pytest.raises(NonCurveComponentError):
        arithmetic_genus((ClassVector((1, 1)),))
    with pytest.raises(NonCurveComponentError):
        arithmetic_genus(())
    # each component's shape is checked, then its rank, in order
    with pytest.raises(RankMismatchError, match="rank mismatch: 3 vs 2"):
        arithmetic_genus((e(0, 3) - e(1, 3), e(0, 2) - e(1, 2), e(0, 3) + e(1, 3)))
    with pytest.raises(NonCurveComponentError):
        arithmetic_genus((e(0, 3) + e(1, 3), e(0, 2) - e(1, 2)))
    with pytest.raises(NonCurveComponentError):
        arithmetic_genus((e(0, 3) - e(1, 3), ClassVector((2, 2))))


def test_simply_connected_class():
    assert simply_connected_class(KATO.trees[0].chain) == (
        1,
        frozenset({0, 4}),
    )
    with pytest.raises(NotTreeShapedError):
        simply_connected_class(fixture("ex333").cycle.curves)
    with pytest.raises(NotTreeShapedError):
        simply_connected_class((e(0), e(2)))
    with pytest.raises(NotLemmaFormError):
        simply_connected_class((ClassVector((-2, 0, 0)),))


def test_second_component_verdicts():
    bare = MaximalDivisorConfig(KATO.cycle, ())
    none = second_component_check(bare, ())
    assert none.verdict is SecondComponentVerdict.NO_SECOND_COMPONENT

    held = second_component_check(bare, (e(1) - e(2),))
    assert held.verdict is SecondComponentVerdict.TREE_CONSTRAINTS_HOLD

    broken = second_component_check(bare, (e(0) - e(4),))
    assert broken.verdict is SecondComponentVerdict.CONTRADICTION
    assert broken.notes

    with pytest.raises(NotDisjointError):
        second_component_check(bare, (e(0) - e(1),))


def test_second_cycle_forbids_trees():
    nodal = MaximalDivisorConfig(
        from_selfintersections((2, 2)), ()
    )
    pair = second_component_check(
        nodal, (ClassVector((0, -1)),)
    )
    assert pair.verdict is SecondComponentVerdict.TWO_CYCLES
    assert not pair.tree_conflict

    conflicted = second_component_check(KATO, (ClassVector((0, -1, 0, 0, 0, 0)),))
    assert conflicted.verdict is SecondComponentVerdict.TWO_CYCLES
    assert conflicted.tree_conflict
    assert conflicted.notes


def test_divisor_json_round_trip():
    assert MaximalDivisorConfig.from_json(KATO.to_json()) == KATO
    with pytest.raises(SchemaError):
        MaximalDivisorConfig.from_json({"trees": []})
    with pytest.raises(SchemaError):
        MaximalDivisorConfig.from_json(
            {"cycle": KATO.cycle.to_json(), "trees": [{"chain": []}]}
        )
    with pytest.raises(SchemaError):
        TreeConfig.from_json({"chain": [[1, -1]], "attach": "0"})
