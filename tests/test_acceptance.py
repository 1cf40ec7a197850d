"""Acceptance checklist: the headline guarantees, one test per criterion.

Run with `pytest -s tests/test_acceptance.py` to see one pass/fail line
per criterion.  Every comparison is exact integer equality; nothing
here is tolerance-based.
"""

from __future__ import annotations

import random

from donlat import (
    ClassVector,
    CycleConfig,
    CycleVerdict,
    MaximalDivisorConfig,
    TreeConfig,
    TypeA,
    TypeB,
    arithmetic_genus,
    basis,
    betti_check,
    census,
    classify,
    cycle_class,
    enumerate_cycles,
    fixture,
    intersect,
    odd_ih_cycle,
    pullback_double_cover,
    selfintersections,
    smooth_node,
    square,
    validate_cycle,
    validate_maximal_divisor,
    verify_chain_dichotomy,
    verify_internonvide,
    verify_rational_pattern,
)
from donlat.cli import main


def check(num: int, label: str, ok: bool) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {label}")
    assert ok, f"criterion {num:02d} failed: {label}"


def test_criterion_01_kato_partition_case():
    cycle = fixture("kato522332").cycle
    verdict, value = betti_check(cycle)
    k0, k1 = classify(cycle.curves[0]), classify(cycle.curves[1])
    ok = (
        verdict is CycleVerdict.PARTITION_CASE
        and value == 6 == cycle.n
        and isinstance(k0, TypeA)
        and isinstance(k1, TypeA)
        and k0.tail & k1.tail == frozenset()
        and k0.tail | k1.tail == frozenset(range(6))
    )
    check(1, "kato522332 cycle: PartitionCase, #C - C^2 = 6, tails partition", ok)


def test_criterion_02_triangle_odd_ih():
    cycle = fixture("ex333").cycle
    verdict, value = betti_check(cycle)
    merged = classify(cycle.curves[0] + cycle.curves[1])
    ok = (
        verdict is CycleVerdict.ODD_IH
        and value == 6 == 2 * cycle.n
        and merged == TypeB(2, frozenset())
    )
    check(2, "ex333: OddIH with value 6, D_0 + D_1 = -2 e_2", ok)


def test_criterion_03_odd_ih_family():
    ok = True
    for n in range(2, 9):
        cfg = odd_ih_cycle(n)
        ok = (
            ok
            and validate_cycle(cfg).ok
            and square(cfg.curves[0]) == -(n + 2)
            and selfintersections(cfg) == (-(n + 2),) + (-2,) * (n - 1)
            and betti_check(cfg) == (CycleVerdict.ODD_IH, 2 * n)
        )
    check(3, "odd IH cycles n in [2,8]: valid, (n+2,2,...,2), value 2n", ok)


def test_criterion_04_kato_divisor():
    divisor = fixture("kato522332")
    report = validate_maximal_divisor(divisor)
    ok = (
        report.ok
        and report.total == ClassVector((-1, 0, -1, -1, -1, -1))
        and arithmetic_genus(divisor.all_curves()) == 1
        and arithmetic_genus(divisor.trees[0].chain) == 0
    )
    check(4, "kato522332 divisor: accepted, class -e_{0,2,3,4,5}, genera 1/0", ok)


def test_criterion_05_triangle_smoothing():
    cycle = fixture("ex333").cycle
    out, ejected = smooth_node(cycle, 0)
    ok = (
        isinstance(out, CycleConfig)
        and out.s == 2
        and validate_cycle(out).ok
        and intersect(out.curves[0], out.curves[1]) == 2
        and cycle_class(out) == cycle_class(cycle)
        and ejected == basis(1, 3)
        and betti_check(cycle).value == 6
        and betti_check(out).value == 5
    )
    check(5, "ex333 smoothing at 0: valid pair, class kept, ejects e_1, 6 -> 5", ok)


def test_criterion_06_rational_pattern():
    ok = all(verify_rational_pattern(n, 3).ok for n in (1, 2, 3, 4))
    check(6, "curve-shape test == adjunction arithmetic, |coeff| <= 3, n <= 4", ok)


def test_criterion_07_chain_dichotomy():
    reports = [verify_chain_dichotomy(n) for n in (2, 3, 4, 5)]
    ok = all(r.ok for r in reports) and all(
        r.max_type_b_pairing <= 0 for r in reports
    )
    check(7, "adjacent sums stay curves; two -2 heads never meet, n <= 5", ok)


def test_criterion_08_interlocking_tails():
    ok = all(
        verify_internonvide(n, j).ok
        for n in range(2, 6)
        for j in range(2, n + 1)
    )
    check(8, "chain-sum test matches the tail-overlap test, 2 <= j <= n <= 5", ok)


def test_criterion_09_pullback_doubling():
    rng = random.Random(20260815)
    ok = True
    for n in (2, 3, 5):
        for _ in range(1000):
            x = ClassVector(tuple(rng.randint(-9, 9) for _ in range(n)))
            y = ClassVector(tuple(rng.randint(-9, 9) for _ in range(n)))
            px, py = pullback_double_cover(x), pullback_double_cover(y)
            ok = ok and intersect(px, py) == 2 * intersect(x, y)
    check(9, "double cover pullback doubles 1000 random pairings per rank", ok)


def test_criterion_10_every_small_cycle_behaves():
    ok = True
    for n in range(1, 6):
        for s in range(1, n + 1):
            for cfg in enumerate_cycles(n, s):
                total, _ = cycle_class(cfg)  # raises unless all coeffs in {0,-1}
                ok = ok and all(a in (0, -1) for a in total.coeffs)
                ok = ok and arithmetic_genus(cfg.curves) == 1
                kinds = [classify(c) for c in cfg.curves]
                ok = ok and sum(isinstance(k, TypeB) for k in kinds) <= 1
                state, ejected = cfg, []
                while isinstance(state, CycleConfig) and state.s > 1:
                    at = next(
                        (
                            i
                            for i, c in enumerate(state.curves)
                            if isinstance(classify(c), TypeB)
                        ),
                        0,
                    )
                    state, out = smooth_node(state, at)
                    ejected.append(out)
                    ok = ok and isinstance(state, CycleConfig)
                    # a zero-class ladder ends at the zero curve, which
                    # validate_cycle rejects (see smooth_node and
                    # test_zero_class_pair_smooths_to_the_rejected_zero_curve)
                    if state.s > 1 or not total.is_zero():
                        ok = ok and validate_cycle(state).ok
                    ok = ok and cycle_class(state) == cycle_class(cfg)
                ok = ok and len(ejected) == cfg.s - 1
                ok = ok and len(set(ejected)) == len(ejected)
    check(10, "all cycles with n <= 5: genus 1, nodal class, smoothing ladder", ok)


def test_criterion_11_validator_names_the_fault():
    cycle = fixture("kato522332").cycle
    e = lambda i: basis(i, 6)
    root = e(5) - e(0)
    shared = MaximalDivisorConfig(
        cycle, (TreeConfig((root,), 0), TreeConfig((e(1) - e(5),), 0))
    )
    branch = MaximalDivisorConfig(
        cycle, (TreeConfig((root, e(3) - e(4) - e(5), e(2) - e(3) - e(5)), 0),)
    )
    stray_b = MaximalDivisorConfig(
        cycle, (TreeConfig((ClassVector((0, 0, 0, 0, 0, -2)),), 0),)
    )
    ok = (
        "shared-attachment" in validate_maximal_divisor(shared).codes()
        and "tree-not-chain" in validate_maximal_divisor(branch).codes()
        and "tree-curve-not-type-a" in validate_maximal_divisor(stray_b).codes()
    )
    check(11, "rejections name the violation: shared / branching / stray -2", ok)


def test_criterion_12_census_determinism(capsys):
    first = main(["census", "--n", "4"])
    out_a = capsys.readouterr().out
    second = main(["census", "--n", "4"])
    out_b = capsys.readouterr().out
    ok = first == second == 0 and out_a == out_b and census(4) == census(4)
    check(12, "census(4) twice: identical TSV", ok)
