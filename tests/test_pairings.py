"""The sparse pairing pass against the dense all-pairs loops it replaced.

`lattice._pairings` feeds every pairwise check in cycle.py, divisor.py
and graph.py.  The `dense_*` functions below are those checks as they
were written before it, one `intersect` call per pair of curves.  Every
violation list, report, graph, DOT text, result and error of the
library must equal theirs.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from donlat import (
    ClassVector,
    CycleConfig,
    DivisorGraph,
    DivisorReport,
    DonlatError,
    MaximalDivisorConfig,
    NonCurve,
    NonCurveComponentError,
    NotDisjointError,
    NotLemmaFormError,
    NotTreeShapedError,
    RankMismatchError,
    SecondComponentResult,
    SecondComponentVerdict,
    TreeConfig,
    TypeA,
    TypeB,
    Violation,
    classify,
    cycle_class,
    divisor_graph,
    e_sum,
    enumerate_cycles,
    fixture,
    from_selfintersections,
    intersect,
    intersection_matrix,
    is_nodal_cycle_class,
    odd_ih_cycle,
    second_component_check,
    simply_connected_class,
    square,
    to_dot,
    total_class,
    validate_cycle,
    validate_maximal_divisor,
    zero,
)
from donlat.lattice import _mismatches, _pairings

# --- the dense reference -----------------------------------------------------


def dense_validate_cycle(cfg: CycleConfig) -> tuple[Violation, ...]:
    bad: list[Violation] = []
    if not cfg.curves:
        return (Violation("empty", "a cycle needs at least one curve"),)
    for pos, c in enumerate(cfg.curves):
        if c.n != cfg.n:
            bad.append(
                Violation("rank-mismatch", f"curve {pos} has rank {c.n}, config says {cfg.n}")
            )
    if bad:
        return tuple(bad)

    s = cfg.s
    kinds = [classify(c) for c in cfg.curves]
    if cfg.alphas is not None:
        heads = tuple(k.head if isinstance(k, TypeA) else None for k in kinds)
        if None in heads or cfg.alphas != heads or list(cfg.alphas) != sorted(set(cfg.alphas)):
            bad.append(
                Violation(
                    "alphas-mismatch",
                    f"alphas {list(cfg.alphas)} must be strictly increasing and equal "
                    f"the type A heads {list(heads)} in cycle order",
                )
            )
    if s == 1:
        ok, _ = is_nodal_cycle_class(cfg.curves[0])
        if not ok:
            bad.append(
                Violation(
                    "single-not-nodal",
                    "a one-curve cycle must have the -e_I shape with nonempty I",
                )
            )
        return tuple(bad)

    for pos, k in enumerate(kinds):
        if isinstance(k, NonCurve):
            bad.append(Violation("not-a-curve", f"curve {pos} is not a rational curve class"))
    type_b = [pos for pos, k in enumerate(kinds) if isinstance(k, TypeB)]
    if len(type_b) > 1:
        bad.append(
            Violation("two-type-b", f"curves {type_b} all have a -2 head; at most one allowed")
        )

    if s == 2:
        got = intersect(cfg.curves[0], cfg.curves[1])
        if got != 2:
            bad.append(Violation("pair-intersection", f"the two curves meet {got} times, need 2"))
    else:
        for i in range(s):
            for j in range(i + 1, s):
                got = intersect(cfg.curves[i], cfg.curves[j])
                adjacent = j - i == 1 or (i == 0 and j == s - 1)
                if adjacent and got != 1:
                    bad.append(
                        Violation(
                            "adjacent-intersection",
                            f"consecutive curves {i},{j} meet {got} times, need 1",
                        )
                    )
                if not adjacent and got != 0:
                    bad.append(
                        Violation(
                            "nonadjacent-intersection",
                            f"non-consecutive curves {i},{j} meet {got} times, need 0",
                        )
                    )
    return tuple(bad)


def dense_validate_maximal_divisor(cfg: MaximalDivisorConfig) -> DivisorReport:
    bad: list[Violation] = list(dense_validate_cycle(cfg.cycle))
    n = cfg.cycle.n
    for t_idx, tree in enumerate(cfg.trees):
        for c_idx, c in enumerate(tree.chain):
            if c.n != n:
                bad.append(
                    Violation(
                        "rank-mismatch",
                        f"tree {t_idx} curve {c_idx} has rank {c.n}, config says {n}",
                    )
                )
    if bad:
        return DivisorReport(tuple(bad))

    s = cfg.cycle.s
    seen_attach: dict[int, int] = {}
    for t_idx, tree in enumerate(cfg.trees):
        if not tree.chain:
            bad.append(
                Violation(
                    "tree-empty",
                    f"tree {t_idx} has an empty chain; a tree needs at least one curve",
                )
            )
        if not 0 <= tree.attach < s:
            bad.append(
                Violation(
                    "attach-out-of-range",
                    f"tree {t_idx} attaches at position {tree.attach}, cycle has {s} curves",
                )
            )
            continue
        if tree.attach in seen_attach:
            bad.append(
                Violation(
                    "shared-attachment",
                    f"trees {seen_attach[tree.attach]} and {t_idx} both attach to cycle curve "
                    f"{tree.attach}; trees must meet pairwise distinct cycle curves",
                )
            )
        else:
            seen_attach[tree.attach] = t_idx

    for t_idx, tree in enumerate(cfg.trees):
        for c_idx, c in enumerate(tree.chain):
            if not isinstance(classify(c), TypeA):
                bad.append(
                    Violation(
                        "tree-curve-not-type-a",
                        f"tree {t_idx} curve {c_idx} is not of the e_i - e_I shape; "
                        "only the cycle may carry a -2 head",
                    )
                )
        m = len(tree.chain)
        for i in range(m):
            for j in range(i + 1, m):
                got = intersect(tree.chain[i], tree.chain[j])
                want = 1 if j == i + 1 else 0
                if got != want:
                    bad.append(
                        Violation(
                            "tree-not-chain",
                            f"tree {t_idx} curves {i},{j} meet {got} times, need {want}; "
                            "trees must be chains",
                        )
                    )
        if 0 <= tree.attach < s:
            for c_idx, c in enumerate(tree.chain):
                hits = [
                    (pos, intersect(c, cc))
                    for pos, cc in enumerate(cfg.cycle.curves)
                    if intersect(c, cc) != 0
                ]
                if c_idx == 0:
                    if hits != [(tree.attach, 1)]:
                        bad.append(
                            Violation(
                                "tree-attach-mismatch",
                                f"tree {t_idx} root meets cycle at {hits}, "
                                f"need exactly one point on curve {tree.attach}",
                            )
                        )
                elif hits:
                    bad.append(
                        Violation(
                            "tree-interior-meets-cycle",
                            f"tree {t_idx} curve {c_idx} meets the cycle at {hits}",
                        )
                    )

    for a_idx in range(len(cfg.trees)):
        for b_idx in range(a_idx + 1, len(cfg.trees)):
            for i, ca in enumerate(cfg.trees[a_idx].chain):
                for j, cb in enumerate(cfg.trees[b_idx].chain):
                    if intersect(ca, cb) != 0:
                        bad.append(
                            Violation(
                                "trees-overlap",
                                f"tree {a_idx} curve {i} meets tree {b_idx} curve {j}",
                            )
                        )

    if bad:
        return DivisorReport(tuple(bad))

    _, support = cycle_class(cfg.cycle)
    trace = [support]
    for tree in sorted(cfg.trees, key=lambda t: t.attach):
        for c in tree.chain:
            kind = classify(c)
            support = (support - {kind.head}) | kind.tail
            trace.append(support)
    return DivisorReport((), tuple(trace), -e_sum(support, n), support)


def dense_divisor_graph(divisor: MaximalDivisorConfig) -> DivisorGraph:
    curves = divisor.all_curves()
    kinds = [classify(c) for c in curves]
    heads = [k.head for k in kinds if isinstance(k, TypeA)]
    by_head = len(heads) == len(curves) and len(set(heads)) == len(curves)
    names = tuple(f"D{kinds[i].head}" if by_head else f"D{i}" for i in range(len(curves)))
    vertices = tuple((names[i], square(c)) for i, c in enumerate(curves))
    edges = []
    if divisor.cycle.s == 1:
        edges.append((0, 0, 1))
    for i in range(len(curves)):
        for j in range(i + 1, len(curves)):
            mult = intersect(curves[i], curves[j])
            if mult >= 1:
                edges.append((i, j, mult))
    return DivisorGraph(vertices, tuple(edges))


def dense_pairwise_graph(curves) -> list[list[int]]:
    m = len(curves)
    mat = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            got = intersect(curves[i], curves[j])
            if got < 0:
                raise NotTreeShapedError(
                    f"components {i} and {j} meet {got} times; "
                    "distinct curves never pair negatively"
                )
            mat[i][j] = mat[j][i] = got
    return mat


def dense_components(mat: list[list[int]]) -> list[list[int]]:
    m = len(mat)
    seen: set[int] = set()
    out: list[list[int]] = []
    for start in range(m):
        if start in seen:
            continue
        comp, stack = [], [start]
        seen.add(start)
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in range(m):
                if w not in seen and mat[v][w] > 0:
                    seen.add(w)
                    stack.append(w)
        out.append(sorted(comp))
    return out


def dense_simply_connected_class(curves) -> tuple[int, frozenset[int]]:
    if not curves:
        raise NotTreeShapedError("empty configuration")
    mat = dense_pairwise_graph(curves)
    m = len(curves)
    if len(dense_components(mat)) != 1:
        raise NotTreeShapedError("configuration is disconnected")
    edge_load = sum(mat[i][j] for i in range(m) for j in range(i + 1, m))
    if edge_load != m - 1:
        raise NotTreeShapedError(
            f"dual graph carries {edge_load} meeting points over {m} curves; "
            "a tree needs exactly one fewer"
        )
    total = sum(curves, zero(curves[0].n))
    ones = [k for k, a in enumerate(total.coeffs) if a == 1]
    if len(ones) != 1 or any(a not in (-1, 0, 1) for a in total.coeffs):
        raise NotLemmaFormError(f"sum {list(total.coeffs)} is not of the e_k - e_K shape")
    k = ones[0]
    return k, frozenset(j for j, a in enumerate(total.coeffs) if a == -1)


def dense_second_component_check(divisor, other) -> SecondComponentResult:
    vector, _ = total_class(divisor)
    _, cycle_support = cycle_class(divisor.cycle)
    if not other:
        return SecondComponentResult(SecondComponentVerdict.NO_SECOND_COMPONENT)
    nodal_flags: list[bool] = []
    for idx, c in enumerate(other):
        if intersect(vector, c) != 0:
            raise NotDisjointError(
                f"candidate curve {idx} meets the divisor ({intersect(vector, c)} points)"
            )
        kind = classify(c)
        if isinstance(kind, (TypeA, TypeB)):
            nodal_flags.append(False)
        else:
            nodal, _ = is_nodal_cycle_class(c)
            if not nodal:
                raise NonCurveComponentError(
                    f"candidate {list(c.coeffs)} is neither a curve class nor -e_I"
                )
            nodal_flags.append(True)

    mat = dense_pairwise_graph(other)
    comps = dense_components(mat)
    has_cycle = any(nodal_flags) or any(
        sum(mat[i][j] for i in comp for j in comp if i < j) >= len(comp) for comp in comps
    )
    if has_cycle:
        notes = []
        conflict = bool(divisor.trees)
        if conflict:
            notes.append(
                "second cycle found while the divisor carries trees; "
                "with two cycles the tree part must be empty"
            )
        return SecondComponentResult(SecondComponentVerdict.TWO_CYCLES, tuple(notes), conflict)

    notes = []
    failed = False
    for comp in comps:
        try:
            k, tail = dense_simply_connected_class([other[i] for i in comp])
        except NotLemmaFormError as exc:
            notes.append(f"component {comp}: {exc}")
            failed = True
            continue
        if k not in cycle_support:
            notes.append(
                f"component {comp}: head {k} lies outside the cycle support "
                f"{sorted(cycle_support)}"
            )
            failed = True
        overlap = tail & cycle_support
        if len(overlap) != 1:
            notes.append(
                f"component {comp}: tail meets the cycle support in "
                f"{sorted(overlap)}, need exactly one index"
            )
            failed = True
    if failed:
        return SecondComponentResult(SecondComponentVerdict.CONTRADICTION, tuple(notes))
    return SecondComponentResult(SecondComponentVerdict.TREE_CONSTRAINTS_HOLD, tuple(notes))


# --- comparison helpers ------------------------------------------------------


def outcome(fn, *args):
    """The result, or the type and message of the error raised."""
    try:
        return fn(*args)
    except DonlatError as exc:
        return type(exc), str(exc)


def check_cycle(cfg: CycleConfig) -> bool:
    want = dense_validate_cycle(cfg)
    assert validate_cycle(cfg).violations == want
    return not want


def check_divisor(cfg: MaximalDivisorConfig, seen: set | None = None) -> bool:
    """Compare the report, the graph and its DOT text, and
    simply_connected_class on the whole divisor, its cycle and each
    chain; curve tuples already in `seen` are not compared again."""
    want = dense_validate_maximal_divisor(cfg)
    assert validate_maximal_divisor(cfg) == want
    graph, dense = outcome(divisor_graph, cfg), outcome(dense_divisor_graph, cfg)
    assert graph == dense
    if isinstance(graph, DivisorGraph):
        assert to_dot(graph) == to_dot(dense)
    seen = set() if seen is None else seen
    for curves in (cfg.all_curves(), cfg.cycle.curves, *(t.chain for t in cfg.trees)):
        if curves not in seen:
            seen.add(curves)
            assert outcome(simply_connected_class, curves) == outcome(
                dense_simply_connected_class, curves
            )
    return want.ok


def set_coeff(curves, pos, k, value):
    coeffs = list(curves[pos].coeffs)
    coeffs[k] = value
    return curves[:pos] + (ClassVector(tuple(coeffs)),) + curves[pos + 1 :]


def head(c: ClassVector) -> int:
    return next(k for k, a in enumerate(c.coeffs) if a in (1, -2))


def mutations(cfg: CycleConfig, rng: random.Random):
    """The benchmark's planted cycle faults, one cycle per fault."""
    n, s, curves = cfg.n, cfg.s, cfg.curves
    yield CycleConfig(n + 1, curves, cfg.alphas)
    pos = rng.randrange(s)
    yield CycleConfig(n, set_coeff(curves, pos, head(curves[pos]), 3), cfg.alphas)
    type_a = [p for p, c in enumerate(curves) if 1 in c.coeffs]
    bent = curves
    for pos in rng.sample(type_a, 2 - (s - len(type_a))):
        bent = set_coeff(bent, pos, head(bent[pos]), -2)
    yield CycleConfig(n, bent, cfg.alphas)
    if s == 2:
        yield CycleConfig(n, (curves[0], curves[0]), cfg.alphas)
    if s >= 4:
        p = rng.randrange(s - 1)
        yield CycleConfig(n, curves[:p] + (curves[p + 1], curves[p]) + curves[p + 2 :], cfg.alphas)


def type_a_pool(n: int) -> list[ClassVector]:
    """Every e_i - e_I at rank n."""
    pool = []
    for i in range(n):
        for signs in itertools.product((0, -1), repeat=n - 1):
            coeffs = list(signs)
            coeffs.insert(i, 1)
            pool.append(ClassVector(tuple(coeffs)))
    return pool


# --- the helper itself -------------------------------------------------------

coefficients = st.one_of(st.just(0), st.integers(-2, 1), st.integers(-10**6, 10**6), st.integers())


@st.composite
def equal_rank_rows(draw):
    n = draw(st.integers(1, 8))
    row = st.one_of(st.just([0] * n), st.lists(coefficients, min_size=n, max_size=n))
    return [ClassVector(tuple(r)) for r in draw(st.lists(row, max_size=10))]


@st.composite
def long_sparse_rows(draw):
    """Rows of rank up to 200, mostly zeros, whose few nonzeros sit
    mostly at the highest labels, where the pass meets labels that no
    earlier row used."""
    n = draw(st.integers(9, 200))
    labels = st.one_of(st.integers(n - 9, n - 1), st.integers(0, n - 1))
    rows = []
    for nonzeros in draw(st.lists(st.dictionaries(labels, coefficients, max_size=6), max_size=10)):
        row = [0] * n
        for k, a in nonzeros.items():
            row[k] = a
        rows.append(ClassVector(tuple(row)))
    return rows


@settings(max_examples=200)
@given(st.one_of(equal_rank_rows(), long_sparse_rows()))
def test_pairings_equal_intersect_on_every_pair(curves):
    got = _pairings(curves)
    assert all(i < j for i, j in got) and 0 not in got.values()
    for i, j in itertools.combinations(range(len(curves)), 2):
        assert got.get((i, j), 0) == intersect(curves[i], curves[j])


def test_pairings_refuse_mixed_ranks():
    with pytest.raises(RankMismatchError, match="rank mismatch: 2 vs 3"):
        _pairings((ClassVector((1, 0)), ClassVector((0, 1)), ClassVector((1, 0, 0))))
    assert _pairings(()) == {}


def test_mismatches_walk_both_dicts_in_sorted_order():
    pairs = {(2, 3): 1, (0, 4): 5, (1, 2): -1, (0, 1): 2}
    want = {(3, 4): 1, (1, 2): -1, (0, 1): 1}
    # (1, 2) agrees; (0, 4) and (2, 3) are missing from `want`, (3, 4)
    # from `pairs`, and each counts as 0 there
    assert list(_mismatches(pairs, want)) == [
        (0, 1, 2, 1),
        (0, 4, 5, 0),
        (2, 3, 1, 0),
        (3, 4, 0, 1),
    ]
    assert list(_mismatches(pairs, pairs)) == []
    assert list(_mismatches({}, {(0, 1): 0})) == []


def test_intersection_matrix_matches_intersect():
    for cfg in (odd_ih_cycle(7), from_selfintersections((5, 2, 3, 4)), fixture("ih522342").cycle):
        assert intersection_matrix(cfg) == tuple(
            tuple(intersect(a, b) for b in cfg.curves) for a in cfg.curves
        )


# --- cycles ------------------------------------------------------------------


def test_validate_cycle_matches_dense_on_every_small_cycle():
    """Every raw cycle at n <= 4, each adjacent swap of it, and it with
    its middle curve doubled."""
    checked = 0
    for n in range(1, 5):
        for s in range(1, n + 2):
            for cfg in enumerate_cycles(n, s, symmetry=False):
                c = cfg.curves
                variants = [cfg, CycleConfig(n, c[: s // 2 + 1] + c[s // 2 :], None)]
                variants += [
                    CycleConfig(n, c[:p] + (c[p + 1], c[p]) + c[p + 2 :], None)
                    for p in range(s - 1)
                ]
                for variant in variants:
                    check_cycle(variant)
                    checked += 1
    assert checked == 35_488


def test_validate_cycle_matches_dense_on_two_curve_cycles():
    """Pairs that meet -2, 0, 1, 2 and 3 times, in both orders."""
    pairs = {
        -2: ((1, -1, 0), (1, -1, 0)),
        0: ((1, -1, 0), (0, 0, 1)),
        1: ((1, -1, 0), (0, 1, -1)),
        2: ((1, -1, 0), (-1, 1, 0)),
        3: ((1, 1, 1), (-1, -1, -1)),
    }
    for got, (a, b) in pairs.items():
        a, b = ClassVector(a), ClassVector(b)
        assert intersect(a, b) == got
        for curves in ((a, b), (b, a)):
            assert check_cycle(CycleConfig(3, curves)) == (got == 2)


def test_validate_cycle_matches_dense_on_large_cycles():
    rng = random.Random(5)
    sizes = (2, 3, 4, 5, 6, 9, 16, 31, 64)
    cycles = [odd_ih_cycle(s) for s in sizes]
    cycles += [from_selfintersections([rng.randint(2, 4) for _ in range(s)]) for s in sizes]
    # the benchmark's validate_cycle tail: long cycles at rank 96 to 160,
    # the last one 64 curves whose tails cover rank 160
    ks = [3] * 32 + [4] * 32
    rng.shuffle(ks)
    cycles += [odd_ih_cycle(96), odd_ih_cycle(160), from_selfintersections(ks)]
    assert [(cfg.s, cfg.n) for cfg in cycles[-3:]] == [(96, 96), (160, 160), (64, 160)]
    for cfg in cycles:
        assert check_cycle(cfg)
        assert check_cycle(CycleConfig(cfg.n, cfg.curves, None))
        for bad in mutations(cfg, rng):
            assert not check_cycle(bad)


# --- divisors ----------------------------------------------------------------


def kato_mutations():
    """The benchmark's planted tree faults on kato522332."""
    kato = fixture("kato522332")
    cycle, (tree,) = kato.cycle, kato.trees
    chain, attach = tree.chain, tree.attach
    s = cycle.s
    bent = set_coeff(chain, 2, head(chain[2]), -2)
    tree_sets = [
        *(((chain, a),) for a in (-1, s, s + 1, s + 5)),
        ((chain, attach), (chain, attach)),
        ((bent, attach),),
        ((chain[:1] + (chain[2], chain[1]) + chain[3:], attach),),
        ((chain, 1),),
        ((chain[::-1], attach),),
        ((chain, attach), (chain, 1)),
        ((chain, attach), (chain[1:], 1), (chain[2:3], 1)),
    ]
    for trees in tree_sets:
        yield MaximalDivisorConfig(cycle, tuple(TreeConfig(c, a) for c, a in trees))


def test_divisor_checks_match_dense_on_fixtures_and_planted_faults():
    names = ("ex333", "ih522342", "kato522332", "oddih-2", "oddih-9", "oddih-64")
    for name in names:
        assert check_divisor(fixture(name))
    for cfg in kato_mutations():
        assert not check_divisor(cfg)
    kato = fixture("kato522332")
    short, long = ClassVector((1, 0)), ClassVector((0, 0, 0, 0, 0, 0, 1))
    mixed = MaximalDivisorConfig(kato.cycle, (TreeConfig((short,), 0),))
    assert not check_divisor(mixed)
    # wrong ranks in the second and third of three trees: one rank rule
    # names the tree and the curve, in tree order
    chain = kato.trees[0].chain
    three = MaximalDivisorConfig(
        kato.cycle,
        (TreeConfig(chain, 0), TreeConfig((chain[0], short, short), 1), TreeConfig((long,), 1)),
    )
    assert not check_divisor(three)
    assert [v.message for v in validate_maximal_divisor(three).violations] == [
        "tree 1 curve 1 has rank 2, config says 6",
        "tree 1 curve 2 has rank 2, config says 6",
        "tree 2 curve 0 has rank 7, config says 6",
    ]
    empty = MaximalDivisorConfig(fixture("ex333").cycle, (TreeConfig((), 0),))
    assert not check_divisor(empty)


def test_divisor_checks_match_dense_on_the_replay_divisors():
    """The divisors of test_divisor.py's replay test: at n <= 3 every
    ordered cycle, every chain of up to three type A curves at each
    position grown from accepted prefixes, and every combination of
    accepted chains on distinct cycle curves."""
    checked = accepted = 0
    seen: set = set()
    for n in range(1, 4):
        pool = type_a_pool(n)
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
                                checked += 1
                                if check_divisor(MaximalDivisorConfig(cycle, (tree,)), seen):
                                    ok.append(tree)
                                    grown.append(tree.chain)
                        frontier = grown
                    singles.append(ok)
                    accepted += len(ok)
                for k in range(2, s + 1):
                    for positions in itertools.combinations(range(s), k):
                        for trees in itertools.product(*(singles[p] for p in positions)):
                            checked += 1
                            accepted += check_divisor(MaximalDivisorConfig(cycle, trees), seen)
    assert accepted == 424
    assert checked > 4 * accepted


def test_second_component_check_matches_dense():
    """Every multiset of up to three rank-3 type A, nodal and bare -2
    classes next to the (2,2,2) triangle, whose class sum is zero, and
    next to kato522332, whose trees turn a second cycle into a
    conflict."""
    bare = MaximalDivisorConfig(from_selfintersections((2, 2, 2)), ())
    pool = [
        ClassVector(c)
        for c in itertools.product((-2, -1, 0, 1), repeat=3)
        if isinstance(classify(ClassVector(c)), TypeA)
        or is_nodal_cycle_class(ClassVector(c))[0]
        or sorted(c) == [-2, 0, 0]
    ]
    verdicts = set()
    for size in range(4):
        for other in itertools.combinations_with_replacement(pool, size):
            got = outcome(second_component_check, bare, other)
            assert got == outcome(dense_second_component_check, bare, other)
            verdicts.add(got.verdict if isinstance(got, SecondComponentResult) else got[0])
    assert verdicts == set(SecondComponentVerdict) - {SecondComponentVerdict.TREE_CONSTRAINTS_HOLD} | {
        NotTreeShapedError
    }
    kato = fixture("kato522332")
    for other in ((ClassVector((0, -1, 0, 0, 0, 0)),), (ClassVector((0, 1, -1, 0, 0, 0)),)):
        assert outcome(second_component_check, kato, other) == outcome(
            dense_second_component_check, kato, other
        )
