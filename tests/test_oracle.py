"""Exhaustive searches: enumeration, census tables and claim sweeps."""

from __future__ import annotations

import gc
import hashlib
import json
import tracemalloc
from collections import Counter
from functools import reduce
from itertools import combinations, permutations, product
from math import comb, factorial, gcd, prod
from operator import add

import pytest
from hypothesis import given
from hypothesis import strategies as st

from donlat import (
    CapExceededError,
    ClassVector,
    CycleConfig,
    CycleVerdict,
    IndexRangeError,
    NonCurve,
    RankMismatchError,
    SchemaError,
    TypeA,
    TypeB,
    betti_check,
    candidate_curve_classes,
    canonicalize_cycle,
    census,
    classify,
    compose_chain,
    cycle_class,
    cycle_notation,
    effective_cap,
    enumerate_cycles,
    fixture,
    from_selfintersections,
    intersect,
    validate_cycle,
    verify_chain_dichotomy,
    verify_internonvide,
    verify_rational_pattern,
    zero,
)
from donlat import oracle
from donlat.oracle import (
    DichotomyReport,
    _bits,
    _canonical_classes,
    _cycle_prefixes,
    _dihedral_orders,
    _mask,
    _pool,
    _walk,
)

SelfIntLists = st.lists(st.integers(2, 4), min_size=2, max_size=4).map(tuple)

# class counts per (n, s), pinned once against the brute search
EXPECTED_COUNTS = {
    (1, 1): 1,
    (2, 1): 2,
    (2, 2): 4,
    (3, 1): 3,
    (3, 2): 8,
    (3, 3): 7,
    (4, 1): 4,
    (4, 2): 14,
    (4, 3): 17,
    (4, 4): 20,
    (5, 5): 62,
}


def test_candidate_pool():
    pool = candidate_curve_classes(2)
    assert len(pool) == 8
    assert ClassVector((1, 0)) in pool
    assert ClassVector((1, -1)) in pool
    assert ClassVector((-2, -1)) in pool
    assert len(set(pool)) == len(pool)
    with pytest.raises(IndexRangeError):
        candidate_curve_classes(0)
    # every curve class has its coefficients in {-2, -1, 0, 1}; the
    # sweeps read a sum's shape off the pool, so it must hold every one
    # at each rank they run (CI runs the chain dichotomy at rank 8)
    for n in range(1, 9):
        box = (ClassVector(c) for c in product((-2, -1, 0, 1), repeat=n))
        curves = sorted(
            (v for v in box if isinstance(classify(v), (TypeA, TypeB))), key=lambda v: v.coeffs
        )
        assert candidate_curve_classes(n) == tuple(curves), n


def test_pool_tables_match_intersect_and_classify():
    for n in range(1, 7):
        pool = _pool(n)
        cand = pool.classes
        assert cand == candidate_curve_classes(n)
        kinds = [classify(a) for a in cand]
        for i, a in enumerate(cand):
            assert _head(pool.rows[i]) == kinds[i].head
            assert pool.tails[i] == sum(1 << k for k in kinds[i].tail)
            assert pool.squares[i] == intersect(a, a)
        assert pool.type_b == sum(1 << i for i, k in enumerate(kinds) if isinstance(k, TypeB))
        assert len(pool.not_below) == len(cand)
        for i, mask in enumerate(pool.not_below):
            assert mask == sum(1 << j for j, q in enumerate(pool.squares) if q >= pool.squares[i])
        # leads.get(x, 0) is the shape of any rank-n row, pool row or not
        if n <= 5:
            lead_of = {TypeA: 1, TypeB: -2, NonCurve: 0}
            for coeffs in product(range(-3, 4), repeat=n):
                want = lead_of[type(classify(ClassVector(coeffs)))]
                assert pool.leads.get(coeffs, 0) == want, coeffs


def test_pool_bitsets_match_the_pairing_table():
    for n in range(1, 7):
        pool = _pool(n)
        cand = pool.classes
        m = len(cand)
        # the pool keeps no table; build it here from intersect
        pairing = [[intersect(a, b) for b in cand] for a in cand]
        by_value = {0: pool.apart, 1: pool.meets_once, 2: pool.meets_twice}
        for i, row in enumerate(pairing):
            # the pool keeps the nonnegative pairings only as these bitsets
            assert max(row) <= 2, (n, cand[i])
            for v, masks in by_value.items():
                assert masks[i] == sum(1 << j for j in range(m) if row[j] == v), (n, cand[i], v)
        squares = [pairing[i][i] for i in range(m)]
        assert list(pool.squares) == squares
        for i, mask in enumerate(pool.not_below):
            assert mask == sum(1 << j for j, q in enumerate(squares) if q >= squares[i]), (n, i)


def test_pool_bitsets_match_intersect_at_ranks_seven_and_eight():
    # the closed form counts |T_i & T_j| in masks that saturate at 3,
    # and the longest tails are where counts pass 2 and saturate; every
    # j against those rows and rows i at a fixed stride
    for n, stride in ((7, 9), (8, 37)):
        pool = _pool(n)
        cand = pool.classes
        longest = [i for i, c in enumerate(cand) if len(classify(c).tail) == n - 1]
        by_value = {0: pool.apart, 1: pool.meets_once, 2: pool.meets_twice}
        for i in sorted({*range(0, len(cand), stride), *longest}):
            row = [intersect(cand[i], b) for b in cand]
            assert max(row) <= 2, (n, cand[i])
            for v, masks in by_value.items():
                assert masks[i] == sum(1 << j for j, p in enumerate(row) if p == v), (n, i, v)


def test_pool_holds_no_dense_table():
    _pool.cache_clear()
    tracemalloc.start()
    try:
        pool = _pool(6)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(pool.classes) == 384
    # a dense table of the 384^2 pairings would take 2 MB on its own
    assert held < 1_000_000, held


def _cells(gaps, n):
    """The runs of consecutive labels that the gap mask splits 0..n-1 into."""
    starts = [0] + [k for k in range(1, n) if gaps >> (k - 1) & 1] + [n]
    return [range(a, b) for a, b in zip(starts, starts[1:])]


def test_pool_cells_match_a_direct_check():
    for n in range(1, 6):
        pool = _pool(n)
        rows = [c.coeffs for c in pool.classes]
        assert pool.rows == tuple(rows)
        assert dict(pool.index) == {row: i for i, row in enumerate(rows)}
        for i, row in enumerate(rows):
            changes = [k for k in range(1, n) if row[k] != row[k - 1]]
            assert pool.cuts[i] == sum(1 << (k - 1) for k in changes)
        assert len(pool.fits) == 2 ** (n - 1)
        for gaps, fits in enumerate(pool.fits):
            cells = _cells(gaps, n)
            want = [
                i
                for i, row in enumerate(rows)
                if all(
                    [row[k] for k in cell] == sorted(row[k] for k in cell)
                    for cell in cells
                )
            ]
            assert list(_bits(fits)) == want, (n, gaps)


def test_pool_keeps_only_the_last_two_ranks():
    for n in (1, 2, 3):
        _pool(n)
    assert _pool.cache_info().currsize == 2


def test_orbit_roots_meet_every_basis_permutation_orbit_once():
    for n in range(1, 6):
        pool = _pool(n)
        cand = pool.classes
        roots = {cand[i] for i in _bits(pool.fits[0])}
        assert len(roots) == 2 * n
        seen = set()
        for c in cand:
            if c in seen:
                continue
            orbit = {
                ClassVector(tuple(c.coeffs[k] for k in perm)) for perm in permutations(range(n))
            }
            assert orbit <= set(cand)
            assert len(orbit & roots) == 1, (n, c)
            seen |= orbit
        assert seen == set(cand)


def _head(row):
    """The label of a curve class's lead, the one coefficient outside {0, -1}."""
    return next(k for k, a in enumerate(row) if a not in (0, -1))


def _is_oriented_chain(chain):
    for p, q in combinations(range(len(chain)), 2):
        meet = intersect(chain[p], chain[q])
        if q > p + 1:
            if meet != 0:
                return False
        elif meet != 1 or classify(chain[q]).head not in classify(chain[p]).tail:
            return False
    return True


def _chains(n, length):
    """The whole chains of `_reference_type_a_chains(n, length)`, listed:
    the full walk the sweeps are checked against."""
    return list(_reference_type_a_chains(n, length))


def _reference_type_a_chains(n, length):
    """The chain walk one whole chain at a time over every root, testing
    the orientation of each child on its own and using no cells: a
    plain reference for the chains of `_type_a_walk` and their orbits."""
    pool = _pool(n)
    tails, meets_once, apart = pool.tails, pool.meets_once, pool.apart
    heads = [_head(row) for row in pool.rows]
    everything = (1 << len(heads)) - 1
    type_a = everything & ~pool.type_b

    def extend(seq, free):
        # free: the classes meeting none of seq[:-1]
        if len(seq) == length:
            yield tuple(seq)
            return
        last = seq[-1]
        for j in _bits(meets_once[last] & free & type_a):
            if tails[last] >> heads[j] & 1:
                seq.append(j)
                yield from extend(seq, free & apart[last])
                seq.pop()

    for root in _bits(type_a):
        yield from extend([root], everything)


def _type_a_walk(n, length):
    """The oriented type A chains of `length` >= 2 curves that keep the
    cell rule, as `verify_internonvide` walks them: each prefix of
    `length - 1` classes with the bitset of the classes that complete it."""
    pool = _pool(n)
    m = len(pool.rows)
    everything = (1 << m) - 1
    walk = _walk(pool, pool.follows, everything & ~pool.type_b, (everything,) * m, length - 1)
    return [(prefix, ends) for prefix, ends, _, _ in walk]


def _relabelled(pool, seq):
    """Every relabelling of a sequence of pool indices, through all n!
    label permutations applied to its rows one by one."""
    n = len(pool.rows[0])
    index = {row: i for i, row in enumerate(pool.rows)}
    return {
        tuple(index[tuple(pool.rows[i][k] for k in perm)] for i in seq)
        for perm in permutations(range(n))
    }


def test_type_a_chains_match_the_whole_chain_walk():
    # the representative walk keeps the cell rule, and the orbits of its
    # chains are the whole walk, in its order
    for n in range(1, 7):
        pool = _pool(n)
        for length in range(2, n + 1):
            walk = _type_a_walk(n, length)
            # each prefix once, and only those that some class completes
            assert all(ends for _, ends in walk), (n, length)
            assert len({prefix for prefix, _ in walk}) == len(walk), (n, length)
            reps = [(*prefix, c) for prefix, ends in walk for c in _bits(ends)]
            assert reps == sorted(reps), (n, length)
            whole = _chains(n, length)
            assert set(reps) <= set(whole), (n, length)
            assert oracle._orbits(pool, reps) == whole, (n, length)


def test_orbits_are_the_relabellings():
    # _orbits against all n! label permutations, one orbit at a time and
    # with several sequences of one orbit given at once
    for n in range(1, 5):
        pool = _pool(n)
        for length in range(1, n + 1):
            for seq in _chains(n, length):
                orbit = _relabelled(pool, seq)
                assert oracle._orbits(pool, [seq]) == sorted(orbit), (n, seq)
                assert oracle._orbits(pool, [seq, *orbit]) == sorted(orbit), (n, seq)


def test_no_chain_is_longer_than_the_rank():
    # the curves of a chain are linearly independent (the proof is in
    # _walk), so no chain of n + 1 curves exists
    for n in range(1, 7):
        assert _type_a_walk(n, n + 1) == [], n


def test_type_a_chains_match_a_naive_filter():
    for n in range(1, 5):
        cand = candidate_curve_classes(n)
        type_a = [c for c in cand if isinstance(classify(c), TypeA)]
        for length in range(1, 4):
            naive = [c for c in product(type_a, repeat=length) if _is_oriented_chain(c)]
            got = [tuple(cand[i] for i in chain) for chain in _chains(n, length)]
            assert got == naive, (n, length)


def test_enumeration_counts():
    for (n, s), count in EXPECTED_COUNTS.items():
        assert len(enumerate_cycles(n, s)) == count, (n, s)


def test_enumerated_cycles_validate():
    # the search has no one-type-B filter, so a cycle with two type B
    # curves would surface here as a `two-type-b` violation
    cases = [(n, True) for n in range(1, 7)] + [(n, False) for n in range(1, 5)]
    for n, symmetry in cases:
        for s in range(1, n + 1):
            for cfg in enumerate_cycles(n, s, symmetry=symmetry, cap=6):
                assert cfg.n == n and cfg.s == s
                report = validate_cycle(cfg)
                assert report.ok, (cfg, report.violations)


def test_enumeration_is_deterministic():
    assert enumerate_cycles(4, 3) == enumerate_cycles(4, 3)


def test_rank_three_triangles_in_detail():
    got = [
        (cycle_notation(c), betti_check(c).verdict) for c in enumerate_cycles(3, 3)
    ]
    assert got == [
        ("(621)", CycleVerdict.ODD_IH),
        ("(531)", CycleVerdict.ODD_IH),
        ("(522)", CycleVerdict.ODD_IH),
        ("(521)", CycleVerdict.INADMISSIBLE),
        ("(333)", CycleVerdict.ODD_IH),
        ("(331)", CycleVerdict.INADMISSIBLE),
        ("(222)", CycleVerdict.PARTITION_CASE),
    ]


def test_symmetric_cycles_reuse_the_pool_classes():
    # enumerate_cycles maps each canonical row back to the pool's own object
    for n in range(2, 7):
        for s in range(2, n + 1):
            cycles = enumerate_cycles(n, s, cap=6)
            classes = _pool(n).classes
            index = {c.coeffs: i for i, c in enumerate(classes)}
            for cfg in cycles:
                for c in cfg.curves:
                    assert c is classes[index[c.coeffs]], (n, s, cfg)


def _reference_raw_cycles(n, s):
    """Every ordered cycle by the list-based search that the bitset
    search in `enumerate_cycles` replaced: each next curve is checked
    index by index against a pairing table built from `intersect`."""
    if s == 1:
        rows = (
            tuple(-1 if j in I else 0 for j in range(n))
            for r in range(1, n + 1)
            for I in combinations(range(n), r)
        )
        return [(ClassVector(row),) for row in sorted(rows)]
    cand = candidate_curve_classes(n)
    m = len(cand)
    pairing = [[intersect(a, b) for b in cand] for a in cand]
    is_b = [isinstance(classify(c), TypeB) for c in cand]
    if s == 2:
        return [
            (cand[f], cand[j])
            for f in range(m)
            for j in range(m)
            if j != f and pairing[f][j] == 2 and is_b[f] + is_b[j] <= 1
        ]
    out = []

    def extend(seq, b_count):
        k = len(seq)
        if k == s:
            out.append(tuple(cand[i] for i in seq))
            return
        closing = k == s - 1
        for j in range(m):
            if pairing[seq[-1]][j] != 1 or b_count + is_b[j] > 1:
                continue
            if k > 1 and pairing[seq[0]][j] != (1 if closing else 0):
                continue
            if any(pairing[seq[p]][j] != 0 for p in range(1, k - 1)):
                continue
            seq.append(j)
            extend(seq, b_count + is_b[j])
            seq.pop()

    for f in range(m):
        extend([f], is_b[f])
    return out


def test_raw_mode_matches_the_list_based_search_in_order():
    cases = [(n, s) for n in range(1, 5) for s in range(1, n + 1)] + [(5, 3)]
    cases += [(n, 1) for n in range(5, 9)]
    for n, s in cases:
        got = [cfg.curves for cfg in enumerate_cycles(n, s, symmetry=False, cap=8)]
        assert got == _reference_raw_cycles(n, s), (n, s)


def _brute_force_key(rows):
    """The least (squares, matrix) of a cycle, found by trying every
    basis permutation with every rotation and reflection of the curve
    order."""
    s, n = len(rows), len(rows[0])
    orders = [tuple((r + d * i) % s for i in range(s)) for r in range(s) for d in (1, -1)]
    ordered = [
        (tuple(-sum(a * a for a in rows[i]) for i in order), [rows[i] for i in order])
        for order in orders
    ]
    return min(
        (selfs, tuple(tuple(row[k] for k in perm) for row in mat))
        for perm in permutations(range(n))
        for selfs, mat in ordered
    )


def test_canonical_form_matches_a_brute_force_search():
    cases = [(n, s, False) for n in range(1, 4) for s in range(1, n + 1)]
    cases += [(n, s, True) for n in (4, 5) for s in range(1, n + 1)]
    for n, s, symmetry in cases:
        for cfg in enumerate_cycles(n, s, symmetry=symmetry):
            rows = [c.coeffs for c in cfg.curves]
            _, mat = _brute_force_key(rows)
            want = CycleConfig(n, tuple(map(ClassVector, mat)), None)
            assert canonicalize_cycle(cfg) == want, (n, s, rows)


# sha256 of the JSON list of raw enumerate_cycles(n, s): the order of
# the ordered tuples, which the class checks below cannot see
RAW_DIGESTS = {
    (4, 3): "3ca7ef6e15c98467716315b760313371dc5c8cd36859ffd1e3bb57d39f460812",
    (5, 4): "dc31dd03d89ce9b66be6db590c82b94bb446bfd7b4e6264db59d7656dcfb1cd2",
    (5, 5): "6a1d19568bc186701d03f44913690dbc25aa1aff4497f1eacaadba6caacf52fc",
    (6, 3): "7c14099db56bdab10fae1dbfa200485d6d001bb171bfd54d24e809d1541fb56a",
}


def _raw_digest(raw):
    """The sha256 of `json.dumps` of the list, fed one config at a
    time: the same bytes, with no text of the whole list in memory."""
    digest = hashlib.sha256(b"[")
    for i, c in enumerate(raw):
        digest.update(((", " if i else "") + json.dumps(c.to_json())).encode())
    digest.update(b"]")
    return digest.hexdigest()


def test_raw_digest_hashes_the_json_of_the_whole_list():
    raw = enumerate_cycles(4, 3, symmetry=False)
    whole = json.dumps([c.to_json() for c in raw]).encode()
    assert _raw_digest(raw) == hashlib.sha256(whole).hexdigest()
    assert _raw_digest(()) == hashlib.sha256(b"[]").hexdigest()


def test_raw_mode_covers_every_symmetry_class():
    for n, s, raw_count in (
        (2, 2, 14),
        (3, 3, 180),
        (4, 2, 324),
        (4, 3, 1728),
        (4, 4, 3168),
        (5, 3, 13440),
    ):
        raw = enumerate_cycles(n, s, symmetry=False)
        assert len(raw) == raw_count
        assert {canonicalize_cycle(c) for c in raw} == set(enumerate_cycles(n, s))
        if (n, s) in RAW_DIGESTS:
            assert _raw_digest(raw) == RAW_DIGESTS[n, s]
    for n, s, raw_count in ((5, 4, 49200), (5, 5, 70680), (6, 3, 92160)):
        raw = enumerate_cycles(n, s, symmetry=False, cap=6)
        assert len(raw) == raw_count
        assert _raw_digest(raw) == RAW_DIGESTS[n, s]
        assert {canonicalize_cycle(c) for c in _one_per_row_set(raw)} == set(
            enumerate_cycles(n, s, cap=6)
        )


def _collections_during(call):
    """The generations of the collections that run during call().  A
    young pass runs first, so none is due as call() starts."""
    gc.collect(0)
    seen = []

    def note(phase, info):
        if phase == "start":
            seen.append(info["generation"])

    gc.callbacks.append(note)
    try:
        call()
    finally:
        gc.callbacks.remove(note)
    return seen


def test_listings_are_built_with_the_collector_paused():
    # one young pass, paid before the call returns, where the raw (5, 4)
    # listing set off 144 passes with the collector on; the caller is
    # left with the collector on and no young pass owed
    for call in (
        lambda: enumerate_cycles(5, 4, symmetry=False),
        lambda: enumerate_cycles(5, 5),
        lambda: verify_internonvide(5, 3),
    ):
        assert _collections_during(call) == [0]
        assert gc.isenabled()
        assert gc.get_count()[0] < gc.get_threshold()[0]


def test_a_collector_the_caller_turned_off_stays_off():
    gc.disable()
    try:
        seen = _collections_during(lambda: enumerate_cycles(5, 4, symmetry=False))
        assert not gc.isenabled()
    finally:
        gc.enable()
    assert seen == []


def test_a_build_that_raises_leaves_the_collector_on(monkeypatch):
    calls = 0
    real = oracle.CycleConfig

    def failing(*args):
        nonlocal calls
        calls += 1
        if calls == 100:
            raise RuntimeError("planted")
        return real(*args)

    monkeypatch.setattr(oracle, "CycleConfig", failing)
    with pytest.raises(RuntimeError, match="planted"):
        enumerate_cycles(5, 4, symmetry=False)
    assert calls == 100
    assert gc.isenabled()


def test_walks_leave_nothing_for_the_cyclic_collector():
    # `_walk`'s recursive `extend` reaches itself through its closure
    # cell, a reference cycle that each walk once left behind; with the
    # collector off and every unreachable object kept, a full pass after
    # each walking call, or a walk dropped midway, finds nothing
    for call in (
        lambda: enumerate_cycles(5, 3, symmetry=False),
        lambda: verify_internonvide(5, 3),
        lambda: verify_chain_dichotomy(5),
        lambda: census(5),
        lambda: next(_cycle_prefixes(_pool(5), 4)),
    ):
        call()  # so that the pool is built before the count
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            call()
            gc.collect()
            left = [type(obj).__name__ for obj in gc.garbage]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert left == []


def test_canonicalize_cycle_keeps_no_memory():
    cfg = fixture("oddih-160").cycle
    tracemalloc.start()
    try:
        canonicalize_cycle(cfg)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a memo of the 320 curve orders of 160 indices would hold 0.4 MB
    assert held < 50_000, held


def test_canonicalize_cycle_refuses_a_rank_mismatch():
    # a curve of rank 2 in a rank-3 cycle, and every curve of rank 2
    short = CycleConfig(3, (ClassVector((1, -1, 0)), ClassVector((0, 1))), None)
    narrow = CycleConfig(3, (ClassVector((1, -1)), ClassVector((-1, 1))), None)
    for cfg in (short, narrow):
        with pytest.raises(RankMismatchError):
            canonicalize_cycle(cfg)


def test_canonicalize_cycle_returns_an_empty_cycle():
    cfg = CycleConfig(3, (), None)
    assert canonicalize_cycle(cfg) == cfg


def _one_per_row_set(raw):
    """One ordered cycle per set of classes.  The classes of a cycle
    close up in one dihedral order only (pairing 1 with the neighbours,
    0 with the rest), so the dropped ones are rotations or reflections
    of the one kept."""
    return list({frozenset(cfg.curves): cfg for cfg in raw}.values())


def _reference_symmetric_cycles(n, s):
    """enumerate_cycles with symmetry on but without the cell rule: the
    orbit roots and square prunes only, so the search finds every
    labelling of a class and the canonical form merges them."""
    if s == 1:
        rows = [tuple(-1 if j < r else 0 for j in range(n)) for r in range(1, n + 1)]
        return tuple(CycleConfig(n, (ClassVector(row),), None) for row in sorted(rows))
    pool = _pool(n)
    cand, meets_once, apart = pool.classes, pool.meets_once, pool.apart
    m = len(cand)
    is_b = [isinstance(classify(c), TypeB) for c in cand]
    sq = [intersect(c, c) for c in cand]
    everything = (1 << m) - 1
    square_at_least = {v: sum(1 << i for i, q in enumerate(sq) if q >= v) for v in set(sq)}
    # one root per basis-permutation orbit: head 0 and tail {1, ..., t}
    roots = []
    for i, c in enumerate(cand):
        kind = classify(c)
        if kind.head == 0 and kind.tail == frozenset(range(1, len(kind.tail) + 1)):
            roots.append(i)
    found = []

    def extend(seq, allowed, free):
        k = len(seq)
        root, last = seq[0], seq[-1]
        nxt = meets_once[last] & allowed & free
        if k == s - 1:
            nxt &= meets_once[root] & square_at_least[sq[seq[1]]]
            found.extend((*seq, j) for j in _bits(nxt))
            return
        if k > 1:
            nxt &= apart[root]
            free &= apart[last]
        for j in _bits(nxt):
            extend([*seq, j], allowed & ~pool.type_b if is_b[j] else allowed, free)

    for f in roots:
        if s == 2:
            found += [
                (f, j)
                for j in range(m)
                if j != f and intersect(cand[f], cand[j]) == 2 and is_b[f] + is_b[j] <= 1
            ]
        else:
            allowed = everything & ~pool.type_b if is_b[f] else everything
            extend([f], allowed & square_at_least[sq[f]], everything)
    canon = {canonicalize_cycle(CycleConfig(n, tuple(cand[i] for i in seq), None)) for seq in found}

    def order(cfg):
        return tuple(intersect(c, c) for c in cfg.curves), tuple(c.coeffs for c in cfg.curves)

    return tuple(sorted(canon, key=order))


def test_orderly_search_matches_the_search_without_cells():
    cases = [(n, s) for n in range(1, 6) for s in range(1, n + 1)]
    cases += [(6, s) for s in range(1, 7)] + [(7, 1), (8, 1)]
    for n, s in cases:
        assert enumerate_cycles(n, s, cap=8) == _reference_symmetric_cycles(n, s), (n, s)


@given(SelfIntLists, st.integers(0, 3), st.booleans())
def test_canonical_form_ignores_rotation_and_reflection(ks, shift, flip):
    cfg = from_selfintersections(ks)
    curves = cfg.curves[shift % cfg.s :] + cfg.curves[: shift % cfg.s]
    if flip:
        curves = tuple(reversed(curves))
    moved = CycleConfig(cfg.n, curves, None)
    assert canonicalize_cycle(moved) == canonicalize_cycle(cfg)
    assert canonicalize_cycle(canonicalize_cycle(cfg)) == canonicalize_cycle(cfg)


def test_census_tables():
    P = CycleVerdict.PARTITION_CASE
    O = CycleVerdict.ODD_IH
    I = CycleVerdict.INADMISSIBLE
    assert census(2) == (
        (2, 1, P, 1),
        (2, 1, I, 1),
        (2, 2, P, 1),
        (2, 2, O, 2),
        (2, 2, I, 1),
    )
    assert census(3) == (
        (3, 1, P, 1),
        (3, 1, I, 2),
        (3, 2, P, 1),
        (3, 2, I, 7),
        (3, 3, P, 1),
        (3, 3, O, 4),
        (3, 3, I, 2),
    )
    assert census(4) == (
        (4, 1, P, 1),
        (4, 1, I, 3),
        (4, 2, P, 2),
        (4, 2, I, 12),
        (4, 3, P, 1),
        (4, 3, I, 16),
        (4, 4, P, 1),
        (4, 4, O, 13),
        (4, 4, I, 6),
    )


def _reference_census(n):
    """The census from `betti_check` on every enumerated class."""
    rows = []
    for s in range(1, n + 1):
        verdicts = [betti_check(cfg).verdict for cfg in enumerate_cycles(n, s, cap=7)]
        rows += [(n, s, v, verdicts.count(v)) for v in CycleVerdict if v in verdicts]
    return tuple(rows)


def test_census_matches_betti_check_on_every_class():
    for n in range(1, 8):
        assert census(n, cap=7) == _reference_census(n), n


def test_census_value_is_minus_s_minus_the_squares():
    # the value census reads off the squares of an accepted cycle, s >= 2
    cases = [(n, s, True) for n in range(2, 7) for s in range(2, n + 1)]
    cases += [(n, s, False) for n in range(2, 5) for s in range(2, n + 1)]
    for n, s, symmetry in cases:
        cycles = enumerate_cycles(n, s, symmetry=symmetry, cap=6)
        assert cycles, (n, s, symmetry)
        for cfg in cycles:
            squares = sum(intersect(c, c) for c in cfg.curves)
            assert betti_check(cfg).value == -s - squares, cfg


def test_value_is_s_plus_the_support_size():
    # the theorem in cycle.cycle_class's docstring: a valid cycle's class
    # is C = -e_I, so s - C.C = s + |I|, on every class for n <= 7
    for n in range(1, 8):
        for s in range(1, n + 1):
            for cfg in enumerate_cycles(n, s, cap=7):
                assert betti_check(cfg).value == s + len(cycle_class(cfg).support), cfg


def test_cycles_one_longer_than_the_rank():
    # s <= n + 1 is a theorem (census's docstring), and the curves of an
    # (n + 1)-cycle have rank n, which forces |I| = n (cycle_class): up
    # to n = 6 each reads Inadmissible at value 2n + 1
    counts = []
    for n in range(1, 7):
        cycles = enumerate_cycles(n, n + 1, cap=7)
        counts.append(len(cycles))
        assert {betti_check(cfg) for cfg in cycles} == {(CycleVerdict.INADMISSIBLE, 2 * n + 1)}, n
        assert {len(cycle_class(cfg).support) for cfg in cycles} == {n}, n
    assert counts == [1, 1, 3, 7, 22, 66]


def _with_row(basis, row):
    """The echelon basis `basis`, a dict from pivot column to an integer
    row whose first nonzero entry is there, with `row` added; `basis`
    itself when row lies in the rational span of its rows.  Fraction-free
    elimination in pivot order clears every pivot column of row."""
    for p in sorted(basis):
        if row[p]:
            b = basis[p]
            row = [b[p] * x - row[p] * y for x, y in zip(row, b)]
    lead = next((k for k, x in enumerate(row) if x), None)
    return basis if lead is None else {**basis, lead: row}


def _rank(rows):
    """The rank of integer rows over the rationals."""
    return len(reduce(_with_row, rows, {}))


def _rank_faults(n, s):
    """The classes of `enumerate_cycles(n, s)` whose curves break a rank
    claim of `census`: a nullity above 1, or rank n with |I| < n."""
    faults = []
    for cfg in enumerate_cycles(n, s, cap=max(n, s)):
        rank = _rank([c.coeffs for c in cfg.curves])
        if s - rank > 1 or rank == n and len(cycle_class(cfg).support) != n:
            faults.append(cfg)
    return faults


def test_cycle_curves_have_nullity_at_most_one():
    # the curves of an s-cycle have rank at least s - 1, and rank n
    # forces |I| = n (census, cycle_class); CI runs rank 8
    for n in range(1, 8):
        for s in range(2, n + 2):
            assert _rank_faults(n, s) == [], (n, s)


def test_the_curves_of_a_chain_are_independent():
    # every chain of curve classes (neighbours pair 1, all other pairs
    # 0) by a plain walk with no cells, orientation or kinds: each class
    # added to a chain grows the rank of its rows (the proof is in
    # _walk), and the longest chain has n curves
    for n in range(1, 6):
        pool = _pool(n)
        rows, meets_once, apart = pool.rows, pool.meets_once, pool.apart
        longest = 0

        def extend(seq, free, basis):
            # free: the classes meeting none of seq[:-1]
            nonlocal longest
            longest = max(longest, len(seq))
            last = seq[-1]
            for j in _bits(meets_once[last] & free):
                grown = _with_row(basis, rows[j])
                assert len(grown) == len(seq) + 1, (n, (*seq, j))
                extend((*seq, j), free & apart[last], grown)

        everything = (1 << len(rows)) - 1
        for root in range(len(rows)):
            extend((root,), everything, _with_row({}, rows[root]))
        assert longest == n, n


def test_no_cycle_is_two_longer_than_the_rank():
    # the curves of a cycle of s curves have rank at least s - 1
    for n in range(1, 7):
        assert enumerate_cycles(n, n + 2, cap=n + 2) == (), n


def test_census_builds_no_cycle_config(monkeypatch):
    built = []
    init = CycleConfig.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(CycleConfig, "__init__", counted)
    # the hook sees every construction: one config, then none in census
    CycleConfig(1, (ClassVector((-1,)),))
    assert len(built) == 1
    built.clear()
    assert sum(count for _, _, _, count in census(6, cap=6)) == 743
    assert built == []


def test_caps():
    with pytest.raises(CapExceededError):
        enumerate_cycles(6, 2)
    with pytest.raises(CapExceededError):
        census(6)
    assert len(enumerate_cycles(6, 2, cap=6)) == 30
    with pytest.raises(IndexRangeError):
        enumerate_cycles(0, 1)
    with pytest.raises(IndexRangeError):
        enumerate_cycles(2, 0)
    with pytest.raises(IndexRangeError):
        census(0)
    # a rank, cycle length, chain length or bound that is no plain int
    # gets the same error, never a bare TypeError; the pools of ranks 1
    # and 3 are warm, and neither 1.0 nor True may read them
    verify_chain_dichotomy(1)
    verify_chain_dichotomy(3)
    for junk in (3.0, 1.0, True, None, "3"):
        for call in (
            lambda: enumerate_cycles(junk, 2),
            lambda: enumerate_cycles(3, junk),
            lambda: census(junk),
            lambda: candidate_curve_classes(junk),
            lambda: verify_chain_dichotomy(junk),
            lambda: verify_internonvide(junk, 2),
            lambda: verify_internonvide(3, junk),
            lambda: verify_rational_pattern(junk, 1),
            lambda: verify_rational_pattern(2, junk),
        ):
            with pytest.raises(IndexRangeError):
                call()


def test_cap_environment_override(monkeypatch):
    monkeypatch.delenv("DONLAT_CAP", raising=False)
    assert effective_cap() == 5
    monkeypatch.setenv("DONLAT_CAP", "6")
    assert effective_cap() == 6
    assert effective_cap(3) == 3  # explicit argument wins
    # ASCII digits only: int() alone would take an underscore, a sign,
    # a space or a full-width digit
    for raw in ("six", "1_0", "+6", " 6", "\uff16"):
        monkeypatch.setenv("DONLAT_CAP", raw)
        with pytest.raises(SchemaError):
            effective_cap()


def test_rational_pattern_sweep():
    for n in (1, 2, 3, 4, 5):
        report = verify_rational_pattern(n, 3)
        assert report.ok and report.witnesses == ()


def test_rational_pattern_rejects_bad_rank_and_bound():
    # a negative bound used to sweep an empty box and report ok
    for n, bound in ((0, 2), (-1, 2), (3, -1)):
        with pytest.raises(IndexRangeError):
            verify_rational_pattern(n, bound)


def test_rational_pattern_catches_a_broken_classifier(monkeypatch):
    # calls every vector a non-curve
    monkeypatch.setattr(oracle, "_kind", lambda coeffs: NonCurve(0))
    report = verify_rational_pattern(2, 2)
    assert not report.ok
    assert report.witnesses
    assert all(type(w) is ClassVector for w in report.witnesses)


def test_chain_dichotomy_sweep():
    for n in (2, 3, 4, 5):
        report = verify_chain_dichotomy(n)
        assert report.ok and report.witnesses == ()
        assert report.max_type_b_pairing == 0


def test_chain_dichotomy_at_rank_seven():
    report = verify_chain_dichotomy(7)
    assert report.ok and report.witnesses == ()
    assert report.max_type_b_pairing == 0


def _reference_chain_dichotomy(n):
    """The dichotomy sweep over every pair i < j of pool classes, in index
    order, with no orbits: a plain reference for `verify_chain_dichotomy`,
    on whatever pool `oracle._pool` gives."""
    pool = oracle._pool(n)
    cand, type_b, rows, leads = pool.classes, pool.type_b, pool.rows, pool.leads
    witnesses = []
    max_bb = None
    for i, a in enumerate(rows):
        a_is_b = type_b >> i & 1
        later = ~((2 << i) - 1)
        # the classes j > i meeting class i once, and the type B ones
        # meeting it twice when it is type B too
        pairs = pool.meets_once[i] & later
        if a_is_b:
            bb = type_b & later
            for got, hits in ((2, pool.meets_twice), (1, pool.meets_once), (0, pool.apart)):
                if bb & hits[i]:
                    max_bb = got if max_bb is None else max(max_bb, got)
                    break
            pairs |= bb & pool.meets_twice[i]
        for j in _bits(pairs):
            b_is_b = type_b >> j & 1
            if a_is_b and b_is_b:
                witnesses.append((cand[i], cand[j], 2 if pool.meets_twice[i] >> j & 1 else 1))
                continue
            row_sum = tuple(map(add, a, rows[j]))
            lead = leads.get(row_sum, 0)
            if (lead != -2) if a_is_b or b_is_b else (lead == 0):
                witnesses.append((cand[i], cand[j], classify(ClassVector(row_sum))))
    return DichotomyReport(not witnesses, tuple(witnesses), max_bb)


def test_chain_dichotomy_matches_the_full_pair_sweep(monkeypatch):
    for n in range(1, 9):
        assert verify_chain_dichotomy(n) == _reference_chain_dichotomy(n), n
        if n <= 6:
            # the maximum type B pairing, by intersect on every pair
            cand = candidate_curve_classes(n)
            bb = [c for c in cand if isinstance(classify(c), TypeB)]
            pairings = [intersect(a, b) for a, b in combinations(bb, 2)]
            assert verify_chain_dichotomy(n).max_type_b_pairing == max(pairings, default=None)
    # and on pools whose leads call every row type A, where every pair
    # with a type B operand fails: the orbits list the same witnesses
    for n in (3, 4, 5):
        broken = _pool(n)._replace(leads=dict.fromkeys(_pool(n).rows, 1))
        monkeypatch.setattr(oracle, "_pool", lambda n: broken)
        report = verify_chain_dichotomy(n)
        assert report == _reference_chain_dichotomy(n) and not report.ok, n
        monkeypatch.undo()


def test_chain_dichotomy_reports_two_type_b_classes_meeting_once(monkeypatch):
    # no rank has such a pair, so a pool with one planted link stands in
    pool = _pool(3)
    i, j = list(_bits(pool.type_b))[:2]
    meets_once = list(pool.meets_once)
    meets_once[i] |= 1 << j
    linked = pool._replace(meets_once=tuple(meets_once))
    monkeypatch.setattr(oracle, "_pool", lambda n: linked)
    report = verify_chain_dichotomy(3)
    assert not report.ok
    assert report.witnesses == ((pool.classes[i], pool.classes[j], 1),)
    assert report.max_type_b_pairing == 1


def test_chain_dichotomy_reports_two_type_b_classes_meeting_twice(monkeypatch):
    # no rank has such a pair either: a planted link between the first
    # two type B classes, which the cell rule places as root and partner
    pool = _pool(3)
    i, j = list(_bits(pool.type_b))[:2]
    meets_twice = list(pool.meets_twice)
    meets_twice[i] |= 1 << j
    linked = pool._replace(meets_twice=tuple(meets_twice))
    monkeypatch.setattr(oracle, "_pool", lambda n: linked)
    report = verify_chain_dichotomy(3)
    assert not report.ok
    assert report.witnesses == ((pool.classes[i], pool.classes[j], 2),)
    assert report.max_type_b_pairing == 2


def test_compose_chain_matches_the_sweeps_row_sum_kind():
    for n in range(1, 6):
        pool = _pool(n)
        cand = pool.classes
        for i, j in combinations(range(len(cand)), 2):
            if intersect(cand[i], cand[j]) != 1:
                continue
            if isinstance(classify(cand[i]), TypeB) and isinstance(classify(cand[j]), TypeB):
                continue
            row_sum = tuple(map(add, cand[i].coeffs, cand[j].coeffs))
            kind = compose_chain(cand[i], cand[j])
            assert kind == oracle._kind(row_sum), (n, i, j)
            assert pool.leads.get(row_sum, 0) == {TypeA: 1, TypeB: -2}[type(kind)], (n, i, j)


def test_sweeps_catch_a_broken_shape_test(monkeypatch):
    # pools whose leads call every row type A
    broken = {n: _pool(n)._replace(leads=dict.fromkeys(_pool(n).rows, 1)) for n in (3, 4)}
    monkeypatch.setattr(oracle, "_pool", broken.__getitem__)
    report = verify_chain_dichotomy(3)
    assert not report.ok and report.witnesses
    # the witnesses still carry the sum's kind, from the classifier
    for a, b, merged in report.witnesses:
        assert type(merged) is TypeB and merged == classify(a + b), (a, b)
    report = verify_internonvide(4, 3)
    assert not report.ok and report.witnesses
    # leads that call every row type B: (i) never holds, so each of the
    # 24 chains meeting (ii) is a witness, also where no sum is type A
    broken = {4: _pool(4)._replace(leads=dict.fromkeys(_pool(4).rows, -2))}
    monkeypatch.setattr(oracle, "_pool", broken.__getitem__)
    report = verify_internonvide(4, 3)
    assert len(report.witnesses) == 24 and report.positives == ()


def test_internonvide_sweep():
    positives = {}
    cases = [(n, j) for n in range(2, 7) for j in range(2, n + 1)]
    for n, j in cases:
        report = verify_internonvide(n, j)
        assert report.ok and report.witnesses == (), (n, j)
        positives[(n, j)] = len(report.positives)
    # interlocking chains exist at every size, pinned against the sweep
    assert positives == {
        (2, 2): 0,
        (3, 2): 6,
        (3, 3): 0,
        (4, 2): 72,
        (4, 3): 24,
        (4, 4): 0,
        (5, 2): 540,
        (5, 3): 480,
        (5, 4): 120,
        (5, 5): 0,
        (6, 2): 3240,
        (6, 3): 5760,
        (6, 4): 3600,
        (6, 5): 720,
        (6, 6): 0,
    }
    with pytest.raises(IndexRangeError):
        verify_internonvide(3, 1)


def _reference_internonvide(n, j):
    """The sweep with condition (i) read from ClassVector prefix sums:
    every contiguous sub-chain sum is a difference of two prefixes."""
    cand = candidate_curve_classes(n)
    witnesses = []
    positives = []
    for indices in _chains(n, j):
        chain = tuple(cand[i] for i in indices)
        kinds = [classify(c) for c in chain]
        heads = {k.head for k in kinds}
        tails = [k.tail for k in kinds]
        prefix = [zero(n)]
        for c in chain:
            prefix.append(prefix[-1] + c)
        cond_i = isinstance(classify(prefix[j] - prefix[0]), TypeB) and all(
            isinstance(classify(prefix[q + 1] - prefix[p]), TypeA)
            for p in range(j)
            for q in range(p, j)
            if q - p + 1 != j
        )
        overlap = tails[0] & tails[j - 1]
        cond_ii = (
            len(overlap) == 1
            and not (overlap & heads)
            and not any(
                tails[p] & tails[q]
                for p, q in combinations(range(j), 2)
                if (p, q) != (0, j - 1)
            )
        )
        if cond_i != cond_ii:
            witnesses.append(chain)
        elif cond_i:
            positives.append(chain)
    return not witnesses, tuple(witnesses), tuple(positives)


def test_internonvide_matches_the_prefix_sum_reference():
    cases = [(n, j) for n in range(2, 6) for j in range(2, n + 1)] + [(6, 2), (6, 6)]
    for n, j in cases:
        report = verify_internonvide(n, j)
        got = (report.ok, report.witnesses, report.positives)
        assert got == _reference_internonvide(n, j), (n, j)


def test_larger_rank_regression():
    # one deliberately heavier run, still around a second
    assert len(enumerate_cycles(6, 6, cap=6)) == 228


def test_rank_six_counts():
    counts = [len(enumerate_cycles(6, s, cap=6)) for s in range(1, 6)]
    assert counts == [6, 30, 63, 163, 253]


def test_rank_seven_counts():
    counts = [len(enumerate_cycles(7, s, cap=7)) for s in range(1, 8)]
    assert counts == [7, 40, 102, 341, 756, 1111, 837]
    # a second method for s = 2: every ordered pair, canonicalized
    raw = enumerate_cycles(7, 2, symmetry=False, cap=7)
    assert len(raw) == 20412
    assert {canonicalize_cycle(c) for c in _one_per_row_set(raw)} == set(
        enumerate_cycles(7, 2, cap=7)
    )


# sha256 of the JSON list of symmetric enumerate_cycles(7, s): the
# reference search without cells checks the output only up to n = 6
RANK_SEVEN_DIGESTS = {
    2: "11c01c666a087e46a22320bd08fc6f3c47e434657d65a9dd71474aabf14515bf",
    3: "1397e3a06ee5182e586aa6e5c25051e6f3929f546c756250141f721010598004",
    4: "1a14e370673b6cb9434881968e59bbf948a0aabea8dd80d39452bcc6327866c4",
    5: "82e04dad4cee66ce0235d5fe42cd812fa992c29afe36741310e4b9f5a106f364",
    6: "03d0f8271e0395354957a1245962ae1307d30c26275c49aa496565810f45c3fe",
    7: "2c53abf8bb581ca0d971c16dbe74e9dc250012af1910353ad538876d3e69a8a2",
}


def test_rank_seven_output_digests():
    for s, want in RANK_SEVEN_DIGESTS.items():
        text = json.dumps([cfg.to_json() for cfg in enumerate_cycles(7, s, cap=7)])
        assert hashlib.sha256(text.encode()).hexdigest() == want, s


def test_rank_eight_counts():
    # confirmed by an orbit-stabilizer mass check: s = 2..5 against the
    # raw tuple count, s = 6 against the least-root count (a one-off
    # run; 1,434,343,680 ordered cycles); s = 7 and 8 by the second
    # canonical order (test_a_second_canonical_order_finds_the_same_classes)
    counts = [len(enumerate_cycles(8, s, cap=8)) for s in range(2, 9)]
    assert counts == [52, 154, 638, 1842, 3823, 4815, 3215]


def test_census_and_enumeration_build_no_key(monkeypatch):
    calls = []
    canonical = oracle.canonicalize_cycle

    def counted(cfg):
        calls.append(cfg.s)
        return canonical(cfg)

    monkeypatch.setattr(oracle, "canonicalize_cycle", counted)
    census(6, cap=6)
    for s in range(2, 8):
        enumerate_cycles(7, s, cap=7)
    assert calls == []


def _prefixes(tables, s):
    """The stream of `_cycle_prefixes(tables, s)` one prefix at a time:
    each prefix (*seq, j) with its closing bitset, in the search's
    order."""
    for seq, closings in _cycle_prefixes(tables, s):
        for j, closing in closings:
            yield (*seq, j), closing


def test_cycle_prefixes_yield_each_walk_node_once():
    # the contract both consumers read, on the pool and on the tables
    # of raw mode: nodes of s - 2 classes in increasing lexicographic
    # order, none without a closing prefix, and j increasing in each.
    # Raw mode at rank 6 stops at s = 4: s = 5..7 walk 1.5 million
    # nodes, some 15 s
    for n in range(1, 7):
        pool = _pool(n)
        m = len(pool.classes)
        everything = (1 << m) - 1
        raw = pool._replace(cuts=(0,) * m, fits=(everything,), not_below=(everything,) * m)
        for tables, top in ((pool, n + 1), (raw, 4 if n == 6 else n + 1)):
            for s in range(2, top + 1):
                nodes = list(_cycle_prefixes(tables, s))
                seqs = [seq for seq, _ in nodes]
                assert all(len(seq) == s - 2 for seq in seqs), (n, s)
                assert all(map(tuple.__lt__, seqs, seqs[1:])), (n, s)
                for seq, closings in nodes:
                    assert closings and all(closing for _, closing in closings), (n, s, seq)
                    js = [j for j, _ in closings]
                    assert all(map(int.__lt__, js, js[1:])), (n, s, seq)


def test_found_cycles_have_columns_sorted_and_accepted_ones_are_keys():
    # the premise of `_canonical_classes`: every cycle the symmetric
    # search finds has its columns in numeric order, and each one it
    # accepts is its own canonical form
    for n in range(2, 8):
        pool = _pool(n)
        rows = pool.rows
        for s in range(2, n + 1):
            for prefix, closing in _prefixes(pool, s):
                for j in _bits(closing):
                    columns = list(zip(*(rows[i] for i in (*prefix, j))))
                    assert columns == sorted(columns), (n, s, prefix, j)
            for cycle in _canonical_classes(pool, s):
                found = CycleConfig(n, tuple(pool.classes[i] for i in cycle), None)
                assert canonicalize_cycle(found) == found, (n, s, cycle)


def _accepted_by_every_order(pool, s):
    """The found cycles that `_canonical_classes` should accept, by its
    definition with no shortcut: the found cycle's (squares, rows) is
    no greater than (squares, column-sorted rows) of each other
    dihedral order, every order sorted in full."""
    rows, sq = pool.rows, pool.squares
    others = _dihedral_orders(s)[1:]
    for prefix, closing in _prefixes(pool, s):
        for j in _bits(closing):
            cycle = (*prefix, j)
            squares = tuple(sq[i] for i in cycle) * 2
            mat = tuple(rows[i] for i in cycle) * 2
            found = (squares[:s], mat[:s])
            if all((squares[o], tuple(zip(*sorted(zip(*mat[o]))))) >= found for o in others):
                yield cycle


def test_acceptance_matches_the_test_over_every_order():
    # the square shortcuts neither drop a canonical cycle nor keep
    # another, and the accepted cycles come in the search's order
    for n in range(2, 8):
        pool = _pool(n)
        for s in range(2, n + 1):
            assert list(_canonical_classes(pool, s)) == list(_accepted_by_every_order(pool, s)), (n, s)


def test_found_and_accepted_counts():
    # the search alone (`_cycle_prefixes`) fixes the found counts, so a
    # change to the acceptance test must leave them as they are; the
    # accepted counts are the class counts for s >= 2.  CI pins the
    # rank-9 found count, 106137
    for n, found, accepted in ((5, 242, 183), (6, 1051, 737), (7, 4736, 3187)):
        pool = _pool(n)
        sizes = range(2, n + 1)
        closings = [c for s in sizes for _, c in _prefixes(pool, s)]
        # only prefixes that some class closes are yielded, at every s
        assert all(closings), n
        assert sum(c.bit_count() for c in closings) == found, n
        assert sum(1 for s in sizes for _ in _canonical_classes(pool, s)) == accepted, n


# a second value order on the coefficients: -2 < 1 < -1 < 0
_SECOND_ORDER = {-2: 0, 1: 1, -1: 2, 0: 3}


def _second_order_classes(n, s, rank_fits=True):
    """The cycles `_canonical_classes` accepts when the pool's rows are
    ranked under `_SECOND_ORDER`, each mapped through
    `canonicalize_cycle`.  The cuts, squares and pairings do not depend
    on the value order, but `fits` does, and it is rebuilt from the
    ranked rows unless `rank_fits` is false.  The search and acceptance
    then aim at each class's least labelling under the second order."""
    pool = _pool(n)
    ranked = tuple(tuple(map(_SECOND_ORDER.__getitem__, row)) for row in pool.rows)
    fits = pool.fits
    if rank_fits:
        # the gaps where each ranked row steps down; a class fits a
        # mask of gaps that holds all of them
        steps = [_mask(k - 1 for k in range(1, n) if row[k] < row[k - 1]) for row in ranked]
        fits = tuple(_mask(i for i, d in enumerate(steps) if not d & ~P) for P in range(1 << (n - 1)))
    tables = pool._replace(rows=ranked, fits=fits)
    return [
        canonicalize_cycle(CycleConfig(n, tuple(map(pool.classes.__getitem__, cycle)), None))
        for cycle in _canonical_classes(tables, s)
    ]


def test_a_second_canonical_order_finds_the_same_classes():
    # the proofs of the search and the acceptance hold for any value
    # order, so under the second one they accept each class once too;
    # CI runs rank 9
    for n in range(2, 9):
        for s in range(2, n + 1):
            got = _second_order_classes(n, s)
            assert len(got) == len(set(got)), (n, s)
            assert set(got) == set(enumerate_cycles(n, s, cap=n)), (n, s)
    # with the rows ranked but `fits` left numeric the search drops
    # classes, against 40, 102, 341, 756, 1111 and 837
    lost = [len(set(_second_order_classes(7, s, rank_fits=False))) for s in range(2, 8)]
    assert lost == [37, 72, 243, 681, 1014, 802]


def _stabilizer_order(rows, orders):
    """How many (label permutation, dihedral order) pairs fix the ordered
    cycle with these rows: for each order giving the same multiset of
    columns, the product of (multiplicity of each column)!."""
    columns = Counter(zip(*rows))
    twice = tuple(rows) * 2
    fixing = prod(map(factorial, columns.values()))
    return sum(fixing for o in orders if Counter(zip(*twice[o])) == columns)


def _orbit_mass(n, s):
    """The size of the union of the S_n x D_s orbits of the symmetric
    classes of cycles of s curves in rank n: the sum over the classes of
    the group order over the class's stabilizer order."""
    orders = _dihedral_orders(s)
    group = factorial(n) * len(orders)
    mass = 0
    for cfg in enumerate_cycles(n, s, cap=n):
        orbit, rest = divmod(group, _stabilizer_order([c.coeffs for c in cfg.curves], orders))
        assert rest == 0, cfg
        mass += orbit
    return mass


def _least_root_raw_count(n, s):
    """The number of ordered cycles of s >= 2 curves in rank n that the
    raw mode lists, counted with one search over tables that keep one
    ordered cycle per set of classes.  Every class is a root and no
    label cell splits, but `not_below[i]` holds only the classes with
    index above i: every class after the root lies above it, so the
    root is the cycle's least index, and the closing prune keeps the
    class after the root below the closing class.  The classes of a
    cycle are pairwise distinct (a class pairs to its negative square
    with itself, two curves of a cycle to 0, 1 or 2), so its 2s
    rotations and reflections are distinct ordered cycles and exactly
    one of them passes both rules; at s = 2 its two rotations are all
    its orders."""
    pool = _pool(n)
    m = len(pool.classes)
    everything = (1 << m) - 1
    above = tuple(everything & ~((2 << i) - 1) for i in range(m))
    tables = pool._replace(cuts=(0,) * m, fits=(everything,), not_below=above)
    found = sum(closing.bit_count() for _, closing in _prefixes(tables, s))
    return found * (2 if s == 2 else 2 * s)


def test_least_root_count_matches_the_raw_mode():
    for n in range(2, 6):
        for s in range(2, n + 1):
            raw = enumerate_cycles(n, s, symmetry=False)
            assert _least_root_raw_count(n, s) == len(raw), (n, s)


def test_orbit_stabilizer_mass_matches_the_raw_count():
    # each class is one orbit of S_n x D_s on the ordered cycles the raw
    # mode lists, so a lost class or a doubled one breaks the sum
    cases = [(n, s) for n in range(1, 6) for s in range(1, n + 1)] + [(6, 2), (6, 3)]
    for n, s in cases:
        assert _orbit_mass(n, s) == len(enumerate_cycles(n, s, symmetry=False, cap=6)), (n, s)
    # further on the least-root count stands in for the raw list; CI
    # checks (7, 5..7) and (8, 4) the same way
    cases = [(6, s) for s in range(4, 7)] + [(7, s) for s in range(2, 5)] + [(8, 2), (8, 3)]
    for n, s in cases:
        assert _orbit_mass(n, s) == _least_root_raw_count(n, s), (n, s)


def _necklaces(n, s):
    """Binary necklaces of length n with s ones (Gilbert and Riordan
    1961): (1/n) sum over d | gcd(n, s) of phi(d) C(n/d, s/d)."""
    g = gcd(n, s)
    phi = [sum(gcd(k, d) == 1 for k in range(1, d + 1)) for d in range(g + 1)]
    return sum(phi[d] * comb(n // d, s // d) for d in range(1, g + 1) if g % d == 0) // n


def _compositions(n, s):
    """The compositions of n into s positive parts, one per choice of
    s - 1 cut points among the n - 1 gaps."""
    for cuts in combinations(range(1, n), s - 1):
        bounds = (0, *cuts, n)
        yield [b - a for a, b in zip(bounds, bounds[1:])]


def test_partition_column_is_the_compositions_up_to_rotation():
    # the theorem proven in cycle.canonical_numbering's docstring: every
    # partition-case cycle of s >= 2 curves is oriented and renumbers to
    # from_selfintersections(|T_i| + 1), the cycle whose tails are
    # consecutive runs of those sizes, and two compositions give one
    # class exactly when they are rotations of each other.  So the
    # partition-case column is the compositions of n into s parts up to
    # rotation, built here independently of the search; up to rotation
    # a composition is a binary necklace with s ones (Gilbert and
    # Riordan 1961), which is the count test_census_columns_match_closed_forms
    # checks
    for n in range(2, 9):
        for s in range(2, n + 1):
            built = {}
            for parts in _compositions(n, s):
                cfg = canonicalize_cycle(from_selfintersections([p + 1 for p in parts]))
                necklace = min(tuple(parts[r:] + parts[:r]) for r in range(s))
                built.setdefault(cfg, set()).add(necklace)
            found = {
                cfg
                for cfg in enumerate_cycles(n, s, cap=8)
                if betti_check(cfg)[0] is CycleVerdict.PARTITION_CASE
            }
            assert built.keys() == found, (n, s)
            # each cycle class comes from one rotation class of
            # compositions, and no two from the same one
            assert all(len(necklaces) == 1 for necklaces in built.values()), (n, s)
            assert len(set().union(*built.values())) == len(found), (n, s)


def test_census_columns_match_closed_forms():
    # the partition-case count is the binary necklace count below s = n
    # and 1 at s = n, by the theorem that
    # test_partition_column_is_the_compositions_up_to_rotation states;
    # OddIH occurs only at s = n, since the value is s + |I| with s and
    # |I| at most n (the theorem in cycle.cycle_class's docstring, which
    # test_value_is_s_plus_the_support_size checks on every class)
    for n in range(1, 9):
        rows = census(n, cap=8)
        partition = {s: c for _, s, v, c in rows if v is CycleVerdict.PARTITION_CASE}
        assert [partition.get(s, 0) for s in range(1, n)] == [
            _necklaces(n, s) for s in range(1, n)
        ], n
        if n >= 2:
            assert partition[n] == 1, n
        assert {s for _, s, v, _ in rows if v is CycleVerdict.ODD_IH} == {n}, n
