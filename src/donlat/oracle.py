"""Exhaustive verification over small ranks.

Everything here is brute force on purpose: candidate curve classes in
rank n are the n * 2^n vectors of type A or type B shape, and cycles,
chains and coefficient boxes are swept in full so the structural claims
made elsewhere in the package can be checked rather than trusted.

With symmetry on, the cycle search is an orderly generation (Read
1978, "Every one a winner"; McKay 1998, "Isomorph-free exhaustive
generation"): on basis labels that no placed curve tells apart, each
next curve's coefficients must not decrease, so the search meets each
class in a few labellings.  With no curve placed every label is
interchangeable, so the same rule picks the roots, one per
basis-permutation orbit.  Of the labellings met, exactly one is its
class's canonical form, the one `canonicalize_cycle` returns, and only
that one is accepted (`_canonical_classes`), so each class is counted
once with no table of the classes seen and returned as it was found.
The squares of the curves decide most acceptances: only the rotations
and reflections that start at a least square are tried, and their
columns are sorted only when their squares tie the found cycle's.

`enumerate_cycles` and `census` cap the rank (default 5, override via
the DONLAT_CAP environment variable or an explicit argument) to keep
them interactive.  The `verify_*` sweeps take no cap.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations, product
from operator import add, mul, or_, sub
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

from .curveclass import TypeA, TypeB, _defect, _kind
from .cycle import CycleConfig, CycleVerdict, _verdict
from .errors import CapExceededError, IndexRangeError, SchemaError
from .lattice import ClassVector

__all__ = [
    "DEFAULT_CAP",
    "DichotomyReport",
    "OverlapReport",
    "SweepReport",
    "candidate_curve_classes",
    "canonicalize_cycle",
    "census",
    "effective_cap",
    "enumerate_cycles",
    "verify_chain_dichotomy",
    "verify_internonvide",
    "verify_rational_pattern",
]

DEFAULT_CAP = 5
_CAP_ENV = "DONLAT_CAP"


def effective_cap(cap: int | None = None) -> int:
    """Resolve the enumeration cap: argument, then environment, then 5.
    A non-integer environment value raises SchemaError."""
    if cap is not None:
        return cap
    raw = os.environ.get(_CAP_ENV)
    if raw is None:
        return DEFAULT_CAP
    try:
        return int(raw)
    except ValueError:
        raise SchemaError(f"{_CAP_ENV} must be an integer, got {raw!r}") from None


def candidate_curve_classes(n: int) -> tuple[ClassVector, ...]:
    """Every type A and type B class in rank n, sorted by coefficients."""
    if n < 1:
        raise IndexRangeError(f"rank must be positive, got {n}")
    # each class is its lead, 1 or -2, put at its head into a row of 0s and -1s
    rows = sorted(
        rest[:h] + (lead,) + rest[h:]
        for rest in product((-1, 0), repeat=n - 1)
        for h in range(n)
        for lead in (1, -2)
    )
    return tuple(map(ClassVector, rows))


class _Pool(NamedTuple):
    classes: tuple[ClassVector, ...]
    heads: tuple[int, ...]
    tails: tuple[int, ...]
    squares: tuple[int, ...]
    apart: tuple[int, ...]
    meets_once: tuple[int, ...]
    meets_twice: tuple[int, ...]
    type_b: int
    not_below: tuple[int, ...]
    cuts: tuple[int, ...]
    fits: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]
    leads: Mapping[tuple[int, ...], int]


def _mask(indices: Iterable[int]) -> int:
    """The bitset with the given bits set."""
    return sum(1 << j for j in indices)


def _bits(mask: int) -> Iterable[int]:
    """The bits set in mask, from low to high."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@lru_cache(maxsize=2)
def _pool(n: int) -> _Pool:
    """The candidate classes of rank n with the tables every search of
    the oracle reads instead of building its own: their heads, their
    tails as bitsets over basis labels (bit k of `tails[i]` stands for
    label k) and their squares.

    Pairings between classes are kept only as bitsets over class
    indices (bit j stands for class j): `apart[i]`, `meets_once[i]` and
    `meets_twice[i]` hold the classes pairing 0, 1 and 2 with class i,
    `type_b` the type B classes and `not_below[i]` the classes whose
    square is at least class i's.

    The pairing bitsets come from a closed form.  A class with head h,
    lead l (1 or -2) and tail T pairs with one with head h', lead l'
    and tail T' to

        a.b = -l l' [h = h'] + l [h in T'] + l' [h' in T] - |T & T'|.

    For a fixed class i, the classes j sharing (h', l') and the bit
    [h_i in T_j] share the first three terms, c say, so they pair 0, 1
    or 2 with i exactly when |T_i & T_j| is c, c - 1 or c - 2.  No
    pairing exceeds 2, and no c does either: if h = h', neither head
    lies in the other tail and a.b = c - |T & T'| with c = -l l' and
    l l' in {1, -2, 4}; otherwise c = l [h in T'] + l' [h' in T] <=
    2 as l, l' <= 1.  So only the counts 0, 1 and 2 decide a pairing,
    and three saturating masks hold |T_i & T_j| for every j at once:
    for each label k in T_i, the classes with -1 at k move up from
    `at_least[v - 1]` into `at_least[v]`, v = 3, 2, 1.  The three masks
    of exact counts 0, 1 and 2 then serve every group.  The formula
    gives c = 3 only for h = h' with h in T', a group with no members.

    Cells of basis labels are masks over the n - 1 gaps between
    neighbouring labels, bit k - 1 standing for the gap between labels
    k - 1 and k.  `cuts[i]` holds the gaps where class i's coefficient
    changes.  `fits[P]`, for each such mask P, holds the classes whose
    coefficients never decrease inside any cell that P splits the
    labels into (see `enumerate_cycles`).  `rows[i]` is class i's
    coefficient tuple.

    `leads` maps each row to its lead: 1 for type A, -2 for type B.
    The rows are every curve class of rank n and nothing else, so for
    any rank-n coefficient tuple x, `leads.get(x, 0)` is x's shape: 1
    for type A, -2 for type B and 0 for a non-curve.  The sweeps read
    the shape of their coefficient sums this way, with no second shape
    test beside `curveclass._kind`.  It is a read-only view, as every
    other table is immutable: the memoised pool is shared by all
    callers.

    Each table has one entry per class, but each pairing bitset has a
    bit per class, so the pool grows as (n 2^n)^2 bits (0.2 MB at
    n = 6, about 2 MB at n = 8) and a cold build still takes a few
    tenths of a second at n = 8.  So the two ranks used last stay
    memoised: enough for work that alternates between two ranks, such
    as sweeps at n = 5 and n = 6, and no more, since every rank up
    quadruples the memory.
    """
    cand = candidate_curve_classes(n)
    rows = tuple(c.coeffs for c in cand)
    # every row has its lead, 1 or -2, at the head and -1 on the tail
    heads = tuple(next(k for k, a in enumerate(row) if a not in (0, -1)) for row in rows)
    tails = tuple(_mask(k for k, a in enumerate(row) if a == -1) for row in rows)
    squares = tuple(-sum(map(mul, a, a)) for a in rows)
    everything = (1 << len(rows)) - 1
    # minus[k]: the classes with -1 at label k; groups[h, l]: the
    # classes with head h and lead l
    minus = [_mask(i for i, t in enumerate(tails) if t >> k & 1) for k in range(n)]
    groups: dict[tuple[int, int], int] = {}
    for i, (row, h) in enumerate(zip(rows, heads)):
        groups[h, row[h]] = groups.get((h, row[h]), 0) | 1 << i
    apart, meets_once, meets_twice = [], [], []
    for row, h, T in zip(rows, heads, tails):
        l = row[h]
        # at_least[v]: the classes j with |T & T_j| >= v, saturating at 3
        at_least = [everything, 0, 0, 0]
        for k in _bits(T):
            for v in (3, 2, 1):
                at_least[v] |= at_least[v - 1] & minus[k]
        equal = [at_least[v] & ~at_least[v + 1] for v in range(3)]
        hits = [0, 0, 0]
        for (h2, l2), members in groups.items():
            base = -l * l2 * (h == h2) + l2 * (T >> h2 & 1)
            for part, c in ((members & ~minus[h], base), (members & minus[h], base + l)):
                for p in range(3):
                    # c <= 2 but on the empty part h = h2 with h in T_j
                    if 0 <= c - p <= 2:
                        hits[p] |= part & equal[c - p]
        apart.append(hits[0])
        meets_once.append(hits[1])
        meets_twice.append(hits[2])
    gaps = range(1, n)
    cuts = tuple(_mask(k - 1 for k in gaps if row[k] != row[k - 1]) for row in rows)
    # a class fits P when every gap where its coefficients step down
    # is in P: first file each class under the gaps it needs, then OR
    # each mask's entry into its supersets
    fits = [0] * (1 << (n - 1))
    for i, row in enumerate(rows):
        fits[_mask(k - 1 for k in gaps if row[k] < row[k - 1])] |= 1 << i
    for k in range(n - 1):
        bit = 1 << k
        for P in range(len(fits)):
            if P & bit:
                fits[P] |= fits[P ^ bit]
    # one mask per square value: the n * 2^n classes hold at most 2n
    by_square = {v: _mask(i for i, q in enumerate(squares) if q >= v) for v in set(squares)}
    return _Pool(
        cand,
        heads,
        tails,
        squares,
        tuple(apart),
        tuple(meets_once),
        tuple(meets_twice),
        _mask(i for i, (row, h) in enumerate(zip(rows, heads)) if row[h] == -2),
        tuple(map(by_square.__getitem__, squares)),
        cuts,
        tuple(fits),
        rows,
        MappingProxyType({row: row[h] for row, h in zip(rows, heads)}),
    )


# --- canonical form -------------------------------------------------------

def _dihedral_orders(s: int) -> tuple[slice, ...]:
    """The distinct rotations and reflections of the curve order 0..s-1,
    as slices of that order written out twice (0..s-1, 0..s-1)."""
    rotations = [slice(r, r + s) for r in range(s)]
    if s <= 2:
        # every reflection is a rotation there
        return tuple(rotations)
    return (*rotations, *(slice(r + s, r, -1) for r in range(s)))


def canonicalize_cycle(cfg: CycleConfig) -> CycleConfig:
    """Canonical representative of a cycle under rotation, reflection and
    basis-index permutation; the form enumerate_cycles returns.

    The canonical form is the least (self-intersections, coefficient
    matrix) over the dihedral orders of the curves composed with all
    basis-index permutations, matrices compared row by row.  For a
    fixed curve order the optimal basis permutation just sorts the
    coefficient columns, so only the 2s dihedral orders need explicit
    trying.  The self-intersections are compared first and do not
    depend on the columns, so columns are sorted only for the orders
    whose sequence of squares is the least.
    """
    rows = tuple(c.coeffs for c in cfg.curves)
    orders = _dihedral_orders(len(rows))
    squares = tuple(-sum(map(mul, row, row)) for row in rows) * 2
    rows *= 2
    least = min(squares[o] for o in orders)
    mat = min(_sorted_columns(rows[o]) for o in orders if squares[o] == least)
    return CycleConfig(cfg.n, tuple(map(ClassVector, mat)), None)


def _sorted_columns(rows: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """The rows with their columns sorted (compared from the top): the
    least matrix a label permutation makes of them."""
    return tuple(zip(*sorted(zip(*rows))))


# --- cycle enumeration ----------------------------------------------------

def enumerate_cycles(
    n: int, s: int, symmetry: bool = True, cap: int | None = None
) -> tuple[CycleConfig, ...]:
    """All cycles of s curves in rank n.

    With symmetry on (the default) the result holds one canonical
    representative per equivalence class under rotation, reflection and
    basis permutation, sorted; with symmetry off every ordered tuple of
    classes passing the cycle constraints is returned.

    With symmetry on, the search also breaks the basis-permutation
    symmetry as it goes.  Once some curves are placed, labels whose
    coefficient columns agree over all of them are interchangeable.
    Such labels form runs of consecutive labels ("cells"), and each
    placed curve splits the runs where its coefficients change.  A next
    curve is kept only if its coefficients never decrease inside any
    cell.  This loses no class: permuting the labels inside the cells
    fixes every placed curve and sorts any next curve that way, and
    applied to the rest of the sequence too it gives a sequence of the
    same class that keeps the rule one step further.  The root is no
    exception: with no curve placed all labels form one cell, so the
    rule keeps the type B classes with head 0 and tail {1, ..., t} and
    the type A classes with tail {0, ..., t - 1} and head n - 1
    (`fits[0]`).  A basis permutation maps a class to exactly the
    classes of its shape and tail size, so these are one root per
    orbit.  Pairings, kinds and squares do not change under the
    permutations, so the square prunes compose with the rule.  What is
    left is a few labellings per class, and `_canonical_classes` keeps
    the one that is its class's canonical form.  Squares decide most of
    that test, a prefix at a time, and columns are sorted only for an
    order whose squares tie the found cycle's.  That form is
    `canonicalize_cycle`'s representative, so it is returned as found;
    pool indices follow the order of the rows, so the classes sort by
    their squares, then their indices.

    Both modes run one search, `_cycle_prefixes`, which prunes only
    through the pool's per-class tables: the cells (`cuts`, `fits`) and
    the squares (`not_below`).  Raw mode is the same search over tables
    that prune nothing: no cuts, one cell that fits every class, and no
    class below another.  The raw result lists the closing classes of
    each prefix from the lowest index up, and `_canonical_classes`
    visits them in the same order.

    The search has no one-type-B rule: the pairings already leave at
    most one type B class per cycle, at every node of the search.  Two
    type B classes -2 e_h - e_T and -2 e_h' - e_T' pair to
    -(4[h = h'] + 2[h in T'] + 2[h' in T] + |T & T'|) <= 0.  Each state
    seq + [j] is a chain (neighbours pair 1, all other pairs 0), and so
    is each arc of a found cycle that does not hold both the root and
    the closing class.  Let P = -2 e_h - e_T be type B and D a class
    with P.D = 1.  Then D is type A, D = e_d - e_U, and P.D = 2 D_h +
    [d in T] - |T & U| = 1 leaves two cases: D_h = 0, d in T and T & U
    empty, where P + D = -2 e_h - e_(T - d | U); or d = h and T & U =
    {k}, where P + D = -2 e_k - e_(h | T | U - k).  Either way P + D is
    type B again.  In a chain that starts at a type B class, the sum of
    the first classes pairs 1 with the class after them (only the last
    of them neighbours it), so by induction every such sum is type B
    and every later class type A.  Hence two type B classes are neither
    on one chain nor the root and the closing class, which pair 1; at
    s = 2 they would pair 2.

    Raises:
        CapExceededError: n or s exceeds the configured cap.
        IndexRangeError: n or s below 1.
    """
    _within_cap(n, s, cap)
    if s == 1:
        # the -e_I classes in sorted order: every nonzero row of 0s and
        # -1s, or with symmetry on one per support size
        if symmetry:
            nodal = [(-1,) * r + (0,) * (n - r) for r in range(n, 0, -1)]
        else:
            nodal = list(product((-1, 0), repeat=n))[:-1]
        return tuple(CycleConfig(n, (ClassVector(row),), None) for row in nodal)

    pool = _pool(n)
    cand = pool.classes
    if not symmetry:
        # the same search over tables that prune nothing, in one
        # comprehension: each prefix's classes are looked up once, then
        # each closing class is appended to them
        m = len(cand)
        everything = (1 << m) - 1
        raw = pool._replace(cuts=(0,) * m, fits=(everything,), not_below=(everything,) * m)
        return tuple(
            [
                CycleConfig(n, (*head, cand[j]), None)
                for prefix, closing in _cycle_prefixes(raw, s)
                for head in (tuple(map(cand.__getitem__, prefix)),)
                for j in _bits(closing)
            ]
        )

    # each accepted cycle is its own canonical form, and pool indices
    # follow the row order, so (squares, indices) sorts as (squares,
    # rows) does
    sq = pool.squares
    cycles = sorted(_canonical_classes(pool, s), key=lambda c: (tuple(sq[i] for i in c), c))
    return tuple(CycleConfig(n, tuple(map(cand.__getitem__, c)), None) for c in cycles)


def _within_cap(n: int, s: int, cap: int | None) -> None:
    """Raise unless 1 <= n, s <= the cap (see `effective_cap`)."""
    limit = effective_cap(cap)
    if n < 1 or s < 1:
        raise IndexRangeError(f"need n >= 1 and s >= 1, got n={n}, s={s}")
    if n > limit or s > limit:
        raise CapExceededError(f"n={n}, s={s} exceeds cap {limit}; raise the cap to proceed")


def _cycle_prefixes(pool: _Pool, s: int) -> Iterable[tuple[tuple[int, ...], int]]:
    """The search of `enumerate_cycles` for s >= 2: each prefix of s - 1
    pool indices once, with the bitset of the classes that close it
    into a cycle.  It prunes only through the pool's `cuts`, `fits` and
    `not_below` tables, so tables that prune nothing make it the raw
    search."""
    meets_once, apart = pool.meets_once, pool.apart
    cuts, fits, not_below = pool.cuts, pool.fits, pool.not_below
    if s == 2:
        for f in _bits(fits[0]):
            yield (f,), pool.meets_twice[f] & fits[cuts[f]] & not_below[f]
        return

    def extend(seq: list[int], free: int, cells: int) -> Iterable[tuple[tuple[int, ...], int]]:
        # free: the classes meeting none of the interior curves and not
        # below the root; cells: the gaps between labels some placed
        # curve tells apart
        root, last = seq[0], seq[-1]
        nxt = meets_once[last] & free & fits[cells]
        if len(seq) > 1:
            nxt &= apart[root]
            free &= apart[last]
        if len(seq) < s - 2:
            for j in _bits(nxt):
                seq.append(j)
                yield from extend(seq, free, cells | cuts[j])
                seq.pop()
            return
        # each seq + [j] is a prefix of s - 1 classes, closed by the
        # classes meeting both j and the root; the reflected path closes
        # with the larger of the two squares next to the root and finds
        # any cycle this one drops
        close = meets_once[root] & free
        for j in _bits(nxt):
            closing = meets_once[j] & close & fits[cells | cuts[j]]
            closing &= not_below[seq[1] if len(seq) > 1 else j]
            if closing:
                yield (*seq, j), closing

    for f in _bits(fits[0]):
        # the canonical rotation starts at a minimal square, so some
        # sibling root finds any class with a smaller one
        yield from extend([f], not_below[f], cuts[f])


def _canonical_classes(pool: _Pool, s: int) -> Iterable[tuple[int, ...]]:
    """The classes of cycles of s >= 2 curves, each exactly once: the
    pool indices of the one cycle the symmetric search meets in each
    class that is its own canonical form.

    The canonical form of a cycle is the one `canonicalize_cycle`
    returns: its least (squares, matrix) over the dihedral orders of
    its curves and the permutations of its labels, matrices compared
    row by row, each row from the left.  The squares come first, and
    for a fixed curve order the best label permutation sorts the
    columns (compared from the top).

    Every cycle the search finds already has its columns sorted.  Two
    neighbouring labels share a cell until the first row where their
    columns differ, and in that row the cell rule (see
    `enumerate_cycles`) puts the smaller coefficient at the lower
    label.

    Conversely, the canonical form D_0, ..., D_(s-1) of a class passes
    every rule of the search:
      - its columns are sorted, so inside each cell of the labels that
        the rows above agree on, a row never decreases: the cell rule;
        the root's row never decreases over all labels, `fits[0]`;
      - its squares are the least over the dihedral orders, so D_0's
        square is a least one, the root's prune;
      - they are no greater than those of the reflection D_0, D_(s-1),
        ..., D_1, so D_1.D_1 <= D_(s-1).D_(s-1), the closing prune;
      - it is a cycle, and pairings, kinds and squares are all the
        other rules read.
    The search lists each sequence of pool indices at most once, so it
    meets the canonical form of each class exactly once.  A found cycle
    is that form when no other dihedral order beats it: none has
    smaller squares, and none with the same squares has column-sorted
    rows smaller than the found rows, which need no sort.  So an
    accepted cycle is its own canonical form.

    Squares decide most of that test, a prefix at a time.  Write h_0,
    ..., h_(s-2) for the squares of a prefix and q for the closing
    class's.
      - Only an order that starts at a least square can compete.  The
        root's prune puts every class of the cycle in `not_below[root]`,
        so h_0 is a least square, and an order that starts at a larger
        one loses at its first square.  So only the rotations and
        reflections that start at a position holding h_0 are tested.
      - At s >= 3, say the root holds the only least square of the
        prefix.  The closing prune gives q >= h_1 > h_0, so the root
        holds the only least square of the cycle, and only the
        reflection at the root, D_0, D_(s-1), ..., D_1, can tie.  Its
        squares h_0, q, h_(s-2), ..., h_2, h_1 beat the found ones
        h_0, h_1, h_2, ..., h_(s-2), q at the second place when q > h_1,
        so the found cycle is accepted with no rows built.  When
        q = h_1 the middle squares h_2, ..., h_(s-2) decide, against
        their reverse, once per prefix: a greater reverse accepts, a
        smaller one rejects, and only on a tie are the reflection's
        columns sorted.  As q >= h_1 always, a greater reverse accepts
        every closing class of the prefix.
      - Otherwise the prefix's least-square orders are listed once, and
        the closing class's two orders join them only when q = h_0.
        Each is compared on squares first, and its columns are sorted
        only when the squares tie.  At s = 2 the list is empty, so a
        pair is accepted when q > h_0 and otherwise tested against its
        other rotation.
    """
    pool_rows, sq = pool.rows, pool.squares
    # the dihedral orders other than the found one, by the position
    # they start at
    starting = [[] for _ in range(s)]
    for o in _dihedral_orders(s)[1:]:
        starting[o.start % s].append(o)
    for prefix, closing in _cycle_prefixes(pool, s):
        head_sq = tuple(map(sq.__getitem__, prefix))
        h0 = head_sq[0]
        if s > 2 and head_sq.count(h0) == 1:
            # only the reflection at the root can tie, and only at q = h1
            h1, middle = head_sq[1], head_sq[2:]
            flipped = middle[::-1]
            if flipped > middle:
                for j in _bits(closing):
                    yield (*prefix, j)
            elif flipped < middle:
                for j in _bits(closing):
                    if sq[j] > h1:
                        yield (*prefix, j)
            else:
                head = tuple(map(pool_rows.__getitem__, prefix))
                turned = head[:0:-1]
                for j in _bits(closing):
                    row = pool_rows[j]
                    if sq[j] > h1 or _sorted_columns((head[0], row, *turned)) >= (*head, row):
                        yield (*prefix, j)
            continue
        head = tuple(map(pool_rows.__getitem__, prefix))
        rivals = [o for p, h in enumerate(head_sq) if h == h0 for o in starting[p]]
        for j in _bits(closing):
            q = sq[j]
            squares, rows = (*head_sq, q), (*head, pool_rows[j])
            squares2, rows2 = squares * 2, rows * 2
            for o in rivals + starting[-1] if q == h0 else rivals:
                rival = squares2[o]
                if rival < squares or rival == squares and _sorted_columns(rows2[o]) < rows:
                    break
            else:
                yield (*prefix, j)


def census(n: int, cap: int | None = None) -> tuple[tuple[int, int, CycleVerdict, int], ...]:
    """Count canonical cycles per (s, verdict) for s = 1..n.

    Rows are (n, s, verdict, count) with zero-count combinations
    omitted; the output is deterministic across runs.

    The classes are those of `enumerate_cycles`, and each verdict is
    the one `betti_check` gives, read off the pool data of the cycle
    `_canonical_classes` accepts in the class (the canonical
    representative `enumerate_cycles` returns), as the search streams
    them; no CycleConfig is built.  For s >= 2 the
    pairings of a cycle D_0, ..., D_(s-1) are fixed: at s >= 3 the s
    neighbour pairs meet once and all other pairs are apart, at s = 2
    the one pair meets twice.  Either way
    C.C = sum_i D_i.D_i + 2 sum_(i<j) D_i.D_j = sum_i D_i.D_i + 2s, so

        s - C.C = -s - sum_i D_i.D_i.

    When that value is n, the cycle is the partition case if no curve
    is type B and the tails partition the n labels.  The test reads
    only that the tails cover every label.  A type A square is -1 - |T|
    and a type B square is -4 - |T| (its head, at -2, is in no tail), so

        s - C.C = sum_i |T_i| + 3 (number of type B curves).

    With a type B curve the tails then hold at most n - 3 labels and
    cannot cover all n; with none their sizes sum to n, so tails that
    cover the labels are disjoint.  (`betti_check` tests the kinds and
    disjointness itself, since it also takes cycles that were never
    validated.)  Rotation, reflection and label permutation keep
    whether the tails cover the labels, so any cycle of the class
    decides it.  The partition-case classes are the compositions of n
    into s parts up to rotation, by the proof in
    `cycle.canonical_numbering`.  For s = 1 the classes are -e_I with
    |I| = r for r = n, ..., 1 (see `enumerate_cycles`); C.C = -r gives
    the value 1 + r, and the partition test does not apply.

    Every class has the value s + |I|.  The class of a valid cycle is
    C = -e_I: every curve class x has sum_k (x_k^2 + x_k) = 2, and the
    sum of two has 4 - 2 x.y; the prefix D_0 + ... + D_(s-2) is a curve
    class that meets the closing curve twice (at s = 2 the pair meets
    twice), so sum_k (c_k^2 + c_k) = 0 and every c_k is 0 or -1 (the
    full proof is in `cycle.cycle_class`).  Then C.C = -|I|.  As
    s <= n and |I| <= n, the value 2n of OddIH comes only at s = n,
    with I holding every label, and the partition case needs
    |I| = n - s.

    The range s <= n is a choice, not a theorem.  Cycles of n + 1
    curves exist: 1, 1, 3, 7, 22 and 66 classes for n = 1..6, all with
    |I| = n, so Inadmissible (value 2n + 1).  Whether s <= n + 1 always
    holds, and whether some (n + 1)-cycle has |I| = n - 1 (which would
    read OddIH), is open.

    Raises:
        CapExceededError: n exceeds the configured cap.
        IndexRangeError: n below 1.
    """
    if n < 1:
        raise IndexRangeError(f"rank must be positive, got {n}")
    # a cap error names s = 1, the table's first row
    _within_cap(n, 1, cap)
    labels = (1 << n) - 1
    rows = []
    for s in range(1, n + 1):
        # found[value, covers]: how many classes have that value, and
        # at value n whether their tails cover the labels
        if s == 1:
            found = Counter((1 + r, True) for r in range(n, 0, -1))
        else:
            pool = _pool(n)
            tails, sq = pool.tails, pool.squares
            found = Counter(
                (
                    value := -s - sum(map(sq.__getitem__, cycle)),
                    value == n and reduce(or_, map(tails.__getitem__, cycle)) == labels,
                )
                for cycle in _canonical_classes(pool, s)
            )
        counts = Counter()
        for (value, covers), count in found.items():
            counts[_verdict(value, n, covers)] += count
        rows += [(n, s, verdict, counts[verdict]) for verdict in CycleVerdict if counts[verdict]]
    return tuple(rows)


# --- verification sweeps --------------------------------------------------

@dataclass(frozen=True)
class SweepReport:
    ok: bool
    witnesses: tuple = ()


@dataclass(frozen=True)
class DichotomyReport(SweepReport):
    max_type_b_pairing: int | None = None


@dataclass(frozen=True)
class OverlapReport(SweepReport):
    positives: tuple = ()


def verify_rational_pattern(n: int, coeff_bound: int) -> SweepReport:
    """Sweep the full coefficient box [-bound, bound]^n and compare the
    structural classification against the arithmetic one.

    A vector is arithmetically a rational curve class iff its genus
    defect vanishes and exactly one coefficient falls outside {0, -1};
    the classifier, `curveclass._kind` on the plain coefficient tuples
    (what `classify` reads), must agree on every vector.  Witnesses are
    `ClassVector`s.  Unlike the other sweeps this one does not read the
    shape off the pool: the classifier is what it checks, so it runs on
    every vector of the box.

    Raises:
        IndexRangeError: n below 1 or coeff_bound below 0.
    """
    if n < 1 or coeff_bound < 0:
        raise IndexRangeError(f"need n >= 1 and coeff_bound >= 0, got {n} and {coeff_bound}")
    witnesses = []
    for coeffs in product(range(-coeff_bound, coeff_bound + 1), repeat=n):
        structural = isinstance(_kind(coeffs), (TypeA, TypeB))
        outside = n - coeffs.count(0) - coeffs.count(-1)
        arithmetic = outside == 1 and _defect(coeffs) == 0
        if structural != arithmetic:
            witnesses.append(ClassVector(coeffs))
    return SweepReport(not witnesses, tuple(witnesses))


def verify_chain_dichotomy(n: int) -> DichotomyReport:
    """Check composition over every pair of candidate curve classes.

    For pairs meeting exactly once the sum must classify as a curve
    again, and a type B operand must force a type B sum.  (Two type A
    classes may also fuse to type B; that is how the -2-head of a
    triangle of -3 curves arises.)  This is what `compose_chain` returns
    on such a pair; the sweep reads the pairing and the operand kinds
    from the pool, and the shape of the coefficient sum from the pool's
    `leads`, which builds no kind object.  Only a witness classifies
    its sum, so it carries the sum's `CurveKind`.  For pairs
    of two type B classes the pairing must never be positive, so no two
    of them are neighbours in a cycle (`enumerate_cycles` shows from
    this why no cycle holds two at all); the maximum found is
    reported.  It is read from the pool's bitsets of pairings 0, 1 and
    2, so only the type B pairs meeting once or twice are visited one by
    one.  From n = 2 on the type B classes -2 e_0 and -2 e_1 pair to 0,
    so some type B pair always lands in a bitset; the maximum stays None
    only at n = 1, which has no type B pair.
    """
    pool = _pool(n)
    cand, type_b, rows, leads = pool.classes, pool.type_b, pool.rows, pool.leads
    witnesses = []
    max_bb: int | None = None
    for i, a in enumerate(rows):
        a_is_b = type_b >> i & 1
        later = ~((2 << i) - 1)
        # the classes j > i meeting class i once, and the type B ones
        # meeting it twice when it is type B too
        pairs = pool.meets_once[i] & later
        if a_is_b:
            bb = type_b & later
            # the pool files pairings of 2, 1 and 0; lower ones are left out
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
            # a type B operand forces the type B shape; two type A
            # operands may sum to either shape
            if (lead != -2) if a_is_b or b_is_b else (lead == 0):
                witnesses.append((cand[i], cand[j], _kind(row_sum)))
    return DichotomyReport(not witnesses, tuple(witnesses), max_bb)


def _type_a_chains(n: int, length: int) -> Iterable[tuple[int, ...]]:
    """All oriented chains of `length` type A classes, as tuples of
    indices into `_pool(n).classes`.

    Oriented means numbered the way chains inside cycles always are:
    each class carries the next curve's head in its tail.  A chain
    whose middle curve meets both neighbours through its own head
    admits no such numbering and is excluded.
    """
    pool = _pool(n)
    heads, tails, meets_once, apart = pool.heads, pool.tails, pool.meets_once, pool.apart
    everything = (1 << len(heads)) - 1
    type_a = everything & ~pool.type_b

    def extend(seq: list[int], free: int) -> Iterable[tuple[int, ...]]:
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


def verify_internonvide(n: int, j: int) -> OverlapReport:
    """Sweep all oriented chains of j type A curves and compare two
    conditions:

      (i)  the chain sum is type B while every strict contiguous
           sub-chain sums to type A;
      (ii) the first and last tails overlap in exactly one index, that
           index is nobody's head, and all other tail pairs are
           disjoint.

    The two must agree on every chain; chains where they hold are
    collected in `positives`.  (i) reads each sum's shape from the
    pool's `leads`, which builds no kind object.  Orientation (see
    _type_a_chains) is essential: an unorientable chain can satisfy (i)
    while its end tails share the middle curve's head on top of the
    type B index, breaking (ii).

    (i) needs only three sums: the whole chain and its two maximal
    strict sub-chains, the chain less A_0 and the chain less A_(j-1).
    First, every contiguous run A_p + ... + A_q sums to a curve class.
    If x and y are curve classes with x.y = 1, then sum_k ((x + y)_k^2
    + (x + y)_k) = 2 + 2 - 2 x.y = 2; as c^2 + c is 0 for c in {0, -1},
    2 for c in {1, -2} and at least 6 otherwise, exactly one
    coefficient of x + y is 1 or -2 and the rest are 0 or -1, so x + y
    is a curve class.  A run pairs 1 with A_(q+1) and with A_(p-1),
    since only its end curve neighbours each, so induction on its
    length covers every run.  Second, a type B run stays type B when a
    neighbour is added (P type B and P.D = 1 give P + D type B, see
    `enumerate_cycles`).  A strict run misses A_0 or A_(j-1), so it
    lies inside one of the two maximal ones, and adding neighbours one
    at a time turns it into that one.  So if some strict run were type
    B, one of the two would be too: every strict run is type A exactly
    when those two are.  (`verify_chain_dichotomy` sweeps both facts on
    pool pairs.)

    On oriented chains the clauses "exactly one" and "nobody's head"
    follow from the rest of (ii), so (ii) is computed as that rest: the
    end tails meet and all other tail pairs are disjoint.  Write the
    chain as A_p = e_(d_p) - e_(U_p), with d_(p+1) in U_p; two type A
    classes pair to -[d = d'] + [d in U'] + [d' in U] - |U & U'|.  No
    head lies in its own tail, so d_0 and d_(j-1) miss U_0 & U_(j-1).
    At j = 2, A_0.A_1 = 1 gives |U_0 & U_1| = [d_0 in U_1] <= 1.
    At j >= 3, a head d_p with 2 <= p < j - 1 lies in U_(p-1), which
    misses U_0; and if d_1 lay in U_(j-1), A_1.A_(j-1) would be 1 +
    [d_(j-1) in U_1]: 2 for neighbours at j = 3, at least 1 for
    non-neighbours at j >= 4.  Last, A_0.A_(j-1) = 0 gives
    |U_0 & U_(j-1)| = [d_0 in U_(j-1)] - [d_0 = d_(j-1)], since
    d_(j-1) lies in U_(j-2), which misses U_0; that is at most 1.
    """
    if j < 2:
        raise IndexRangeError(f"chains need length >= 2, got {j}")
    pool = _pool(n)
    cand, pool_rows, leads = pool.classes, pool.rows, pool.leads
    # (ii) compares the tails of every two curves but the two ends
    pairs = [(p, q) for p, q in combinations(range(j), 2) if (p, q) != (0, j - 1)]
    witnesses = []
    positives = []
    for chain in _type_a_chains(n, j):
        # (i) by plain coefficient arithmetic on the rows: the chain
        # sum, and that sum less either end curve
        rows = [pool_rows[i] for i in chain]
        total = tuple(map(sum, zip(*rows)))
        cond_i = leads.get(total, 0) == -2 and all(
            leads.get(tuple(map(sub, total, end)), 0) == 1 for end in (rows[0], rows[-1])
        )

        # (ii) on the tail bitsets
        tails = [pool.tails[i] for i in chain]
        cond_ii = bool(tails[0] & tails[j - 1]) and not any(
            tails[p] & tails[q] for p, q in pairs
        )

        if cond_i != cond_ii:
            witnesses.append(tuple(cand[i] for i in chain))
        elif cond_i:
            positives.append(tuple(cand[i] for i in chain))
    return OverlapReport(not witnesses, tuple(witnesses), tuple(positives))
