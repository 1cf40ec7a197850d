"""Exhaustive verification over small ranks.

Everything here is exhaustive on purpose: candidate curve classes in
rank n are the n * 2^n vectors of type A or type B shape, and every
cycle, chain and coefficient box is decided so the structural claims
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

The chain sweeps, `verify_chain_dichotomy` and `verify_internonvide`,
decide on the same kind of representatives: the cell rule, placing one
class at a time, meets every orbit of pairs or chains under label
permutations, and relabelling keeps every condition they test.  Three
searches share one depth-first walk, `_walk`, the one place the cell
rule and the chain constraints are written: the cycle search at every
s, the pair sweep of `verify_chain_dichotomy` and the chain sweep of
`verify_internonvide`.  The full orbits are listed only for the pairs
and chains a report returns.
`verify_rational_pattern` sweeps its whole box: the classifier
`curveclass._kind` is what it checks, and deciding one point per orbit
would assume that the classifier treats all labels alike.  So the
classifier runs on every point, in one C-level pass over the box,
while the arithmetic rule is applied only to the points with exactly
one coefficient outside {0, -1}, the only ones where it can hold.

`enumerate_cycles` and `verify_internonvide` build their listings with
the cyclic garbage collector paused (`_collector_paused`).  Every
config, curve tuple and chain they make survives to the result, so with
the collector on its passes only rescan them, and its older passes the
whole heap: a quarter of raw `enumerate_cycles(5, 4)`.  The one young
pass the listing owes is paid before the call returns, so no
collection of its objects is left for the caller.

`enumerate_cycles` and `census` cap the rank (default 5, override via
the DONLAT_CAP environment variable or an explicit argument) to keep
them interactive.  The `verify_*` sweeps take no cap.
"""

from __future__ import annotations

import gc
import os
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, reduce, wraps
from itertools import compress, groupby, permutations, product, repeat
from operator import add, and_, mul, or_, sub
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, NamedTuple, ParamSpec, TypeVar

from .curveclass import CurveKind, TypeA, TypeB, _defect, _kind
from .cycle import CycleConfig, CycleVerdict, _configs, _verdict, selfintersections
from .errors import CapExceededError, IndexRangeError, SchemaError
from .lattice import ClassVector, _ascii_int, _check_indices, _plain_int

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
_P = ParamSpec("_P")
_T = TypeVar("_T")


def effective_cap(cap: int | None = None) -> int:
    """Resolve the enumeration cap: argument, then environment, then 5.
    An argument that is no plain int (see `lattice._plain_int`), such as
    5.5, "5" or True, raises IndexRangeError; an environment value other
    than ASCII digits raises SchemaError.  A cap of 0 or below is
    returned as it is, and refuses every rank."""
    if cap is not None:
        if not _plain_int(cap):
            raise IndexRangeError(f"cap must be a plain int, got {cap!r}")
        return cap
    raw = os.environ.get(_CAP_ENV)
    if raw is None:
        return DEFAULT_CAP
    try:
        return _ascii_int(raw)
    except ValueError:
        raise SchemaError(f"{_CAP_ENV} must be an integer in ASCII digits, got {raw!r}") from None


def candidate_curve_classes(n: int) -> tuple[ClassVector, ...]:
    """Every type A and type B class in rank n, sorted by coefficients.

    Raises:
        IndexRangeError: n is no plain int >= 1.
    """
    _check_indices((), n)
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
    tails: tuple[int, ...]
    squares: tuple[int, ...]
    apart: tuple[int, ...]
    meets_once: tuple[int, ...]
    meets_twice: tuple[int, ...]
    follows: tuple[int, ...]
    type_b: int
    not_below: tuple[int, ...]
    cuts: tuple[int, ...]
    fits: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]
    leads: Mapping[tuple[int, ...], int]
    index: Mapping[tuple[int, ...], int]


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
    the oracle reads instead of building its own: their tails as
    bitsets over basis labels (bit k of `tails[i]` stands for label k)
    and their squares.

    Pairings between classes are kept only as bitsets over class
    indices (bit j stands for class j): `apart[i]`, `meets_once[i]` and
    `meets_twice[i]` hold the classes pairing 0, 1 and 2 with class i,
    `follows[i]` the type A classes meeting class i once with their
    head in its tail (those that may follow it in an oriented chain,
    see `verify_internonvide`), `type_b` the type B classes and
    `not_below[i]` the classes whose square is at least class i's.

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
    test beside `curveclass._kind`.  `index` maps each row to its pool
    index, so a relabelled row finds its class (see `_orbits`).  Both
    are read-only views, as every other table is immutable: the
    memoised pool is shared by all callers.

    Each table has one entry per class, but each bitset over classes
    has a bit per class, so the pool grows as (n 2^n)^2 bits (0.2 MB at
    n = 6, about 3 MB at n = 8) and a cold build still takes about a
    tenth of a second at n = 8.  So the two ranks used last stay
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
    # after[T]: the type A classes with their head in the label set T,
    # one OR per set from the masks of type A classes per head
    after = [0]
    for k in range(n):
        after += [a | groups.get((k, 1), 0) for a in after]
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
        tails,
        squares,
        tuple(apart),
        tuple(meets_once),
        tuple(meets_twice),
        tuple(map(and_, meets_once, map(after.__getitem__, tails))),
        _mask(i for i, (row, h) in enumerate(zip(rows, heads)) if row[h] == -2),
        tuple(map(by_square.__getitem__, squares)),
        cuts,
        tuple(fits),
        rows,
        MappingProxyType({row: row[h] for row, h in zip(rows, heads)}),
        MappingProxyType({row: i for i, row in enumerate(rows)}),
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
    whose sequence of squares is the least.  A cycle of no curves is
    returned as it is.

    Raises:
        RankMismatchError: some curve's rank is not the cycle's n.
    """
    rows = tuple(c.coeffs for c in cfg.curves)
    if not rows:
        return cfg
    orders = _dihedral_orders(len(rows))
    squares = selfintersections(cfg) * 2
    rows *= 2
    least = min(squares[o] for o in orders)
    mat = min(_sorted_columns(rows[o]) for o in orders if squares[o] == least)
    return CycleConfig(cfg.n, tuple(map(ClassVector, mat)), None)


def _sorted_columns(rows: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """The rows with their columns sorted (compared from the top): the
    least matrix a label permutation makes of them."""
    return tuple(zip(*sorted(zip(*rows))))


# --- cycle enumeration ----------------------------------------------------

def _collector_paused(build: Callable[_P, _T]) -> Callable[_P, _T]:
    """`build` run with the cyclic garbage collector off, for calls that
    make many tracked objects that all survive, such as a listing of
    cycles or chains.  With the collector on, each of its young passes
    scans the new objects, and its older passes rescan the whole heap,
    all to free nothing.

    The collector's prior state is restored in a `finally`, so a build
    that raises leaves it on.  Once it is back on, the one young pass the
    build owes is paid at once, `gc.collect(0)`, so the call leaves its
    caller no collection of its objects to run.  A caller that has the
    collector off keeps it off, and the build runs with no pass at all.
    The collector is process-wide: a build that runs while another
    thread turns it off turns it back on when it ends."""

    @wraps(build)
    def paused(*args: _P.args, **kwargs: _P.kwargs) -> _T:
        if not gc.isenabled():
            return build(*args, **kwargs)
        gc.disable()
        try:
            return build(*args, **kwargs)
        finally:
            gc.enable()
            gc.collect(0)

    return paused


@_collector_paused
def enumerate_cycles(
    n: int, s: int, symmetry: bool = True, cap: int | None = None
) -> tuple[CycleConfig, ...]:
    """All cycles of s curves in rank n.

    With symmetry on (the default) the result holds one canonical
    representative per equivalence class under rotation, reflection and
    basis permutation, sorted; with symmetry off every ordered tuple of
    classes passing the cycle constraints is returned.  No cycle has
    more than n + 1 curves (the proof is in `census`), so for s > n + 1
    either mode returns () with no search.

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

    The symmetric search is `_cycle_prefixes`, which prunes only
    through the pool's per-class tables: the cells (`cuts`, `fits`) and
    the squares (`not_below`).  Raw mode walks `_walk` itself, over
    tables that prune nothing (no cuts, one cell that fits every class,
    and no class below another), and lists each cycle as the walk
    reaches it, with no list of (j, closing) pairs per node and no
    second pass over one.  Its closing step is the bare cycle rule: at
    a node seq with free classes `free`, the prefix (*seq, j) closes
    with the classes that meet j once, meet the root once and miss the
    middle, `meets_once[j] & close` with `close = meets_once[seq[0]] &
    free`.  That is the closing step of `_cycle_prefixes`,
    `meets_once[j] & close & fits[cells | cuts[j]] & not_below[...]`,
    under the raw tables: every `cuts` entry is 0, `fits[0]` holds
    every class and so does every `not_below` row.  The nodes, the js
    and the closing classes come in the same order as there, so the
    listing is the one the pruned search over those tables gives, byte
    for byte; the tests pin the two loops against each other.  At s = 2
    the nodes are the roots of a depth-1 walk over `meets_twice`, each
    closed by its `nxt`.  Raw mode looks up each node's classes once,
    appends each j once, and expands `nxt` and each closing set bit by
    bit in place.  Each curve tuple is one concatenation with the added
    class's one-tuple from `ends`, made once per call, where
    `(*curves, x)` would build a list and copy it into a tuple for each
    of the 49,200 configs of raw (5, 4).  Both modes list curve tuples
    only, and make every config of the result in one pass at the end:
    `cycle._configs` fills their slots at C speed, with no Python
    `__init__` per config, and builds the result tuple directly, with
    no list of configs on the way.  Raw mode lists the nodes in
    lexicographic order, each j from the lowest index up and each
    closing class likewise, so the ordered cycles come in lexicographic
    order of their pool indices; `_canonical_classes` visits them in the
    same order.  Both modes build their listing with the cyclic garbage
    collector paused (see `_collector_paused`): each of the 49,200
    configs of raw (5, 4) is a tracked object with a fresh curve tuple,
    all of them survive, and with the collector on they set off 143
    passes, 13 of them older ones, that freed nothing.

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
        IndexRangeError: n or s is no plain int >= 1, symmetry is
            neither True nor False, or cap is neither None nor a plain
            int.
    """
    _within_cap(n, s, cap)
    if type(symmetry) is not bool:
        raise IndexRangeError(f"symmetry must be True or False, got {symmetry!r}")
    if s == 1:
        # the -e_I classes in sorted order: every nonzero row of 0s and
        # -1s, or with symmetry on one per support size
        if symmetry:
            nodal = [(-1,) * r + (0,) * (n - r) for r in range(n, 0, -1)]
        else:
            nodal = list(product((-1, 0), repeat=n))[:-1]
        return _configs(n, [(ClassVector(row),) for row in nodal])

    if s > n + 1:
        # no cycle has more than n + 1 curves (see `census`)
        return ()

    pool = _pool(n)
    cand = pool.classes
    if not symmetry:
        # the walk over tables that prune nothing, listed as it goes:
        # each node's classes are looked up once, each j is appended to
        # them once, and each closing class to that prefix
        m = len(cand)
        everything = (1 << m) - 1
        raw = pool._replace(cuts=(0,) * m, fits=(everything,), not_below=(everything,) * m)
        ends = tuple((c,) for c in cand)
        listing = []
        append = listing.append
        if s == 2:
            # each root closed by the classes meeting it twice
            for (root,), closing, _, _ in _walk(raw, pool.meets_twice, everything, raw.not_below, 1):
                for c in _bits(closing):
                    append(ends[root] + ends[c])
            return _configs(n, listing)
        meets_once = pool.meets_once
        for seq, nxt, free, _ in _walk(raw, meets_once, everything, raw.not_below, s - 2):
            close = meets_once[seq[0]] & free
            head = tuple(map(cand.__getitem__, seq))
            while nxt:
                low = nxt & -nxt
                nxt ^= low
                j = low.bit_length() - 1
                closing = meets_once[j] & close
                if closing:
                    curves = head + ends[j]
                    while closing:
                        low = closing & -closing
                        append(curves + ends[low.bit_length() - 1])
                        closing ^= low
        return _configs(n, listing)

    # each accepted cycle is its own canonical form, and pool indices
    # follow the row order, so (squares, indices) sorts as (squares,
    # rows) does
    sq = pool.squares
    cycles = sorted(_canonical_classes(pool, s), key=lambda c: (tuple(sq[i] for i in c), c))
    return _configs(n, [tuple(map(cand.__getitem__, c)) for c in cycles])


def _within_cap(n: int, s: int, cap: int | None) -> None:
    """Raise unless n and s are plain ints (see `lattice._plain_int`) with
    1 <= n, s <= the cap (see `effective_cap`)."""
    limit = effective_cap(cap)
    if not (_plain_int(n) and _plain_int(s)) or n < 1 or s < 1:
        raise IndexRangeError(f"need n >= 1 and s >= 1, got n={n!r}, s={s!r}")
    if n > limit or s > limit:
        raise CapExceededError(f"n={n}, s={s} exceeds cap {limit}; raise the cap to proceed")


def _walk(
    pool: _Pool, step: tuple[int, ...], roots: int, free: tuple[int, ...], depth: int
) -> Iterable[tuple[tuple[int, ...], int, int, int]]:
    """The depth-first walk of the oracle's three searches: each
    sequence of `depth` pool indices that keeps the rules below once, in
    lexicographic order, as (seq, nxt, free, cells).  The symmetric
    cycle search (`_cycle_prefixes`) and raw `enumerate_cycles`, which
    lists its cycles straight off the walk, both walk through it at
    every s: at s = 2 a lone root with `step` = `meets_twice`, whose
    `nxt` is the closing set.  The pair sweep of
    `verify_chain_dichotomy` walks at depth 1, each root with its
    partners as `nxt`, and the chain sweep of `verify_internonvide` at
    depth j - 1 over `follows`.

    A sequence starts at a root in `roots & fits[0]`.  A class may come
    after its last class `last` when it is in `step[last]` and in
    `free[root]`, pairs 0 with every placed class but `last`, and keeps
    the cell rule of `enumerate_cycles`: it is in `fits[cells]`, where
    `cells` is the OR of the placed classes' `cuts`.  A sequence of
    `depth` classes is yielded only if some class may come after it,
    with `nxt`, the bitset of those classes, and `free`, the classes of
    `free[root]` that pair 0 with every placed class after the root
    (a cycle's closing class meets the root).

    The walk is one loop over a stack for each root.  An entry is
    (head, pending, free, cells): a placed sequence, the bitset of the
    classes still to try after it, and the `free` and `cells` it has
    reached.  The loop pops an entry, pushes the rest of `pending` back
    and places its least class; the longer sequence is pushed when some
    class may come after it and it is shorter than `depth`, and yielded
    when it has `depth` classes.  It is pushed last, so it is expanded
    before the classes left beside it: a depth-first walk in pre-order,
    which meets the sequences in lexicographic order.

    The walk places one class at a time, so the proof in
    `enumerate_cycles` covers it: when label permutations keep `step`,
    `roots` and `free`, it meets every orbit of such sequences under
    them at least once (the sequence with its columns sorted, for one).

    With `step` inside `meets_once` each sequence is a chain (neighbours
    pair 1, all other pairs 0), and no chain has more than n curves:
    the curves of a chain are linearly independent.  Write sigma(x) for
    the coefficient sum of a class x; every curve class has sigma(x) =
    2 + x.x, as both sides read 1 - |T| for e_d - e_T and -2 - |T| for
    -2 e_d - e_T.  Take a chain D_1, ..., D_m of curve classes with
    squares -k_i and Gram matrix G.  The lattice is negative definite,
    so sum_i x_i D_i = 0 exactly when G x = 0, and L = -G is positive
    semidefinite, tridiagonal and irreducible, with -1 off the
    diagonal.  If L were singular, Perron-Frobenius would give a kernel
    vector with every x_i > 0.  Its rows say k_i x_i = x_(i-1) + x_(i+1)
    with x_0 = x_(m+1) = 0, so sum_i k_i x_i = 2 sum_i x_i - x_1 - x_m,
    and sigma(sum_i x_i D_i) = sum_i x_i (2 - k_i) = x_1 + x_m > 0.  But
    that sum is 0.  So G is regular, and m <= n.
    """
    apart, cuts, fits = pool.apart, pool.cuts, pool.fits
    for root in _bits(roots & fits[0]):
        todo = [((), 1 << root, free[root], 0)]
        while todo:
            head, pending, free_, cells = todo.pop()
            low = pending & -pending
            if pending != low:
                todo.append((head, pending ^ low, free_, cells))
            last = low.bit_length() - 1
            seq, cells = head + (last,), cells | cuts[last]
            nxt = step[last] & free_ & fits[cells]
            if head:
                nxt &= apart[root]
                free_ &= apart[last]
            if nxt and len(seq) < depth:
                todo.append((seq, nxt, free_, cells))
            elif nxt:
                yield seq, nxt, free_, cells


def _cycle_prefixes(
    pool: _Pool, s: int
) -> Iterable[tuple[tuple[int, ...], list[tuple[int, int]]]]:
    """The search of `enumerate_cycles` for s >= 2, one `_walk` node at
    a time: each sequence `seq` of s - 2 pool indices once, in
    lexicographic order, with `closings`, the pairs (j, closing) in
    increasing j whose bitset `closing` holds the classes that close
    the prefix (*seq, j) into a cycle and is nonzero.  A node with no
    such pair is not yielded.  At s = 2 the stream is one node, (),
    whose pairs are the roots and the classes meeting them twice.  It
    prunes only through the pool's `cuts`, `fits` and `not_below`
    tables.  Over tables that prune nothing it lists the cycles of raw
    `enumerate_cycles`, which walks on its own with no pair lists; the
    tests compare the two, and read this search over their own tables
    (a least root, a second value order)."""
    meets_once, cuts, fits, not_below = pool.meets_once, pool.cuts, pool.fits, pool.not_below
    # the canonical rotation starts at a minimal square, so some sibling
    # root finds any class with a smaller one: each root's curves are
    # not below it
    if s == 2:
        # each root alone is a prefix, closed by the classes meeting it twice
        walk = _walk(pool, pool.meets_twice, fits[0], not_below, 1)
        closings = [(root, closing) for (root,), closing, _, _ in walk]
        if closings:
            yield (), closings
        return
    for seq, nxt, free, cells in _walk(pool, meets_once, fits[0], not_below, s - 2):
        # each (*seq, j) is a prefix of s - 1 classes, closed by the
        # classes meeting both j and the root; the reflected path closes
        # with the larger of the two squares next to the root and finds
        # any cycle this one drops
        close = meets_once[seq[0]] & free
        closings = [
            (j, closing)
            for j in _bits(nxt)
            if (
                closing := meets_once[j] & close & fits[cells | cuts[j]]
                & not_below[seq[1] if s > 3 else j]
            )
        ]
        if closings:
            yield seq, closings


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

    Squares decide most of that test, a prefix at a time.  The search
    streams its walk nodes (`_cycle_prefixes`), so each node's squares
    and rows are looked up once, and each prefix (*seq, j) extends the
    squares by j's; its rows are built only where a test reads them.
    Write h_0, ..., h_(s-2) for the squares of a prefix and q for the
    closing class's.
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
        smaller one rejects, and only on a tie are the prefix's rows
        built and the reflection's columns sorted.  As q >= h_1 always,
        a greater reverse accepts every closing class of the prefix.
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
    for seq, closings in _cycle_prefixes(pool, s):
        # the node's squares and rows, looked up once for all its prefixes
        seq_sq = tuple(map(sq.__getitem__, seq))
        seq_rows = tuple(map(pool_rows.__getitem__, seq))
        for j, closing in closings:
            head_sq = (*seq_sq, sq[j])
            h0 = head_sq[0]
            if s > 2 and head_sq.count(h0) == 1:
                # only the reflection at the root can tie, and only at q = h1
                h1, middle = head_sq[1], head_sq[2:]
                flipped = middle[::-1]
                wins, ties = flipped > middle, flipped == middle
                if ties:
                    head = (*seq_rows, pool_rows[j])
                    root, turned = head[0], head[:0:-1]
                for c in _bits(closing):
                    row = pool_rows[c]
                    if wins or sq[c] > h1 or ties and _sorted_columns((root, row, *turned)) >= (*head, row):
                        yield (*seq, j, c)
                continue
            head = (*seq_rows, pool_rows[j])
            rivals = [o for p, h in enumerate(head_sq) if h == h0 for o in starting[p]]
            for c in _bits(closing):
                q = sq[c]
                squares, rows = (*head_sq, q), (*head, pool_rows[c])
                squares2, rows2 = squares * 2, rows * 2
                for o in rivals + starting[-1] if q == h0 else rivals:
                    rival = squares2[o]
                    if rival < squares or rival == squares and _sorted_columns(rows2[o]) < rows:
                        break
                else:
                    yield (*seq, j, c)


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

    No cycle has more than n + 1 curves.  At s >= 3 the Gram matrix of
    the curves is cyclic tridiagonal, and a kernel vector x is fixed by
    (x_0, x_1), since its rows give x_(i+1) = k_i x_i - x_(i-1) for the
    squares -k_i.  So the kernel has dimension at most 2.  If it had
    dimension 2, some nonzero kernel vector would have x_0 = 0.  The
    lattice is negative definite, so a kernel vector is a linear
    relation among the curves, here among D_1, ..., D_(s-1), which form
    a chain; but the curves of a chain are linearly independent (the
    proof is in `_walk`).  So the curves of a cycle have rank at least
    s - 1, and s <= n + 1.  The table stops at s = n since the
    rows of s = n + 1 would all read Inadmissible: curves of rank n
    force |I| = n (`cycle.cycle_class`), so an (n + 1)-cycle has the
    value 2n + 1.  They exist: 1, 1, 3, 7, 22 and 66 classes for
    n = 1..6.  Likewise an n-cycle whose curves are independent has
    |I| = n and reads OddIH.  Whether every OddIH n-cycle has
    independent curves is open; up to n = 7 they all do.

    Raises:
        CapExceededError: n exceeds the configured cap.
        IndexRangeError: n is no plain int >= 1, or cap is neither None
            nor a plain int.
    """
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
    every vector of the box, once each and in box order, mapped over the
    box's `product` at C level; a second `product` keeps, through
    `compress`, the points it calls a curve.  Most of the box is no
    curve, and for those points `_kind` returns its shared `NonCurve` of
    the defect, so the sweep builds a `NonCurve` per defect, not one per
    such point.

    The arithmetic rule is applied only where it can hold.  It needs
    exactly one coefficient outside {0, -1}.  A box point with one such
    coefficient has it at some position h, with a value `lead` from the
    box outside {0, -1}, and every other coefficient from `low`, the
    box's values in {0, -1} (only 0 when the bound is 0).  The sweep
    lists every choice of h, lead and other coefficients, so every point
    that meets the rule is on the list and no point off it does; of the
    listed points it keeps those of defect 0.  The witnesses are the
    points where the two sides differ, sorted: `product` over an
    ascending range runs in lexicographic order, so sorting gives the
    order in which a loop over the box would meet them.

    Raises:
        IndexRangeError: n is no plain int >= 1 or coeff_bound no plain
            int >= 0.
    """
    if not (_plain_int(n) and _plain_int(coeff_bound)) or n < 1 or coeff_bound < 0:
        raise IndexRangeError(f"need n >= 1 and coeff_bound >= 0, got {n!r} and {coeff_bound!r}")
    values = range(-coeff_bound, coeff_bound + 1)
    is_curve = map(isinstance, map(_kind, product(values, repeat=n)), repeat((TypeA, TypeB)))
    structural = set(compress(product(values, repeat=n), is_curve))
    low = [v for v in values if v in (0, -1)]
    leads = [v for v in values if v not in (0, -1)]
    points = (
        rest[:h] + (lead,) + rest[h:]
        for h in range(n)
        for lead in leads
        for rest in product(low, repeat=n - 1)
    )
    arithmetic = {coeffs for coeffs in points if _defect(coeffs) == 0}
    witnesses = tuple(map(ClassVector, sorted(structural ^ arithmetic)))
    return SweepReport(not witnesses, witnesses)


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

    The sweep decides on orbit representatives.  A label permutation
    keeps kinds, pairings and the shape of every sum, so a pair fails
    exactly when each pair of its orbit does, and its pairing is the
    orbit's.  `_walk` at depth 1, placing the pair one class at a time
    by the cell rule, meets every orbit of ordered pairs: over
    `meets_once` from every root for the pairs meeting once, and over
    `meets_twice` (then `meets_once` and `apart` for the maximum) with
    roots and partners kept to the type B classes.  Both tests are
    symmetric in the two classes, so these ordered pairs stand for all
    unordered ones, the maximum among them is the maximum over all, and
    `ok` is decided on them.  Only when some representative fails are
    the orbits of the failing ones listed (`_orbits`); each pair i < j
    of them is tested again, as the full sweep would test it, and the
    failing ones are the witnesses, in index order.  A fault planted
    in the pool or the shape table that breaks label symmetry can thus
    go unseen: a failing pair whose orbit's representatives pass is
    never listed.
    """
    pool = _pool(n)
    cand, type_b, rows, leads = pool.classes, pool.type_b, pool.rows, pool.leads
    meets_once, meets_twice = pool.meets_once, pool.meets_twice

    def fault(i: int, j: int) -> CurveKind | int | None:
        # the last entry of the witness if classes i and j pair (by i's
        # bitsets: once, or twice when both are type B) and fail, else None
        both_b = type_b >> i & type_b >> j & 1
        if not (meets_once[i] >> j & 1 or both_b and meets_twice[i] >> j & 1):
            return None
        if both_b:
            return 2 if meets_twice[i] >> j & 1 else 1
        row_sum = tuple(map(add, rows[i], rows[j]))
        lead = leads.get(row_sum, 0)
        # a type B operand forces the type B shape; two type A operands
        # may sum to either shape
        if (lead != -2) if (type_b >> i | type_b >> j) & 1 else (lead == 0):
            return _kind(row_sum)
        return None

    m = len(cand)
    everything = (1 << m) - 1
    only_b = (type_b,) * m
    # the representative pairs meeting once, and the type B ones meeting
    # twice; a class's square is negative, so it never partners itself
    walks = (
        _walk(pool, meets_once, everything, (everything,) * m, 1),
        _walk(pool, meets_twice, type_b, only_b, 1),
    )
    failed = [
        (r, p)
        for walk in walks
        for (r,), nxt, _, _ in walk
        for p in _bits(nxt)
        if fault(r, p) is not None
    ]
    # the greatest of the pairings 2, 1 and 0 that some type B pair has;
    # the pool files no lower one
    hits_by = ((2, meets_twice), (1, meets_once), (0, pool.apart))
    max_bb = next((got for got, hits in hits_by if any(_walk(pool, hits, type_b, only_b, 1))), None)
    witnesses = []
    # each unordered pair of the failing orbits once, lower index first
    for i, j in sorted({(a, b) if a < b else (b, a) for a, b in _orbits(pool, failed)}):
        got = fault(i, j)
        if got is not None:
            witnesses.append((cand[i], cand[j], got))
    return DichotomyReport(not witnesses, tuple(witnesses), max_bb)


def _orbits(pool: _Pool, seqs: Iterable[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Every relabelling of the given sequences of pool indices, each
    once, sorted: the union of their orbits under label permutations.

    A label permutation rearranges the coefficient columns of a
    sequence's rows and maps each curve class to a curve class, so each
    distinct rearrangement of the columns is one member, and the pool's
    `index` finds its classes.  The sorted columns are the same for
    every member of an orbit and differ between orbits, so they name
    it: an orbit that several of the sequences lie in is listed once,
    and distinct orbits share no member.  Each orbit takes n!
    rearrangements, with repeats dropped at C speed: 720 at n = 6 and
    40,320 at n = 8.
    """
    rows, index = pool.rows, pool.index
    named = set()
    members = []
    for seq in seqs:
        columns = sorted(zip(*map(rows.__getitem__, seq)))
        name = tuple(columns)
        if name not in named:
            named.add(name)
            members += (tuple(map(index.__getitem__, zip(*a))) for a in set(permutations(columns)))
    members.sort()
    return members


@_collector_paused
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
    pool's `leads`, which builds no kind object.

    Oriented means numbered the way chains inside cycles always are:
    each class carries the next curve's head in its tail.  A chain
    whose middle curve meets both neighbours through its own head
    admits no such numbering and is excluded.  Orientation is
    essential: an unorientable chain can satisfy (i) while its end
    tails share the middle curve's head on top of the type B index,
    breaking (ii).  So each step is one AND with the pool's `follows`:
    class c may follow class i when it is type A, meets i once and has
    its head in i's tail.  The chains come from `_walk` over `follows`
    from the type A roots, grouped by their first j - 1 curves: each
    such prefix once, with the bitset of the classes that complete it.
    Expanding each prefix by the bits of its bitset, low to high, lists
    the chains in lexicographic order of their pool indices.

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

    The sweep pays per prefix of j - 1 curves, as `_walk` yields them,
    rather than per chain.  Each prefix's row sum, tail OR and
    disjointness are formed from its own curves, and only for yielded
    prefixes.  The prefix sum is the chain less A_(j-1), whatever
    class c completes it, so its lead is looked up once per prefix;
    the chain sum and the chain less A_0 are the prefix sum and the
    prefix sum less A_0, each plus c's row: two tuple additions per
    chain.  For (ii), as computed above, the tail pairs other than the
    ends split into those inside the prefix, which do not depend on c,
    and those of c with a middle curve A_1 .. A_(j-2), which are all
    disjoint exactly when t_c misses the OR of the middle tails.  So
    (ii) holds exactly when the prefix's tails are pairwise disjoint
    (once per prefix), t_0 & t_c is nonzero and t_c & (OR of the
    middle tails) is zero: three bit tests.  With the prefix disjoint,
    that OR is the prefix's OR with t_0's bits removed.  A prefix whose sum is not type A fails (i) with every c,
    and one whose tails are not disjoint fails (ii) with every c; a
    prefix that does both is skipped.

    The sweep decides on orbit representatives.  A label permutation
    keeps kinds, pairings, orientation, the shape of every sum and how
    tails meet, so (i) and (ii) hold on a chain exactly when they hold
    on each chain of its orbit.  `_walk` meets every orbit, so the loop
    runs first over its representative chains.  The orbits of those on
    which (i) or (ii) holds are listed (`_orbits`) and the same loop
    runs again over the members, grouped by prefix: they hold every
    chain on which either condition holds, and each chain listed as a
    witness or a positive has passed the test itself.  Sorted, they
    come out in the order of the full walk.  A fault planted in the
    pool or the shape table that breaks label symmetry can thus go
    unseen: a failing chain whose orbit's representatives meet neither
    condition is never listed.  The chains are listed with the cyclic
    garbage collector paused, as `enumerate_cycles` lists its cycles.
    """
    if not _plain_int(j) or j < 2:
        raise IndexRangeError(f"chains need length >= 2, got {j!r}")
    pool = _pool(n)
    cand = pool.classes
    everything = (1 << len(cand)) - 1
    free = (everything,) * len(cand)
    chains = _walk(pool, pool.follows, everything & ~pool.type_b, free, j - 1)
    marked = [chain for chain, _, _ in _overlaps(pool, chains)]
    # their orbits' members as `_walk` yields chains: each prefix once,
    # with the bitset of the classes that end it
    members = groupby(_orbits(pool, marked), lambda chain: chain[:-1])
    grouped = ((prefix, _mask(chain[-1] for chain in group)) for prefix, group in members)
    witnesses = []
    positives = []
    for chain, cond_i, cond_ii in _overlaps(pool, grouped):
        (witnesses if cond_i != cond_ii else positives).append(tuple(map(cand.__getitem__, chain)))
    return OverlapReport(not witnesses, tuple(witnesses), tuple(positives))


def _overlaps(
    pool: _Pool, prefixes: Iterable[tuple]
) -> Iterable[tuple[tuple[int, ...], bool, bool]]:
    """The per-prefix loop of `verify_internonvide` over chains given as
    `_walk` yields them, each prefix first with the bitset of the
    classes that end it: each chain on which (i) or (ii) holds, in the
    order given, with the two conditions.  Each prefix's row sum, tail
    OR and disjointness are formed from its own curves, one tuple
    addition per curve after the first."""
    rows, tails, leads = pool.rows, pool.tails, pool.leads
    for prefix, ends, *_ in prefixes:
        # the prefix sum is the chain less A_(j-1); less A_0 as well, it
        # is the middle curves' sum
        first = prefix[0]
        less_last, tail_or, disjoint = rows[first], tails[first], True
        for i in prefix[1:]:
            t = tails[i]
            less_last = tuple(map(add, less_last, rows[i]))
            disjoint = disjoint and not tail_or & t
            tail_or |= t
        less_last_a = leads.get(less_last, 0) == 1
        if not (less_last_a or disjoint):
            continue
        middle_sum = tuple(map(sub, less_last, rows[first]))
        t_first = tails[first]
        middle_tails = tail_or ^ t_first
        for c in _bits(ends):
            row, t = rows[c], tails[c]
            # (i) by plain coefficient arithmetic on the rows
            cond_i = (
                less_last_a
                and leads.get(tuple(map(add, less_last, row)), 0) == -2
                and leads.get(tuple(map(add, middle_sum, row)), 0) == 1
            )
            # (ii) on the tail bitsets
            cond_ii = disjoint and bool(t_first & t) and not t & middle_tails
            if cond_i or cond_ii:
                yield (*prefix, c), cond_i, cond_ii
