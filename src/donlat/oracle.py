"""Exhaustive verification over small ranks.

Everything here is brute force on purpose: candidate curve classes in
rank n are the n * 2^n vectors of type A or type B shape, and cycles,
chains and coefficient boxes are swept in full so the structural claims
made elsewhere in the package can be checked rather than trusted.

The search spaces factor over the first curve of a configuration;
partitions are independent and their results merge deterministically by
sorting canonical forms, so the sweeps parallelize trivially even
though this implementation walks them sequentially.

Ranks are capped (default 5, override via the DONLAT_CAP environment
variable or an explicit argument) to keep everything interactive.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from typing import Callable, Iterable, Sequence

from .curveclass import (
    CurveKind,
    NonCurve,
    TypeA,
    TypeB,
    classify,
    compose_chain,
    genus_defect,
)
from .cycle import CycleConfig, CycleVerdict, betti_check
from .errors import CapExceededError, IndexRangeError
from .lattice import ClassVector, intersect, zero

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
    """Resolve the enumeration cap: argument, then environment, then 5."""
    if cap is not None:
        return cap
    raw = os.environ.get(_CAP_ENV)
    if raw is None:
        return DEFAULT_CAP
    try:
        return int(raw)
    except ValueError:
        raise CapExceededError(f"{_CAP_ENV} must be an integer, got {raw!r}") from None


def candidate_curve_classes(n: int) -> tuple[ClassVector, ...]:
    """Every type A and type B class in rank n, sorted by coefficients."""
    if n < 1:
        raise IndexRangeError(f"rank must be positive, got {n}")
    out = []
    for head in range(n):
        others = [j for j in range(n) if j != head]
        for r in range(len(others) + 1):
            for tail in combinations(others, r):
                for lead in (1, -2):
                    coeffs = [0] * n
                    coeffs[head] = lead
                    for j in tail:
                        coeffs[j] = -1
                    out.append(ClassVector(tuple(coeffs)))
    out.sort(key=lambda c: c.coeffs)
    return tuple(out)


@lru_cache(maxsize=None)
def _pool(n: int) -> tuple[tuple, tuple, tuple, tuple]:
    """(classes, kinds, pairing, adjacent) for rank n: the candidate
    classes, their `classify` kinds, the table of their pairwise
    `intersect` values and, per class, the indices meeting it once.

    Every search of the oracle reads these instead of building its own.
    One table is kept for each rank asked for, (n * 2^n)^2 small ints:
    147,456 at n = 6.
    """
    cand = candidate_curve_classes(n)
    pairing = tuple(tuple(intersect(a, b) for b in cand) for a in cand)
    return (
        cand,
        tuple(classify(c) for c in cand),
        pairing,
        tuple(tuple(j for j, p in enumerate(row) if p == 1) for row in pairing),
    )


def _orbit_roots(kinds: Sequence[CurveKind]) -> list[int]:
    """Indices of the classes with head 0 and tail {1, ..., t}.

    A basis permutation maps a class to exactly the classes of the same
    shape and tail size, so these are one class from each orbit.
    """
    return [
        i
        for i, k in enumerate(kinds)
        if k.head == 0 and k.tail == set(range(1, len(k.tail) + 1))
    ]


# --- canonical form -------------------------------------------------------

def _canonical_key(
    rows: Sequence[tuple[int, ...]]
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Minimal (self-intersections, coefficient matrix) over the dihedral
    action on curve order composed with all basis-index permutations.

    For a fixed curve order the optimal basis permutation just sorts the
    coefficient columns by their column tuples, so only the 2s dihedral
    orders need explicit trying.
    """
    s = len(rows)
    n = len(rows[0])
    if s == 1:
        orders: Iterable[tuple[int, ...]] = [(0,)]
    elif s == 2:
        orders = [(0, 1), (1, 0)]
    else:
        orders = [
            tuple((r + d * i) % s for i in range(s))
            for r in range(s)
            for d in (1, -1)
        ]
    best = None
    for order in orders:
        mat = [rows[i] for i in order]
        selfs = tuple(-sum(a * a for a in row) for row in mat)
        cols = sorted(range(n), key=lambda j: tuple(mat[r][j] for r in range(s)))
        arranged = tuple(tuple(mat[r][j] for j in cols) for r in range(s))
        key = (selfs, arranged)
        if best is None or key < best:
            best = key
    assert best is not None
    return best


def canonicalize_cycle(cfg: CycleConfig) -> CycleConfig:
    """Canonical representative of a cycle under rotation, reflection and
    basis-index permutation; the dedup key used by enumerate_cycles."""
    _, mat = _canonical_key([c.coeffs for c in cfg.curves])
    return CycleConfig(cfg.n, tuple(ClassVector(row) for row in mat), None)


# --- cycle enumeration ----------------------------------------------------

def enumerate_cycles(
    n: int, s: int, symmetry: bool = True, cap: int | None = None
) -> tuple[CycleConfig, ...]:
    """All cycles of s curves in rank n.

    With symmetry on (the default) the result holds one canonical
    representative per equivalence class under rotation, reflection and
    basis permutation, sorted; with symmetry off every ordered tuple of
    classes passing the cycle constraints is returned.

    Raises:
        CapExceededError: n or s exceeds the configured cap.
        IndexRangeError: n or s below 1.
    """
    limit = effective_cap(cap)
    if n < 1 or s < 1:
        raise IndexRangeError(f"need n >= 1 and s >= 1, got n={n}, s={s}")
    if n > limit or s > limit:
        raise CapExceededError(f"n={n}, s={s} exceeds cap {limit}; raise the cap to proceed")

    if s == 1:
        if symmetry:
            supports: Iterable[Sequence[int]] = [list(range(r)) for r in range(1, n + 1)]
        else:
            supports = [
                list(sub)
                for r in range(1, n + 1)
                for sub in combinations(range(n), r)
            ]
        configs = []
        for I in supports:
            coeffs = [0] * n
            for j in I:
                coeffs[j] = -1
            configs.append(CycleConfig(n, (ClassVector(tuple(coeffs)),), None))
        configs.sort(key=lambda c: c.curves[0].coeffs)
        return tuple(configs)

    cand, kinds, pairing, adjacent = _pool(n)
    m = len(cand)
    is_b = [isinstance(k, TypeB) for k in kinds]
    sq = [pairing[i][i] for i in range(m)]
    first_pool = _orbit_roots(kinds) if symmetry else range(m)

    def found() -> Iterable[tuple[int, ...]]:
        if s == 2:
            for f in first_pool:
                for j in range(m):
                    if j != f and pairing[f][j] == 2 and is_b[f] + is_b[j] <= 1:
                        yield (f, j)
            return

        def extend(seq: list[int], b_count: int) -> Iterable[tuple[int, ...]]:
            k = len(seq)
            if k == s:
                yield tuple(seq)
                return
            closing = k == s - 1
            for j in adjacent[seq[-1]]:
                if b_count + is_b[j] > 1:
                    continue
                if symmetry and sq[j] < sq[seq[0]]:
                    # the canonical rotation starts at a minimal square,
                    # so some sibling path finds this class anyway
                    continue
                if symmetry and closing and sq[j] < sq[seq[1]]:
                    # likewise the reflected path, which closes with the
                    # larger of the two squares next to the root
                    continue
                if k > 1 and pairing[seq[0]][j] != (1 if closing else 0):
                    continue
                if any(pairing[seq[p]][j] != 0 for p in range(1, k - 1)):
                    continue
                seq.append(j)
                yield from extend(seq, b_count + is_b[j])
                seq.pop()

        for f in first_pool:
            yield from extend([f], 1 if is_b[f] else 0)

    if not symmetry:
        return tuple(CycleConfig(n, tuple(cand[i] for i in seq), None) for seq in found())

    # a set of classes closes into a cycle in only one dihedral order,
    # so the row set alone already identifies the rotation/reflection
    # class and the expensive key runs once per candidate class set
    canon: dict[tuple, CycleConfig] = {}
    seen_rows: set[frozenset] = set()
    for seq in found():
        rows = frozenset(cand[i].coeffs for i in seq)
        if rows in seen_rows:
            continue
        seen_rows.add(rows)
        key = _canonical_key([cand[i].coeffs for i in seq])
        if key not in canon:
            canon[key] = CycleConfig(n, tuple(ClassVector(row) for row in key[1]), None)
    return tuple(canon[k] for k in sorted(canon))


def census(n: int, cap: int | None = None) -> tuple[tuple[int, int, CycleVerdict, int], ...]:
    """Count canonical cycles per (s, verdict) for s = 1..n.

    Rows are (n, s, verdict, count) with zero-count combinations
    omitted; the output is deterministic across runs.

    Raises:
        CapExceededError: n exceeds the configured cap.
        IndexRangeError: n below 1.
    """
    if n < 1:
        raise IndexRangeError(f"rank must be positive, got {n}")
    rows = []
    for s in range(1, n + 1):
        counts: dict[CycleVerdict, int] = {}
        for cfg in enumerate_cycles(n, s, symmetry=True, cap=cap):
            verdict, _ = betti_check(cfg)
            counts[verdict] = counts.get(verdict, 0) + 1
        for verdict in CycleVerdict:
            if counts.get(verdict):
                rows.append((n, s, verdict, counts[verdict]))
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


def verify_rational_pattern(
    n: int, coeff_bound: int, classifier: Callable[[ClassVector], CurveKind] = classify
) -> SweepReport:
    """Sweep the full coefficient box [-bound, bound]^n and compare the
    structural classification against the arithmetic one.

    A vector is arithmetically a rational curve class iff its genus
    defect vanishes and exactly one coefficient falls outside {0, -1};
    the classifier must agree on every vector.  Passing a deliberately
    broken classifier demonstrates that the sweep catches it.
    """
    witnesses = []
    for coeffs in product(range(-coeff_bound, coeff_bound + 1), repeat=n):
        v = ClassVector(coeffs)
        structural = isinstance(classifier(v), (TypeA, TypeB))
        outside = sum(1 for a in coeffs if a not in (0, -1))
        arithmetic = genus_defect(v) == 0 and outside == 1
        if structural != arithmetic:
            witnesses.append(v)
    return SweepReport(not witnesses, tuple(witnesses))


def verify_chain_dichotomy(n: int) -> DichotomyReport:
    """Check composition over every pair of candidate curve classes.

    For pairs meeting exactly once the sum must classify as a curve
    again, and a type B operand must force a type B sum.  (Two type A
    classes may also fuse to type B; that is how the -2-head of a
    triangle of -3 curves arises.)  For pairs of two type B classes the
    pairing must never be positive (which is why a cycle cannot hold
    two of them); the maximum found is reported.
    """
    cand, kinds, pairing, _ = _pool(n)
    witnesses = []
    max_bb: int | None = None
    for i, (a, ka) in enumerate(zip(cand, kinds)):
        for j in range(i + 1, len(cand)):
            b, kb, got = cand[j], kinds[j], pairing[i][j]
            if isinstance(ka, TypeB) and isinstance(kb, TypeB):
                max_bb = got if max_bb is None else max(max_bb, got)
                if got > 0:
                    witnesses.append((a, b, got))
                continue
            if got != 1:
                continue
            merged = compose_chain(a, b)
            if isinstance(merged, NonCurve):
                witnesses.append((a, b, merged))
            elif (isinstance(ka, TypeB) or isinstance(kb, TypeB)) and not isinstance(
                merged, TypeB
            ):
                witnesses.append((a, b, merged))
    return DichotomyReport(not witnesses, tuple(witnesses), max_bb)


def _type_a_chains(n: int, length: int) -> Iterable[tuple[ClassVector, ...]]:
    """All oriented chains of `length` type A classes.

    Oriented means numbered the way chains inside cycles always are:
    each class carries the next curve's head in its tail.  A chain
    whose middle curve meets both neighbours through its own head
    admits no such numbering and is excluded.
    """
    cand, kinds, pairing, adjacent = _pool(n)
    is_a = [isinstance(k, TypeA) for k in kinds]

    def extend(seq: list[int]):
        if len(seq) == length:
            yield tuple(cand[i] for i in seq)
            return
        last = seq[-1]
        for j in adjacent[last]:
            if not is_a[j] or kinds[j].head not in kinds[last].tail:
                continue
            if any(pairing[p][j] != 0 for p in seq[:-1]):
                continue
            seq.append(j)
            yield from extend(seq)
            seq.pop()

    for root in range(len(cand)):
        if is_a[root]:
            yield from extend([root])


def verify_internonvide(n: int, j: int) -> OverlapReport:
    """Sweep all oriented chains of j type A curves and compare two
    conditions:

      (i)  the chain sum is type B while every strict contiguous
           sub-chain sums to type A;
      (ii) the first and last tails overlap in exactly one index, that
           index is nobody's head, and all other tail pairs are
           disjoint.

    The two must agree on every chain; chains where they hold are
    collected in `positives`.  Orientation (see _type_a_chains) is
    essential: an unorientable chain can satisfy (i) while its end
    tails share the middle curve's head on top of the type B index,
    breaking (ii).
    """
    if j < 2:
        raise IndexRangeError(f"chains need length >= 2, got {j}")
    witnesses = []
    positives = []
    for chain in _type_a_chains(n, j):
        kinds = [classify(c) for c in chain]
        heads = {k.head for k in kinds}
        tails = [k.tail for k in kinds]

        prefix = [zero(n)]
        for c in chain:
            prefix.append(prefix[-1] + c)
        cond_i = isinstance(classify(prefix[j] - prefix[0]), TypeB)
        if cond_i:
            for p in range(j):
                for q in range(p, j):
                    if q - p + 1 == j:
                        continue
                    if not isinstance(classify(prefix[q + 1] - prefix[p]), TypeA):
                        cond_i = False
                        break
                if not cond_i:
                    break

        overlap = tails[0] & tails[j - 1]
        cond_ii = len(overlap) == 1 and not (overlap & heads)
        if cond_ii:
            for p in range(j):
                for q in range(p + 1, j):
                    if (p, q) == (0, j - 1):
                        continue
                    if tails[p] & tails[q]:
                        cond_ii = False
                        break
                if not cond_ii:
                    break

        if cond_i != cond_ii:
            witnesses.append(chain)
        elif cond_i:
            positives.append(chain)
    return OverlapReport(not witnesses, tuple(witnesses), tuple(positives))
