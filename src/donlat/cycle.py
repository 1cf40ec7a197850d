"""Cycles of rational curves as lattice configurations.

A cycle of s rational curves is stored as an ordered tuple of classes,
consecutive in the cyclic order.  The shape constraints are purely
numerical:

  * s = 1:  a single class of the -e_I shape (rational curve with one
            node);
  * s = 2:  two curve classes meeting twice (two points of the cycle);
  * s >= 3: consecutive classes meet once, all other pairs are disjoint.

For s >= 2 every class must be type A or type B and at most one type B
may occur.  The pairings above already rule out a second one; the proof
is in `oracle.enumerate_cycles`, whose search has no type B filter.

The central invariant of a cycle C with class sum C is the quantity
s - C.C  (number of curves minus self-intersection), which for
configurations realized on a surface with second Betti number n equals
either n or 2n.  `betti_check` reports which case holds.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate, repeat
from typing import Callable, NamedTuple, Sequence

from .curveclass import NonCurve, TypeA, TypeB, classify, is_nodal_cycle_class
from .errors import (
    BadSelfIntersectionError,
    IndexRangeError,
    InvalidCycleError,
    NotNodalFormError,
    NotPartitionCaseError,
    RankTooSmallError,
    SchemaError,
    SingleCurveError,
)
from .lattice import ClassVector, _check_rank, _class_sum, _mismatches, _pairings, _plain_int, _plain_ints, intersect, square

__all__ = [
    "BettiResult",
    "CycleClass",
    "CycleConfig",
    "CycleReport",
    "CycleVerdict",
    "Violation",
    "betti_check",
    "canonical_numbering",
    "cycle_class",
    "cycle_notation",
    "from_selfintersections",
    "intersection_matrix",
    "odd_ih_cycle",
    "selfintersections",
    "validate_cycle",
]


@dataclass(frozen=True)
class Violation:
    """One violated constraint: stable code plus human-readable detail."""

    code: str
    message: str


@dataclass(frozen=True)
class CycleReport:
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def codes(self) -> tuple[str, ...]:
        return tuple(v.code for v in self.violations)


@dataclass(frozen=True, slots=True)
class CycleConfig:
    """Ordered cycle data: rank, curve classes, optional head numbering.

    `alphas` records the strictly increasing head indices of a
    canonically numbered partition-case cycle; it is None whenever no
    such numbering applies.

    Instances are slotted (no `__dict__`) and keep the `curves` and
    `alphas` tuples they are given; any other iterable, a tuple
    subclass included, is converted to a tuple.  Listings do not run
    the constructor: `_configs` is the one hand-made build path, and
    fills the three slots over a whole listing at C speed.
    """

    n: int
    curves: tuple[ClassVector, ...]
    alphas: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if type(self.curves) is not tuple:
            object.__setattr__(self, "curves", tuple(self.curves))
        if self.alphas is not None and type(self.alphas) is not tuple:
            object.__setattr__(self, "alphas", tuple(self.alphas))

    @property
    def s(self) -> int:
        """Number of curves in the cycle."""
        return len(self.curves)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "curves": [c.to_json() for c in self.curves],
            "alphas": list(self.alphas) if self.alphas is not None else None,
        }

    @classmethod
    def from_json(cls, data: object) -> "CycleConfig":
        if not isinstance(data, dict):
            raise SchemaError(f"expected a cycle object, got {data!r}")
        n = data.get("n")
        if not _plain_int(n) or n < 1:
            raise SchemaError("cycle needs a positive integer 'n'")
        raw = data.get("curves")
        if not isinstance(raw, list) or not raw:
            raise SchemaError("cycle needs a non-empty 'curves' array")
        curves = tuple(ClassVector.from_json(c) for c in raw)
        alphas = data.get("alphas")
        if alphas is not None:
            if not isinstance(alphas, list) or not all(map(_plain_int, alphas)):
                raise SchemaError("'alphas' must be an integer array or null")
        return cls(n, curves, alphas)


# bound after the class statement: the decorator returns a new class
# whose slot descriptors these are
_set_n = CycleConfig.n.__set__
_set_curves = CycleConfig.curves.__set__
_set_alphas = CycleConfig.alphas.__set__


def _configs(n: int, curve_tuples: list[tuple[ClassVector, ...]]) -> tuple[CycleConfig, ...]:
    """CycleConfig(n, c, None) for each curve tuple c, built at C speed:
    `CycleConfig.__new__` makes the bare instances and each slot setter
    is mapped over all of them, so no config runs a Python `__init__`.
    Against a constructor call per config, that took raw
    `enumerate_cycles(5, 4)`, with its 49,200 configs, from a median of
    128 to 97 ms (CPython 3.11, one core of a 2-vCPU VM).
    The result is built as a tuple at once, with no list of configs
    first, which would add its own memory to the listing's peak.

    Nothing here checks or converts, so the caller must pass an n that
    is a plain int (`lattice._plain_int`) and curve tuples that are
    tuples, not a subclass, of `ClassVector`s, as the constructor would
    have made them."""
    k = len(curve_tuples)
    configs = tuple(map(CycleConfig.__new__, repeat(CycleConfig, k)))
    deque(map(_set_n, configs, repeat(n, k)), 0)
    deque(map(_set_curves, configs, curve_tuples), 0)
    deque(map(_set_alphas, configs, repeat(None, k)), 0)
    return configs


def _rank_mismatches(curves: Sequence[ClassVector], n: int, prefix: str = "") -> list[Violation]:
    """One violation per curve that does not fit a rank-n config, in
    order: `not-a-curve`, naming its type, for an entry that is no
    `ClassVector`, and `rank-mismatch` for a curve whose rank is not n.
    An n that is no plain int (see `lattice._plain_int`), such as 3.0 or
    True, is no rank, so every curve mismatches it.  `prefix` goes
    before "curve" ("tree 2 " for a tree's curves)."""
    rank = _plain_int(n)
    bad = []
    for pos, c in enumerate(curves):
        if not isinstance(c, ClassVector):
            bad.append(
                Violation(
                    "not-a-curve", f"{prefix}curve {pos} is a {type(c).__name__}, not a class vector"
                )
            )
        elif not rank or c.n != n:
            bad.append(
                Violation("rank-mismatch", f"{prefix}curve {pos} has rank {c.n}, config says {n!r}")
            )
    return bad


def validate_cycle(cfg: CycleConfig) -> CycleReport:
    """Check every cycle-shape constraint; report rather than raise."""
    if not cfg.curves:
        return CycleReport((Violation("empty", "a cycle needs at least one curve"),))
    bad = _rank_mismatches(cfg.curves, cfg.n)
    if bad:
        # the checks below assume class vectors of one plain-int rank
        return CycleReport(tuple(bad))

    s = cfg.s
    kinds = [classify(c) for c in cfg.curves]
    if cfg.alphas is not None:
        heads = tuple(k.head if isinstance(k, TypeA) else None for k in kinds)
        # every entry must be a plain int, which also refuses alphas
        # equal to heads holding None (a type B curve), and 0.0 or False
        # (equal to a head of 0, but refused by the JSON reader); it is
        # tested first, as `sorted` fails on mixed types
        if not all(map(_plain_int, cfg.alphas)) or cfg.alphas != heads or list(cfg.alphas) != sorted(set(cfg.alphas)):
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
        return CycleReport(tuple(bad))

    for pos, k in enumerate(kinds):
        if isinstance(k, NonCurve):
            bad.append(
                Violation("not-a-curve", f"curve {pos} is not a rational curve class")
            )
    type_b = [pos for pos, k in enumerate(kinds) if isinstance(k, TypeB)]
    if len(type_b) > 1:
        bad.append(
            Violation("two-type-b", f"curves {type_b} all have a -2 head; at most one allowed")
        )

    # the ring pairs meet once, except that at s = 2 the one pair meets twice
    ring = [(i, i + 1) for i in range(s - 1)] + [(0, s - 1)]
    want = dict.fromkeys(ring, 2 if s == 2 else 1)
    for i, j, got, need in _mismatches(_pairings(cfg.curves), want):
        if s == 2:
            code, text = "pair-intersection", "the two curves"
        elif need:
            code, text = "adjacent-intersection", f"consecutive curves {i},{j}"
        else:
            code, text = "nonadjacent-intersection", f"non-consecutive curves {i},{j}"
        bad.append(Violation(code, f"{text} meet {got} times, need {need}"))
    return CycleReport(tuple(bad))


def _checked(report: CycleReport, error: Callable[[str, CycleReport], Exception]) -> None:
    """Raise `error` with the violation messages joined by "; " and the
    report riding along, unless the report holds."""
    if not report.ok:
        raise error("; ".join(v.message for v in report.violations), report)


class CycleClass(NamedTuple):
    vector: ClassVector
    support: frozenset[int]


def cycle_class(cfg: CycleConfig) -> CycleClass:
    """Sum the curve classes and read off C = -e_{I_C}.

    The support I_C may be empty (the class sum of a cycle of
    (-2)-curves covering every index is zero).

    On a valid cycle the sum always has that form.  Every curve class x
    has sum_k (x_k^2 + x_k) = 2: its head gives 1 + 1 or 4 - 2, each -1
    of its tail gives 0.  For two curve classes, as x.y =
    -sum_k x_k y_k, sum_k ((x + y)_k^2 + (x + y)_k) = 4 - 2 x.y.  At
    s = 1 the one curve is nodal, -e_I itself.  At s = 2 the pair meets
    twice.  At s >= 3 the prefix P = D_0 + ... + D_(s-2) is a run of
    neighbours, so a curve class (`oracle.verify_internonvide` proves
    that runs sum to curve classes), and P.D_(s-1) = 2: only D_0 and
    D_(s-2) meet the closing curve.  Either way the cycle class C has
    sum_k (c_k^2 + c_k) = 0.  As c^2 + c > 0 for every integer outside
    {0, -1}, C = -e_I, so C.C = -|I| and `betti_check`'s value s - C.C
    is s + |I|.

    Curves of rank n force |I| = n.  At s >= 2 each curve meets the
    others twice in all, so C.D_j = D_j.D_j + 2 = 2 - k_j for its
    square -k_j, and C = -e_I makes C.D_j the sum of D_j's coefficients
    on I.  Every curve class x has coefficient sum 2 + x.x (1 - |T| for
    e_d - e_T, -2 - |T| for -2 e_d - e_T), so D_j's coefficients
    outside I sum to 0.  A type B curve, and a type A curve with its
    head in I, have no positive coefficient outside I, so they lie
    inside I; a type A curve with its head outside I has exactly one
    tail label outside I.  So on the labels J outside I every curve
    reads 0 or e_d - e_t, and all curves lie in the hyperplane where
    the coefficients on J sum to 0: if J is nonempty their rank is at
    most n - 1.  (`oracle.census` uses this for cycles of n + 1
    curves.)  The error below fires only on unvalidated input.

    Raises:
        NotNodalFormError: some coefficient of the sum is outside {0, -1}.
    """
    total = _class_sum(cfg.curves, cfg.n)
    _, support = is_nodal_cycle_class(total)
    if support is None:
        raise NotNodalFormError(f"cycle class {list(total.coeffs)} has a coefficient outside {{0,-1}}")
    return CycleClass(total, support)


class CycleVerdict(Enum):
    PARTITION_CASE = "PartitionCase"
    ODD_IH = "OddIH"
    INADMISSIBLE = "Inadmissible"


class BettiResult(NamedTuple):
    verdict: CycleVerdict
    value: int


def betti_check(cfg: CycleConfig) -> BettiResult:
    """Compare s - C.C against the rank.

    The count equals the number of curves plus intersection points of
    the cycle minus C.C, i.e. exactly s - C.C.  Verdicts:

      * PartitionCase: value == n and (for s >= 2) every curve is type A
        with the tail sets partitioning [0, n-1]; for s == 1 the curve
        has the -e_I shape, the nodal curve playing the degenerate role.
      * OddIH: value == 2n (the configuration only fits a surface whose
        cycle homology sits with index 2).
      * Inadmissible: anything else.

    Raises:
        RankMismatchError: some curve's rank is not the cycle's n.
    """
    total = _class_sum(cfg.curves, cfg.n)
    value = cfg.s - intersect(total, total)
    return BettiResult(_verdict(value, cfg.n, value == cfg.n and _is_partition(cfg)), value)


def _verdict(value: int, n: int, partition: bool) -> CycleVerdict:
    """The verdict on s - C.C = value at rank n; `partition` tells, when
    value == n, whether the tails partition the labels."""
    # value == n and value == 2n cannot both hold (n >= 1), so order is free
    if value == n and partition:
        return CycleVerdict.PARTITION_CASE
    if value == 2 * n:
        return CycleVerdict.ODD_IH
    return CycleVerdict.INADMISSIBLE


def _is_partition(cfg: CycleConfig) -> bool:
    """For s >= 2, all curves type A and their tails partition [0, n-1];
    for s == 1, the curve is nodal (-e_I with I nonempty)."""
    if cfg.s == 1:
        return is_nodal_cycle_class(cfg.curves[0])[0]
    seen: set[int] = set()
    for c in cfg.curves:
        kind = classify(c)
        if not isinstance(kind, TypeA):
            return False
        if seen & kind.tail:
            return False
        seen |= kind.tail
    return seen == set(range(cfg.n))


def from_selfintersections(ks: Sequence[int]) -> CycleConfig:
    """Build the canonically numbered cycle with prescribed -D_i.D_i.

    For self-intersection opposites (k_0, ..., k_{s-1}), all >= 2, the
    rank is n = sum (k_i - 1), the heads are alpha_0 = 0 and
    alpha_{i+1} = alpha_i + k_i - 1, and curve i is

        e_{alpha_i} - (e_{alpha_i + 1} + ... + e_{alpha_i + k_i - 1}),

    labels taken mod n: its tail is the run of k_i - 1 labels after its
    head, ending at the next head, and the last tail wraps around to 0.

    Raises:
        SingleCurveError: fewer than two entries.
        BadSelfIntersectionError: some entry is no plain int (see
            `lattice._plain_int`), such as 3.0, True or "2", or is
            below 2.
    """
    ks = tuple(ks)
    if len(ks) < 2:
        raise SingleCurveError("need at least two self-intersections")
    if not _plain_ints(ks):
        raise BadSelfIntersectionError(f"self-intersection opposites must be integers, got {ks!r}")
    for k in ks:
        if k < 2:
            raise BadSelfIntersectionError(f"self-intersection opposite {k} below 2")
    n = sum(k - 1 for k in ks)
    alphas = (0, *accumulate(k - 1 for k in ks[:-1]))
    curves = []
    for a, k in zip(alphas, ks):
        # the row read from the head on, then turned to start at label 0
        row = (1,) + (-1,) * (k - 1) + (0,) * (n - k)
        curves.append(ClassVector(row[n - a:] + row[:n - a]))
    return CycleConfig(n, tuple(curves), alphas)


def odd_ih_cycle(n: int) -> CycleConfig:
    """The unique cycle shape containing a type B curve, at rank n >= 2.

    Curves: D_0 = -2 e_1 - e_{[2, n-1]}, then D_j = e_j - e_{j+1} for
    1 <= j <= n-2, and D_{n-1} = e_{n-1} - e_0.  The self-intersection
    opposites come out as (n+2, 2, ..., 2) and s - C.C = 2n.

    Raises:
        IndexRangeError: n is no plain int (see `lattice._plain_int`),
            such as 3.0 or True.
        RankTooSmallError: n is below 2.
    """
    if not _plain_int(n):
        raise IndexRangeError(f"rank must be an integer, got {n!r}")
    if n < 2:
        raise RankTooSmallError(f"need rank >= 2, got {n}")
    curves = [ClassVector((0, -2) + (-1,) * (n - 2))]
    for j in range(1, n - 1):
        curves.append(ClassVector((0,) * j + (1, -1) + (0,) * (n - j - 2)))
    curves.append(ClassVector((-1,) + (0,) * (n - 2) + (1,)))
    return CycleConfig(n, tuple(curves), None)


def selfintersections(cfg: CycleConfig) -> tuple[int, ...]:
    """Self-intersection of each curve, in cycle order (negative values).

    Raises:
        RankMismatchError: some curve's rank is not the cycle's n.
    """
    _check_rank(cfg.curves, cfg.n)
    return tuple(square(c) for c in cfg.curves)


def cycle_notation(cfg: CycleConfig) -> str:
    """Compact display of the self-intersection opposites, e.g. "(522332)".

    Digits are concatenated while every entry stays below 10; larger
    entries switch to comma separation.

    Raises:
        RankMismatchError: some curve's rank is not the cycle's n.
    """
    ks = [-v for v in selfintersections(cfg)]
    if all(k <= 9 for k in ks):
        return "(" + "".join(str(k) for k in ks) + ")"
    return "(" + ",".join(str(k) for k in ks) + ")"


def intersection_matrix(cfg: CycleConfig) -> tuple[tuple[int, ...], ...]:
    """Full pairwise intersection matrix in the stored curve order.

    Raises:
        RankMismatchError: some curve's rank is not the cycle's n.
    """
    diagonal = selfintersections(cfg)
    pairs = _pairings(cfg.curves)
    return tuple(
        tuple(
            diagonal[i] if i == j else pairs.get((min(i, j), max(i, j)), 0)
            for j in range(cfg.s)
        )
        for i in range(cfg.s)
    )


def canonical_numbering(cfg: CycleConfig) -> CycleConfig:
    """Relabel basis indices and rotate a partition-case cycle to the
    canonical head numbering alpha_0 = 0 < alpha_1 < ...

    The output is `from_selfintersections(ks)`, where ks lists the
    -D_i.D_i = |T_i| + 1 in the cycle's orientation (below), from the
    rotation with the lexicographically smallest self-intersections.
    It is in the input's class, so its intersection matrix is the
    input's read in some dihedral order, and the map is idempotent.

    A valid partition-case cycle of s >= 2 curves D_i = e_(h_i) - e_(T_i)
    is one of those, by three steps.

      * It is oriented: either every tail T_i holds the next head
        h_(i+1), or every T_(i+1) holds h_i (indices mod s), and at
        s >= 3 not both.  The tails are disjoint and cover the labels.
        The heads are distinct: h_i = h_j would give D_i.D_j = -1.  So
        D_i.D_j = [h_i in T_j] + [h_j in T_i], and each head lies in
        exactly one tail, never its own.  At s >= 3 non-neighbours pair
        0, so the tail holding h_i is a neighbour's, and a ring pair
        pairs 1, so exactly one of its two heads lies in the other's
        tail.  Each of the s curves thus claims one of its two ring
        pairs and each pair is claimed once: if D_i claims the pair
        (i, i + 1), D_(i+1) must claim (i + 1, i + 2), and so on round
        the ring, so every pair points the same way.  At s = 2 each head
        lies in the other tail, both ways at once.
      * Read in the order where each T_i holds h_(i+1), it renumbers
        to `from_selfintersections(ks)` with k_i = |T_i| + 1.  Send h_0
        to 0, then for i = 0, ..., s - 1 send the labels of T_i other
        than h_(i+1) to the next free labels and h_(i+1) to the one
        after them, alpha_(i+1) (h_s = h_0 is already at 0).  Every
        label lies in exactly one tail, so this is a permutation, and it
        sends each D_i, fixed by its head and tail, to curve i of the
        builder.
      * Two compositions give one class exactly when they are rotations
        of each other.  A rotation of the curves keeps the orientation,
        and so does any label permutation, which keeps each head in its
        tail.  A reflection reverses it, which at s >= 3 no label
        permutation restores (at s = 2 it is a rotation).  So a class
        meets the builder's cycles, which all run forward, only in
        rotations and relabellings of one of them, whose squares are
        rotations of its own.
    Hence the classes of partition-case cycles of s >= 2 curves at rank
    n are the compositions of n into s parts (k_i - 1 = |T_i|) up to
    rotation; `oracle.census` counts them.  At s = 1 the value n forces
    C = -e_I with |I| = n - 1, relabelled onto [1, n - 1].

    Raises:
        NotPartitionCaseError: betti_check does not report PartitionCase.
        InvalidCycleError: cfg fails validate_cycle (checked afterwards,
            so the error above takes precedence).
    """
    verdict, _ = betti_check(cfg)
    if verdict is not CycleVerdict.PARTITION_CASE:
        raise NotPartitionCaseError(f"verdict is {verdict.value}")
    _checked(validate_cycle(cfg), InvalidCycleError)
    if cfg.s == 1:
        return CycleConfig(cfg.n, (ClassVector((0,) + (-1,) * (cfg.n - 1)),), None)
    sq = selfintersections(cfg)
    if cfg.curves[0].coeffs[cfg.curves[1].coeffs.index(1)] != -1:
        # D_0's tail misses D_1's head, so the cycle runs backwards
        sq = sq[::-1]
    # the least rotation, off the sequence written out twice
    s = cfg.s
    sq *= 2
    least = min(sq[r:r + s] for r in range(s))
    return from_selfintersections(tuple(-v for v in least))
