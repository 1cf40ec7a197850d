"""Exact integer arithmetic in a rank-n lattice with anti-diagonal pairing.

The lattice H is free of rank n over the integers with a distinguished
basis e_0, ..., e_{n-1} satisfying

    e_i . e_j = -delta_ij

so the intersection form is the negative of the standard inner product
and is negative definite.  Every class is stored as the tuple of its
integer coordinates in that basis.  Python integers are unbounded, so
no overflow handling is needed anywhere.

Shorthand used throughout the package: for an index set I,
e_I := sum of e_i over i in I, and the class -e_I therefore has
coefficient -1 exactly on I.

The package's rank and label rules are written once, in two helpers
here: `_check_indices` (a rank is a plain int >= 1, a label a plain int
in [0, n-1]; else `IndexRangeError`) and `_check_rank` (classes share
a rank; else `RankMismatchError`).  A cycle position obeys the label
rule, `_in_range`, with the number of curves in place of n.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, count
from operator import mul, sub
from typing import Iterable, Iterator, Sequence

from .errors import IndexRangeError, RankMismatchError, SchemaError

__all__ = [
    "ClassVector",
    "add",
    "basis",
    "e_sum",
    "intersect",
    "negate",
    "pullback_double_cover",
    "square",
    "zero",
]


@dataclass(frozen=True)
class ClassVector:
    """Immutable lattice class; the rank is the length of `coeffs`."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(self.coeffs)
        if not _plain_ints(coeffs):
            bad = next(c for c in coeffs if not _plain_int(c))
            raise TypeError(f"coefficients must be integers, got {bad!r}")
        if not coeffs:
            raise ValueError("rank must be positive")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def n(self) -> int:
        """Rank of the ambient lattice."""
        return len(self.coeffs)

    def __iter__(self) -> Iterator[int]:
        return iter(self.coeffs)

    def __add__(self, other: "ClassVector") -> "ClassVector":
        return add(self, other)

    def __sub__(self, other: "ClassVector") -> "ClassVector":
        _check_rank((other,), self.n)
        return ClassVector(tuple(map(sub, self.coeffs, other.coeffs)))

    def __neg__(self) -> "ClassVector":
        return negate(self)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def to_json(self) -> list[int]:
        """JSON form: plain array of integers."""
        return list(self.coeffs)

    @classmethod
    def from_json(cls, data: object) -> "ClassVector":
        """Parse a JSON int array, rejecting anything else.

        Raises:
            SchemaError: not a non-empty array of integers.
        """
        if not isinstance(data, list) or not data:
            raise SchemaError(f"expected a non-empty integer array, got {data!r}")
        if not _plain_ints(data):
            bad = next(c for c in data if not _plain_int(c))
            raise SchemaError(f"expected integer coefficients, got {bad!r}")
        return cls(tuple(data))


def _plain_int(x: object) -> bool:
    """Whether x is an int and not a bool.  bool is an int subclass, so
    without this test a JSON true or false would pass as 1 or 0."""
    return isinstance(x, int) and not isinstance(x, bool)


def _ascii_int(text: str) -> int:
    """The integer that text writes in ASCII digits.  int() alone would
    also take signs, spaces, underscores and non-ASCII digits.

    Raises:
        ValueError: text is not all ASCII digits, or has more digits
            than int() converts (its own error).
    """
    if not (text.isascii() and text.isdigit()):
        raise ValueError(text)
    return int(text)


_INT_ONLY = frozenset((int,))


def _plain_ints(coeffs: Sequence[object]) -> bool:
    """Whether every coefficient passes `_plain_int`.  A coefficient of
    type exactly int does, so the common row is decided by one pass at
    C level over the coefficients' types; only a row holding another
    type (bool, an int subclass, anything else) is tested one by one."""
    return _INT_ONLY.issuperset(map(type, coeffs)) or all(map(_plain_int, coeffs))


def _in_range(i: object, n: int) -> bool:
    """Whether i is a plain int (see `_plain_int`) in [0, n-1]: a label
    of rank n, or a position of a cycle of n curves."""
    return _plain_int(i) and 0 <= i < n


def _check_indices(indices: Iterable[object], n: object) -> None:
    """Raise unless n is a plain int >= 1 and each index is in range
    (see `_in_range`): the one gate for ranks and basis labels.

    Raises:
        IndexRangeError: n or some index fails the rule.
    """
    if not _plain_int(n) or n < 1:
        raise IndexRangeError(f"rank must be a positive integer, got {n!r}")
    for i in indices:
        if not _in_range(i, n):
            raise IndexRangeError(f"index {i!r} outside [0, {n - 1}]")


def _check_rank(classes: Iterable[ClassVector], n: int) -> None:
    """Raise unless every class has rank n: the one rank-agreement rule.

    Raises:
        RankMismatchError: some class's rank is not n.
    """
    for x in classes:
        if len(x.coeffs) != n:
            raise RankMismatchError(f"rank mismatch: {n} vs {len(x.coeffs)}")


def zero(n: int) -> ClassVector:
    """The zero class in rank n."""
    return _class_sum((), n)


def basis(i: int, n: int) -> ClassVector:
    """The basis class e_i in rank n."""
    return e_sum((i,), n)


def e_sum(indices: Iterable[int], n: int) -> ClassVector:
    """e_I: the sum of basis classes over an index set.

    Args:
        indices: index set I (duplicates collapse, order irrelevant).
        n: ambient rank.

    Raises:
        IndexRangeError: n or some index fails `_check_indices`.
    """
    labels = tuple(indices)
    _check_indices(labels, n)
    mark = [0] * n
    for i in labels:
        mark[i] = 1
    return ClassVector(tuple(mark))


def add(x: ClassVector, y: ClassVector) -> ClassVector:
    """Componentwise sum; both operands must share a rank."""
    return _class_sum((x, y), x.n)


def _class_sum(classes: Sequence[ClassVector], n: int) -> ClassVector:
    """The sum of classes of rank n, built as one ClassVector from the
    column sums of their coefficients; the zero class when there are none.

    Raises:
        IndexRangeError: n is no plain int >= 1.
        RankMismatchError: some class's rank is not n.
    """
    _check_indices((), n)
    _check_rank(classes, n)
    rows = [x.coeffs for x in classes]
    return ClassVector(tuple(map(sum, zip(*rows))) if rows else (0,) * n)


def negate(x: ClassVector) -> ClassVector:
    return ClassVector(tuple(-a for a in x.coeffs))


def intersect(x: ClassVector, y: ClassVector) -> int:
    """Intersection number x . y = -sum_k x_k y_k.

    Symmetric, bilinear and negative definite: intersect(x, x) <= -1
    for every nonzero x.

    Raises:
        RankMismatchError: operands live in different ranks.
    """
    _check_rank((y,), x.n)
    return -sum(map(mul, x.coeffs, y.coeffs))


def _pairings(curves: Sequence[ClassVector]) -> dict[tuple[int, int], int]:
    """Every nonzero pairing curves[i] . curves[j] with i < j, keyed (i, j).

    A sparse Gram product: each curve's nonzero coefficients are matched
    against the earlier curves that are nonzero at the same basis index.
    `compress` skips the zeros at C level, and the columns are keyed by
    the basis indices met, so the Python-level work grows with the
    nonzero coefficients and the pairs that share an index, not with the
    rank or the square of the number of curves.  A pair missing from the
    result pairs to 0.

    Raises:
        RankMismatchError: some curve's rank differs from the first's.
    """
    n = len(curves[0].coeffs) if curves else 0
    _check_rank(curves, n)
    column: dict[int, list[tuple[int, int]]] = {}
    out: dict[tuple[int, int], int] = {}
    for j, y in enumerate(curves):
        coeffs = y.coeffs
        row: dict[int, int] = {}
        for k in compress(count(), coeffs):
            b = coeffs[k]
            earlier = column.get(k)
            if earlier is None:
                column[k] = [(j, b)]
                continue
            for i, a in earlier:
                row[i] = row.get(i, 0) - a * b
            earlier.append((j, b))
        for i, got in row.items():
            if got:
                out[i, j] = got
    return out


def _mismatches(
    pairs: dict[tuple[int, int], int], want: dict[tuple[int, int], int]
) -> Iterator[tuple[int, int, int, int]]:
    """Each pair whose pairing in `pairs` differs from its wanted value in
    `want`, as (i, j, got, need), in sorted pair order.

    A pair missing from either dict counts as 0, so `pairs` may be the
    sparse output of `_pairings` and `want` may list only the pairs that
    must meet.
    """
    if pairs == want:
        # the usual case, a pattern that holds, needs no sort
        return
    for i, j in sorted(pairs.keys() | want.keys()):
        got, need = pairs.get((i, j), 0), want.get((i, j), 0)
        if got != need:
            yield i, j, got, need


def square(x: ClassVector) -> int:
    """Self-intersection x . x."""
    return intersect(x, x)


def pullback_double_cover(x: ClassVector) -> ClassVector:
    """Pull a class back to a double cover of the ambient surface.

    Each basis class e_k of the rank-n lattice has two disjoint lifts
    e'_k and e'_{n+k} upstairs, so the pullback lands in rank 2n with

        coeffs'[k] = coeffs'[n + k] = coeffs[k].

    Consequently intersect(p(x), p(y)) == 2 * intersect(x, y).
    """
    return ClassVector(x.coeffs + x.coeffs)
