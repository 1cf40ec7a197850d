"""Recognition and composition of rational curve classes.

On a surface whose intersection lattice is diagonalized as in
:mod:`donlat.lattice`, the class of a smooth rational curve D satisfies
the adjunction constraint K.D + D.D + 2 = 0, which in coordinates reads

    sum_k (a_k^2 + a_k) = 2.

The integer solutions with the right positivity split into exactly two
shapes, with head index i never in the tail set I:

  * type A:  D = e_i - e_I      (one coefficient +1, the rest 0 or -1)
  * type B:  D = -2 e_i - e_I   (one coefficient -2, the rest 0 or -1)

Everything else is NonCurve and carries its genus defect
2 - sum_k (a_k^2 + a_k) for diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, count
from operator import mul
from typing import Iterable, Sequence, Union

from .errors import (
    NotACurveError,
    NotAdjacentError,
    NotTypeAError,
    SchemaError,
    TwoTypeBError,
)
from .lattice import ClassVector, _check_indices, _check_rank, _plain_int, intersect

__all__ = [
    "CurveKind",
    "NonCurve",
    "TypeA",
    "TypeB",
    "classify",
    "compose_chain",
    "distinct_heads",
    "genus_defect",
    "is_nodal_cycle_class",
    "kind_from_json",
    "kind_to_json",
    "reconstruct",
]


@dataclass(frozen=True, slots=True, init=False)
class _HeadTail:
    """Head index and tail set shared by both curve shapes.

    Instances are slotted (no `__dict__`); the tail is stored as a
    frozenset, whatever iterable it is given as, and may not hold the
    head.

    The constructor is written by hand and stores each field through
    the class's own slot descriptor, as `cycle.CycleConfig`'s does.  A
    frozen dataclass's generated `__init__` and `__post_init__` must set
    each field with `object.__setattr__`, which made a kind cost about
    twice as much to build; `classify` builds one per curve of every
    cycle and divisor it validates.  Equality, hashing, `repr`,
    frozenness, pickling, `__match_args__` and `fields()` are the
    generated ones.
    """

    head: int
    tail: frozenset[int]

    def __init__(self, head: int, tail: Iterable[int]) -> None:
        tail = frozenset(tail)
        if head in tail:
            raise ValueError(f"head {head} may not lie in the tail")
        _set_head(self, head)
        _set_tail(self, tail)


_set_head = _HeadTail.head.__set__
_set_tail = _HeadTail.tail.__set__


# The subclasses declare their empty `__slots__` themselves rather than
# pass slots=True, which on Python 3.10 would give them second `head`
# and `tail` slots that hide the ones `_HeadTail.__init__` fills.
@dataclass(frozen=True, init=False)
class TypeA(_HeadTail):
    """Class e_head - e_tail of a smooth rational curve."""

    __slots__ = ()


@dataclass(frozen=True, init=False)
class TypeB(_HeadTail):
    """Class -2 e_head - e_tail of a smooth rational curve."""

    __slots__ = ()


@dataclass(frozen=True, slots=True, init=False)
class NonCurve:
    """Anything failing the rational-curve pattern; keeps the genus defect.

    Slotted, with a hand-written constructor that stores through the
    slot descriptor, like `_HeadTail`: the box sweep of
    `oracle.verify_rational_pattern` builds one for most of its points.
    """

    defect: int

    def __init__(self, defect: int) -> None:
        _set_defect(self, defect)


_set_defect = NonCurve.defect.__set__


CurveKind = Union[TypeA, TypeB, NonCurve]


def _defect(coeffs: Sequence[int]) -> int:
    return 2 - sum(map(mul, coeffs, coeffs)) - sum(coeffs)


def genus_defect(x: ClassVector) -> int:
    """2 - sum_k (a_k^2 + a_k); zero for every rational curve class."""
    return _defect(x.coeffs)


def _kind(coeffs: Sequence[int]) -> CurveKind:
    """The curve shape of a coefficient sequence, read in one pass over
    its nonzero coefficients: `compress` skips the zeros at C level, the
    -1 positions are collected as the tail and the pass stops at a
    second coefficient outside {0, -1}.  The Python-level work thus
    grows with the nonzero coefficients, not with the rank.  Only a
    non-curve is scanned again, for its genus defect."""
    head = -1
    tail: list[int] = []
    for k in compress(count(), coeffs):
        if coeffs[k] == -1:
            tail.append(k)
        elif head < 0:
            head = k
        else:
            return NonCurve(_defect(coeffs))
    if head >= 0:
        lead = coeffs[head]
        if lead == 1:
            return TypeA(head, tail)
        if lead == -2:
            return TypeB(head, tail)
    return NonCurve(_defect(coeffs))


def classify(x: ClassVector) -> CurveKind:
    """Decide the curve shape of a class in one pass over its coefficients.

    Returns TypeA(i, I) when exactly one coefficient is +1 and the rest
    lie in {0, -1}; TypeB(i, I) when exactly one coefficient is -2 and
    the rest lie in {0, -1}; otherwise NonCurve with the genus defect.
    The pass visits the nonzero coefficients only, as the zeros are
    skipped at C level; it collects the -1 positions I and stops at the
    second coefficient outside {0, -1}.
    """
    return _kind(x.coeffs)


def reconstruct(kind: CurveKind, n: int) -> ClassVector:
    """Inverse of classify for curve kinds: rebuild the coefficient vector.

    Raises:
        NotACurveError: kind is NonCurve.
        IndexRangeError: n or the head or a tail index fails
            `lattice._check_indices`.
    """
    if isinstance(kind, NonCurve):
        raise NotACurveError("cannot reconstruct a NonCurve")
    _check_indices((kind.head, *kind.tail), n)
    coeffs = [0] * n
    coeffs[kind.head] = 1 if isinstance(kind, TypeA) else -2
    for j in kind.tail:
        coeffs[j] = -1
    return ClassVector(tuple(coeffs))


def is_nodal_cycle_class(x: ClassVector) -> tuple[bool, frozenset[int] | None]:
    """Test for the -e_I shape of a rational curve with one node.

    Returns (ok, I) where ok holds iff every coefficient is 0 or -1 and
    x is nonzero; I is the set of -1 positions whenever all coefficients
    lie in {0, -1} (so the zero class yields (False, empty set)), and
    None when some coefficient falls outside that range.
    """
    coeffs = x.coeffs
    if coeffs.count(0) + coeffs.count(-1) != len(coeffs):
        return False, None
    support = frozenset(compress(count(), coeffs))
    return bool(support), support


def compose_chain(a: ClassVector, b: ClassVector) -> CurveKind:
    """Merge two curve classes meeting transversally in one point.

    The sum of adjacent type A/B classes is again type A or type B, and
    it is type B as soon as one operand is (two type B classes can never
    meet exactly once, their pairing is always <= 0).

    Raises:
        NotACurveError: an operand is NonCurve.
        TwoTypeBError: both operands are type B.
        RankMismatchError: the operands live in different ranks.
        NotAdjacentError: intersect(a, b) != 1.
    """
    ka, kb = classify(a), classify(b)
    if isinstance(ka, NonCurve) or isinstance(kb, NonCurve):
        raise NotACurveError("chain composition needs two curve classes")
    if isinstance(ka, TypeB) and isinstance(kb, TypeB):
        raise TwoTypeBError("two -2-head classes never meet exactly once")
    if intersect(a, b) != 1:
        raise NotAdjacentError(f"intersection is {intersect(a, b)}, need 1")
    return classify(a + b)


def distinct_heads(a: ClassVector, b: ClassVector) -> bool:
    """Whether two type A classes have different head indices.

    Two type A classes sharing a head always pair negatively
    (intersect = -(1 + |tail overlap|)), so any pair meeting with
    intersection >= 0 necessarily reports True here.

    Raises:
        NotTypeAError: an operand is not of the e_i - e_I shape.
        RankMismatchError: the operands live in different ranks.
    """
    ka, kb = classify(a), classify(b)
    if not isinstance(ka, TypeA) or not isinstance(kb, TypeA):
        raise NotTypeAError("head comparison is defined for type A classes")
    _check_rank((b,), a.n)
    return ka.head != kb.head


# --- JSON form ----------------------------------------------------------

def kind_to_json(kind: CurveKind) -> dict:
    """{"kind": "A"|"B", "i": head, "I": sorted tail} or {"kind": "none", "defect": d}."""
    if isinstance(kind, NonCurve):
        return {"kind": "none", "defect": kind.defect}
    return {"kind": "A" if isinstance(kind, TypeA) else "B", "i": kind.head, "I": sorted(kind.tail)}


def kind_from_json(data: object) -> CurveKind:
    if not isinstance(data, dict) or "kind" not in data:
        raise SchemaError(f"expected a curve-kind object, got {data!r}")
    tag = data["kind"]
    if tag == "none":
        defect = data.get("defect")
        if not _plain_int(defect):
            raise SchemaError("non-curve kind needs an integer 'defect'")
        return NonCurve(defect)
    if tag in ("A", "B"):
        head, tail = data.get("i"), data.get("I")
        if not _plain_int(head) or head < 0:
            raise SchemaError("curve kind needs a nonnegative integer head 'i'")
        if not isinstance(tail, list) or any(not _plain_int(j) or j < 0 for j in tail):
            raise SchemaError("curve kind needs a nonnegative integer array tail 'I'")
        if head in tail:
            raise SchemaError(f"head {head} may not lie in the tail")
        cls = TypeA if tag == "A" else TypeB
        return cls(head, frozenset(tail))
    raise SchemaError(f"unknown curve kind tag {tag!r}")
