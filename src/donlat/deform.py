"""Smoothing one node of a cycle at the level of curve classes.

Smoothing the intersection point between consecutive cycle curves
merges them into a single curve whose class is the sum, shortening the
cycle by one while preserving the cycle class.  The move leaves behind
exactly one exceptional class of the first kind: the basis class of
the absorbed curve's head index.  Each smoothing therefore drops
s - C.C by exactly 1.

A one-curve cycle has only its own node left; smoothing it trades the
rational curve for a smooth elliptic curve of the same class, which
ends the process.
"""

from __future__ import annotations

from dataclasses import dataclass

from .curveclass import NonCurve, classify
from .cycle import CycleConfig, validate_cycle
from .errors import InvalidCycleError, PositionOutOfRangeError
from .lattice import ClassVector, basis

__all__ = ["EllipticOutcome", "smooth_node"]


@dataclass(frozen=True)
class EllipticOutcome:
    """Terminal state: the cycle degenerated to a smooth elliptic curve."""

    curve_class: ClassVector


def smooth_node(
    cfg: CycleConfig, position: int
) -> tuple[CycleConfig | EllipticOutcome, ClassVector | None]:
    """Smooth the node between curves `position` and `position + 1`.

    The curve at `position` absorbs its successor (indices mod s); the
    returned exceptional class is e_h for the successor's head index h.
    For s == 1 the single node is the curve's own double point and the
    outcome is elliptic with no ejected class.

    A cycle whose class is zero (its curves' coefficients cancel, as for
    a cycle of (-2)-curves covering every index) smooths at s == 2 to
    the one-curve cycle (0, ..., 0).  That is the documented end state
    of such a ladder: the zero class is no nodal curve, so
    `validate_cycle` rejects the result with `single-not-nodal` and it
    cannot be smoothed further.

    Args:
        cfg: a configuration accepted by validate_cycle.
        position: node index, 0 <= position < s.

    Returns:
        (shorter cycle or EllipticOutcome, ejected basis class or None).

    Raises:
        InvalidCycleError: cfg fails validation.
        PositionOutOfRangeError: position outside [0, s-1].
    """
    report = validate_cycle(cfg)
    if not report.ok:
        raise InvalidCycleError(
            "; ".join(v.message for v in report.violations), report
        )
    s = cfg.s
    if not 0 <= position < s:
        raise PositionOutOfRangeError(f"position {position} outside [0, {s - 1}]")
    if s == 1:
        return EllipticOutcome(cfg.curves[0]), None

    absorbed_at = (position + 1) % s
    absorbed = cfg.curves[absorbed_at]
    kind = classify(absorbed)
    assert not isinstance(kind, NonCurve)  # validation guarantees a curve
    ejected = basis(kind.head, cfg.n)
    merged = cfg.curves[position] + absorbed
    if absorbed_at == 0:
        # the wrap-around node: the merged curve takes the front slot
        curves = (merged,) + cfg.curves[1:position]
    else:
        curves = cfg.curves[:position] + (merged,) + cfg.curves[absorbed_at + 1 :]
    return CycleConfig(cfg.n, curves, None), ejected
