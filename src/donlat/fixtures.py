"""Bundled example configurations.

Four families used throughout the tests and the command line tool:

  * ex333:       triangle of three -3 curves in rank 3; the smallest
                 configuration whose invariant hits 2n.
  * ih522342:    six curves in rank 6 forming a single hexagon with
                 self-intersections (-5,-4,-2,-2,-3,-2).
  * kato522332:  two-curve cycle (-5,-3) in rank 6 carrying a branch,
                 a chain of four -3/-2/-2/-2 curves attached to the
                 first cycle curve.
  * oddih-N:     the rank-N cycle with self-intersections
                 (N+2, 2, ..., 2), one type B curve and N-1 type A
                 curves, for 2 <= N <= 1024 written in ASCII
                 digits.

Every fixture is returned as a full divisor configuration (cycle plus
attached trees, possibly none) so it can be piped straight into the
validator.
"""

from __future__ import annotations

from .cycle import CycleConfig, from_selfintersections, odd_ih_cycle
from .divisor import MaximalDivisorConfig, TreeConfig
from .errors import UnknownFixtureError
from .lattice import ClassVector, _ascii_int

__all__ = ["FIXTURE_NAMES", "fixture"]

# largest rank oddih-N accepts: the fixture holds N curves of N coefficients
_ODDIH_MAX_RANK = 1024


def ex333() -> MaximalDivisorConfig:
    """Triangle D_0, D_1, D_2 in rank 3, every tail the other two indices."""
    curves = (
        ClassVector((1, -1, -1)),
        ClassVector((-1, 1, -1)),
        ClassVector((-1, -1, 1)),
    )
    return MaximalDivisorConfig(CycleConfig(3, curves, None), ())


def ih522342() -> MaximalDivisorConfig:
    """Hexagon of six curves in rank 6, no trees.

    In head order the classes are e_0-(e_1+e_2+e_3+e_4), e_1-e_2,
    e_2-e_3, e_3-(e_4+e_5), e_4-(e_5+e_0+e_1), e_5-e_0; the cyclic
    adjacency order interleaves them as heads 0, 4, 1, 2, 3, 5.
    """
    d0 = ClassVector((1, -1, -1, -1, -1, 0))
    d1 = ClassVector((0, 1, -1, 0, 0, 0))
    d2 = ClassVector((0, 0, 1, -1, 0, 0))
    d3 = ClassVector((0, 0, 0, 1, -1, -1))
    d4 = ClassVector((-1, -1, 0, 0, 1, -1))
    d5 = ClassVector((-1, 0, 0, 0, 0, 1))
    return MaximalDivisorConfig(CycleConfig(6, (d0, d4, d1, d2, d3, d5), None), ())


def kato522332() -> MaximalDivisorConfig:
    """Two-curve cycle with a four-curve branch in rank 6.

    The cycle is e_0-(e_1+e_2+e_3+e_4) and e_4-(e_5+e_0); the branch
    e_5-e_0, e_3-(e_4+e_5), e_2-e_3, e_1-e_2 hangs off the first cycle
    curve, root first.
    """
    cycle = from_selfintersections((5, 3))
    chain = (
        ClassVector((-1, 0, 0, 0, 0, 1)),
        ClassVector((0, 0, 0, 1, -1, -1)),
        ClassVector((0, 0, 1, -1, 0, 0)),
        ClassVector((0, 1, -1, 0, 0, 0)),
    )
    return MaximalDivisorConfig(cycle, (TreeConfig(chain, 0),))


_NAMED = {"ex333": ex333, "ih522342": ih522342, "kato522332": kato522332}
FIXTURE_NAMES = (*_NAMED, "oddih-N")


def fixture(name: str) -> MaximalDivisorConfig:
    """Look up a fixture by name; oddih-N takes the rank from the name.

    Raises:
        UnknownFixtureError: the name matches no fixture.
    """
    if name in _NAMED:
        return _NAMED[name]()
    if name.startswith("oddih-"):
        try:
            n = _ascii_int(name[len("oddih-") :])
        except ValueError:
            raise UnknownFixtureError(f"bad rank in fixture name {name!r}") from None
        if not 2 <= n <= _ODDIH_MAX_RANK:
            raise UnknownFixtureError(
                f"oddih fixtures need a rank in [2, {_ODDIH_MAX_RANK}], got {n}"
            )
        # the (n+2, 2, ..., 2) cycle of n curves in rank n, no trees
        return MaximalDivisorConfig(odd_ih_cycle(n), ())
    raise UnknownFixtureError(f"no fixture named {name!r}; known: {', '.join(FIXTURE_NAMES)}")
