"""Exact-integer combinatorics of curve configurations in negative
definite Donaldson lattices.

The lattice has an orthonormal-up-to-sign basis e_0, ..., e_{n-1} with
e_i.e_j = -delta_ij.  On top of it the package classifies rational
curve classes, validates cycles of rational curves and maximal
divisors (cycle plus attached chains), smooths nodes, enumerates every
configuration at small rank, and renders dual graphs.  All arithmetic
is exact integer arithmetic; nothing here is numerical.
"""

from . import curveclass, cycle, deform, divisor, errors, fixtures, graph, lattice, oracle
from .curveclass import *  # noqa: F403
from .cycle import *  # noqa: F403
from .deform import *  # noqa: F403
from .divisor import *  # noqa: F403
from .errors import *  # noqa: F403
from .fixtures import *  # noqa: F403
from .graph import *  # noqa: F403
from .lattice import *  # noqa: F403
from .oracle import *  # noqa: F403

__version__ = "0.1.0"

__all__ = sorted(
    {
        name
        for module in (curveclass, cycle, deform, divisor, errors, fixtures, graph, lattice, oracle)
        for name in module.__all__
    }
)
