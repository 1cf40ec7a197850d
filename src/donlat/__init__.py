"""Exact-integer combinatorics of curve configurations in negative
definite Donaldson lattices.

The lattice has an orthonormal-up-to-sign basis e_0, ..., e_{n-1} with
e_i.e_j = -delta_ij.  On top of it the package classifies rational
curve classes, validates cycles of rational curves and maximal
divisors (cycle plus attached chains), smooths nodes, enumerates every
configuration at small rank, and renders dual graphs.  All arithmetic
is exact integer arithmetic; nothing here is numerical.

The exhaustive oracle, `donlat.oracle`, loads on first use.  Its
module sits in `sys.modules` from the start, behind
`importlib.util.LazyLoader`, and its source is compiled and its body
run when one of its attributes is first read: directly, or through
`donlat.<name>`, `donlat.__all__`, `dir(donlat)` or
`from donlat import *`.  Most `donlat` commands (classify, fixture,
validate, smooth, dot) never call it, and each is a fresh process
that, without a bytecode cache, would otherwise compile the largest
module of the package for nothing.  Every other module loads eagerly.
Before Python 3.12 the first load takes no lock, so a program that
starts threads should read one oracle name before it does.
"""

import importlib.util
import sys

from . import curveclass, cycle, deform, divisor, errors, fixtures, graph, lattice
from .curveclass import *  # noqa: F403
from .cycle import *  # noqa: F403
from .deform import *  # noqa: F403
from .divisor import *  # noqa: F403
from .errors import *  # noqa: F403
from .fixtures import *  # noqa: F403
from .graph import *  # noqa: F403
from .lattice import *  # noqa: F403

__version__ = "0.1.0"

_spec = importlib.util.find_spec(".oracle", __name__)
_spec.loader = importlib.util.LazyLoader(_spec.loader)
oracle = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)
del importlib, sys, _spec


def __getattr__(name):
    # the oracle's public names, read through on every access so that
    # whatever `donlat.oracle` holds (a wrapper a tracer put there, say)
    # is what `donlat.<name>` gives; and `__all__`, kept once built
    if name == "__all__":
        global __all__
        __all__ = sorted(
            {
                public
                for module in (curveclass, cycle, deform, divisor, errors, fixtures, graph, lattice, oracle)
                for public in module.__all__
            }
        )
        return __all__
    if name in oracle.__all__:
        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    # what the namespace would hold with the oracle star-imported; the
    # two hooks are machinery, not names of the package
    return sorted({*globals(), "__all__", *oracle.__all__} - {"__getattr__", "__dir__"})
