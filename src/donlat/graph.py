"""Dual graphs of divisor configurations and DOT rendering.

One vertex per curve, one edge per intersection point.  When every
curve is type A with pairwise distinct heads the vertices are named
D<head>, which reproduces the customary numbering of the examples;
otherwise they are named by list position.  The s = 1 nodal curve gets
a self-loop for its node.
"""

from __future__ import annotations

from dataclasses import dataclass

from .curveclass import TypeA, classify
from .divisor import MaximalDivisorConfig
from .lattice import _pairings, square

__all__ = ["DivisorGraph", "divisor_graph", "to_dot"]


@dataclass(frozen=True)
class DivisorGraph:
    """vertices: (name, self-intersection); edges: (u, v, multiplicity)
    with u <= v indexing into vertices."""

    vertices: tuple[tuple[str, int], ...]
    edges: tuple[tuple[int, int, int], ...]


def divisor_graph(divisor: MaximalDivisorConfig) -> DivisorGraph:
    """Build the dual graph of a divisor configuration."""
    curves = divisor.all_curves()
    kinds = [classify(c) for c in curves]
    heads = [k.head for k in kinds if isinstance(k, TypeA)]
    by_head = len(heads) == len(curves) and len(set(heads)) == len(curves)
    names = tuple(
        f"D{kinds[i].head}" if by_head else f"D{i}" for i in range(len(curves))
    )
    vertices = tuple((names[i], square(c)) for i, c in enumerate(curves))

    edges = []
    if divisor.cycle.s == 1:
        edges.append((0, 0, 1))
    for (i, j), mult in sorted(_pairings(curves).items()):
        if mult >= 1:
            edges.append((i, j, mult))
    return DivisorGraph(vertices, tuple(edges))


def to_dot(graph: DivisorGraph) -> str:
    """Render as undirected DOT, one edge line per intersection point.

    Output is byte-stable: vertices in curve order, edges in index
    order, parallel edges repeated.
    """
    lines = ["graph divisor {", "  node [shape=circle];"]
    for name, sq in graph.vertices:
        label = f"{name[:1]}_{name[1:]} ({sq})"
        lines.append(f'  {name} [label="{label}"];')
    for u, v, mult in graph.edges:
        for _ in range(mult):
            lines.append(f"  {graph.vertices[u][0]} -- {graph.vertices[v][0]};")
    lines.append("}")
    return "\n".join(lines) + "\n"
