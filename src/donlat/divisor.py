"""Maximal divisors: a cycle of rational curves plus attached chains.

A maximal divisor D = C + A consists of a cycle C and a finite set of
trees A.  In this shape every tree is a chain of one or more type A
curves whose first curve meets exactly one curve of the cycle exactly
once, and distinct trees hang off distinct cycle curves.

Accepting a configuration replays the index bookkeeping that pins down
the class of D: starting from the support I_C of the cycle class
(C = -e_{I_C}), each tree curve e_a - e_T consumes its head from the
running support and contributes its tail,

    support <- (support - {a}) | T.

Once the structural checks pass, every step of this replay is legal,
so it is bookkeeping and needs no checks of its own:

  * C has the -e_I shape.  For s >= 2 the validated pattern gives
    C.C = sum D_i^2 + 2s, and every curve class has
    sum_k (a_k^2 + a_k) = 2, so sum_k (c_k^2 + c_k) = 2s - 2s = 0 and
    every c_k lies in {0, -1}.  For s = 1 the cycle check demands the
    -e_I shape itself.
  * Each tree curve meets the union built before it exactly once.  The
    root meets only its attachment curve, once; a later chain curve
    meets no cycle curve, meets its predecessor once and no other curve
    of its chain; and no curve meets another tree.
  * By induction the union has class -e_S, S the running support.  For
    a tree curve e_a - e_T the pairing (e_a - e_T).(-e_S) is
    [a in S] - |T & S|; it equals 1 by the previous point, which forces
    a in S and T disjoint from S.  Since a is not in T,
    -e_S + e_a - e_T = -e_{(S - {a}) | T}.

After the last of the q tree curves the divisor class is -e_support
and the arithmetic genus of the whole configuration is still 1 (the
cycle's loop survives, trees add nothing).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .curveclass import TypeA, TypeB, classify, is_nodal_cycle_class
from .cycle import (
    CycleClass,
    CycleConfig,
    CycleReport,
    Violation,
    _checked,
    _rank_mismatches,
    cycle_class,
    validate_cycle,
)
from .errors import (
    InvalidDivisorError,
    NonCurveComponentError,
    NotDisjointError,
    NotLemmaFormError,
    NotTreeShapedError,
    SchemaError,
)
from .lattice import ClassVector, _check_rank, _class_sum, _in_range, _mismatches, _pairings
from .lattice import _plain_int, e_sum, intersect, square

__all__ = [
    "DivisorReport",
    "MaximalDivisorConfig",
    "SecondComponentResult",
    "SecondComponentVerdict",
    "TreeConfig",
    "arithmetic_genus",
    "second_component_check",
    "simply_connected_class",
    "total_class",
    "validate_maximal_divisor",
]


@dataclass(frozen=True)
class TreeConfig:
    """One chain of curves; the first entry is the one meeting the cycle.

    `attach` is the position (index into the cycle's curve tuple) of the
    cycle curve the chain hangs from.
    """

    chain: tuple[ClassVector, ...]
    attach: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "chain", tuple(self.chain))

    def to_json(self) -> dict:
        return {"chain": [c.to_json() for c in self.chain], "attach": self.attach}

    @classmethod
    def from_json(cls, data: object) -> "TreeConfig":
        if not isinstance(data, dict):
            raise SchemaError(f"expected a tree object, got {data!r}")
        raw = data.get("chain")
        if not isinstance(raw, list) or not raw:
            raise SchemaError("tree needs a non-empty 'chain' array")
        attach = data.get("attach")
        if not _plain_int(attach):
            raise SchemaError("tree needs an integer 'attach'")
        return cls(tuple(ClassVector.from_json(c) for c in raw), attach)


@dataclass(frozen=True)
class MaximalDivisorConfig:
    cycle: CycleConfig
    trees: tuple[TreeConfig, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "trees", tuple(self.trees))

    def all_curves(self) -> tuple[ClassVector, ...]:
        """Cycle curves first, then each tree root to leaf."""
        out = list(self.cycle.curves)
        for tree in self.trees:
            out.extend(tree.chain)
        return tuple(out)

    def to_json(self) -> dict:
        return {
            "cycle": self.cycle.to_json(),
            "trees": [t.to_json() for t in self.trees],
        }

    @classmethod
    def from_json(cls, data: object) -> "MaximalDivisorConfig":
        if not isinstance(data, dict) or "cycle" not in data:
            raise SchemaError(f"expected a divisor object with 'cycle', got {data!r}")
        trees = data.get("trees", [])
        if not isinstance(trees, list):
            raise SchemaError("'trees' must be an array")
        return cls(
            CycleConfig.from_json(data["cycle"]),
            tuple(TreeConfig.from_json(t) for t in trees),
        )


@dataclass(frozen=True)
class DivisorReport(CycleReport):
    trace: tuple[frozenset[int], ...] = ()
    total: ClassVector | None = None
    support: frozenset[int] | None = None


def validate_maximal_divisor(cfg: MaximalDivisorConfig) -> DivisorReport:
    """Check the full divisor shape and replay the support bookkeeping.

    Violations are collected, never raised.  Tree processing order is
    derived internally (trees sorted by attachment position, each chain
    root to leaf), so acceptance and the final support never depend on
    the order trees are listed.
    """
    bad: list[Violation] = list(validate_cycle(cfg.cycle).violations)
    n = cfg.cycle.n

    for t_idx, tree in enumerate(cfg.trees):
        bad += _rank_mismatches(tree.chain, n, f"tree {t_idx} ")
    if bad:
        return DivisorReport(tuple(bad))

    s = cfg.cycle.s
    # whether each tree's attach is a position of the cycle (see
    # `lattice._in_range`), read by both attach checks
    in_range = [_in_range(tree.attach, s) for tree in cfg.trees]
    seen_attach: dict[int, int] = {}
    for t_idx, tree in enumerate(cfg.trees):
        if not tree.chain:
            bad.append(
                Violation(
                    "tree-empty",
                    f"tree {t_idx} has an empty chain; a tree needs at least one curve",
                )
            )
        if not in_range[t_idx]:
            bad.append(
                Violation(
                    "attach-out-of-range",
                    f"tree {t_idx} attaches at position {tree.attach!r}, cycle has {s} curves",
                )
            )
            continue
        if tree.attach in seen_attach:
            bad.append(
                Violation(
                    "shared-attachment",
                    f"trees {seen_attach[tree.attach]} and {t_idx} both attach to cycle curve "
                    f"{tree.attach}; trees must meet pairwise distinct cycle curves",
                )
            )
        else:
            seen_attach[tree.attach] = t_idx

    # sort every nonzero pair into its check; cycle pairs were checked above
    pairs = _pairings(cfg.all_curves())
    owner = [(None, pos) for pos in range(s)] + [
        (t_idx, c_idx) for t_idx, tree in enumerate(cfg.trees) for c_idx in range(len(tree.chain))
    ]
    links: list[dict[tuple[int, int], int]] = [{} for _ in cfg.trees]
    hits: list[list[list[tuple[int, int]]]] = [[[] for _ in tree.chain] for tree in cfg.trees]
    overlaps: list[tuple[int, int, int, int]] = []
    for (g, h), got in sorted(pairs.items()):
        (tree_g, i), (tree_h, j) = owner[g], owner[h]
        if tree_g is None:
            if tree_h is not None:
                hits[tree_h][j].append((i, got))
        elif tree_g == tree_h:
            links[tree_g][i, j] = got
        else:
            overlaps.append((tree_g, tree_h, i, j))

    # one classification per tree curve, read again by the support replay
    kinds = [[classify(c) for c in tree.chain] for tree in cfg.trees]
    for t_idx, tree in enumerate(cfg.trees):
        for c_idx, kind in enumerate(kinds[t_idx]):
            if not isinstance(kind, TypeA):
                bad.append(
                    Violation(
                        "tree-curve-not-type-a",
                        f"tree {t_idx} curve {c_idx} is not of the e_i - e_I shape; "
                        "only the cycle may carry a -2 head",
                    )
                )
        steps = dict.fromkeys([(i, i + 1) for i in range(len(tree.chain) - 1)], 1)
        for i, j, got, need in _mismatches(links[t_idx], steps):
            bad.append(
                Violation(
                    "tree-not-chain",
                    f"tree {t_idx} curves {i},{j} meet {got} times, need {need}; "
                    "trees must be chains",
                )
            )
        if in_range[t_idx]:
            for c_idx, curve_hits in enumerate(hits[t_idx]):
                if c_idx == 0:
                    if curve_hits != [(tree.attach, 1)]:
                        bad.append(
                            Violation(
                                "tree-attach-mismatch",
                                f"tree {t_idx} root meets cycle at {curve_hits}, "
                                f"need exactly one point on curve {tree.attach}",
                            )
                        )
                elif curve_hits:
                    bad.append(
                        Violation(
                            "tree-interior-meets-cycle",
                            f"tree {t_idx} curve {c_idx} meets the cycle at {curve_hits}",
                        )
                    )

    for a_idx, b_idx, i, j in sorted(overlaps):
        bad.append(
            Violation(
                "trees-overlap",
                f"tree {a_idx} curve {i} meets tree {b_idx} curve {j}",
            )
        )

    if bad:
        return DivisorReport(tuple(bad))

    # structural shape holds, so every update below is legal (module docstring)
    _, support = cycle_class(cfg.cycle)
    trace = [support]
    for t_idx in sorted(range(len(cfg.trees)), key=lambda t: cfg.trees[t].attach):
        for kind in kinds[t_idx]:
            support = (support - {kind.head}) | kind.tail
            trace.append(support)
    return DivisorReport((), tuple(trace), -e_sum(support, n), support)


def total_class(cfg: MaximalDivisorConfig) -> CycleClass:
    """Class of the whole divisor, -e_support.

    Raises:
        InvalidDivisorError: validation fails; the report rides along.
    """
    report = validate_maximal_divisor(cfg)
    _checked(report, InvalidDivisorError)
    assert report.total is not None and report.support is not None
    return CycleClass(report.total, report.support)


def _is_nodal(c: ClassVector, role: str) -> bool:
    """False for a curve class, True for the nodal -e_I shape.

    Raises:
        NonCurveComponentError: c fits neither; `role` names it in the
            message.
    """
    if isinstance(classify(c), (TypeA, TypeB)):
        return False
    if not is_nodal_cycle_class(c)[0]:
        raise NonCurveComponentError(f"{role} {list(c.coeffs)} is neither a curve class nor -e_I")
    return True


def arithmetic_genus(curves: Sequence[ClassVector]) -> int:
    """Arithmetic genus 1 + (K.D + D.D)/2 of a reduced divisor D.

    K is never materialized: adjunction gives K.D_i = -D_i.D_i - 2 for a
    smooth rational component, while a component of the -e_I shape is
    the rational curve with one node (genus 1), for which
    K.D_i = -D_i.D_i.  Cycles come out as 1, chains as 0.

    Raises:
        NonCurveComponentError: a component fits neither shape.
        RankMismatchError: a component's rank differs from the first's.
            Each component's shape is checked before its rank.
    """
    if not curves:
        raise NonCurveComponentError("empty divisor has no genus")
    n = curves[0].n
    adjunction = 0
    for c in curves:
        adjunction -= (0 if _is_nodal(c, "component") else 2) + square(c)
        _check_rank((c,), n)
    value = adjunction + square(_class_sum(curves, n))
    # value = -2 (#smooth components) + 2 (#pairwise meetings), always even
    return 1 + value // 2


def _dual_graph(curves: Sequence[ClassVector]) -> tuple[list[list[int]], int]:
    """Connected components of the dual graph, each sorted, and its
    number of meeting points (the pairings of distinct curves summed).

    Raises:
        NotTreeShapedError: some distinct pair meets negatively (the
            classes cannot be distinct curves on one surface); the first
            such pair in sorted order is named.
    """
    edges = _pairings(curves)
    near: list[list[int]] = [[] for _ in curves]
    for (i, j), got in sorted(edges.items()):
        if got < 0:
            raise NotTreeShapedError(
                f"components {i} and {j} meet {got} times; "
                "distinct curves never pair negatively"
            )
        near[i].append(j)
        near[j].append(i)
    seen: set[int] = set()
    out: list[list[int]] = []
    for start in range(len(curves)):
        if start in seen:
            continue
        comp, stack = [], [start]
        seen.add(start)
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in near[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        out.append(sorted(comp))
    return out, sum(edges.values())


def simply_connected_class(curves: Sequence[ClassVector]) -> tuple[int, frozenset[int]]:
    """Class sum e_k - e_K of a connected, tree-shaped configuration.

    Raises:
        NotTreeShapedError: disconnected, or the dual graph (edge
            multiplicity = intersection number) contains a cycle.
        NotLemmaFormError: the sum is not of the e_k - e_K shape.
        RankMismatchError: some curve's rank differs from the first's.
    """
    if not curves:
        raise NotTreeShapedError("empty configuration")
    comps, edge_load = _dual_graph(curves)
    m = len(curves)
    if len(comps) != 1:
        raise NotTreeShapedError("configuration is disconnected")
    if edge_load != m - 1:
        raise NotTreeShapedError(
            f"dual graph carries {edge_load} meeting points over {m} curves; "
            "a tree needs exactly one fewer"
        )
    total = _class_sum(curves, curves[0].n)
    kind = classify(total)
    if not isinstance(kind, TypeA):
        raise NotLemmaFormError(
            f"sum {list(total.coeffs)} is not of the e_k - e_K shape"
        )
    return kind.head, kind.tail


class SecondComponentVerdict(Enum):
    NO_SECOND_COMPONENT = "NoSecondComponent"
    TWO_CYCLES = "TwoCycles"
    CONTRADICTION = "Contradiction"
    TREE_CONSTRAINTS_HOLD = "TreeConstraintsHold"


@dataclass(frozen=True)
class SecondComponentResult:
    verdict: SecondComponentVerdict
    notes: tuple[str, ...] = ()
    tree_conflict: bool = False


def second_component_check(
    divisor: MaximalDivisorConfig, other: Sequence[ClassVector]
) -> SecondComponentResult:
    """Decide what a hypothetical second curve component can look like.

    Given a valid maximal divisor D (cycle C + trees A) and the curves
    of a candidate configuration disjoint from D:

      * empty            -> NoSecondComponent.
      * contains a cycle -> TwoCycles; if D also carries trees that is
        flagged, since with two cycles no trees may remain.
      * forest           -> every connected component must sum to
        e_k - e_K with k in I_C (the cycle's support) and exactly one
        element of K in I_C; any failure is a Contradiction, otherwise
        TreeConstraintsHold (ruling these out as well takes deformation
        arguments beyond this bookkeeping).

    Raises:
        InvalidDivisorError: the divisor itself does not validate.
        NotDisjointError: some candidate curve meets the divisor class.
        NonCurveComponentError: a candidate fits no curve shape.
        NotTreeShapedError: two candidates meet negatively, so they
            cannot be distinct curves (see `_dual_graph`).
        RankMismatchError: some candidate's rank differs from the divisor's.
    """
    vector, _ = total_class(divisor)
    _, cycle_support = cycle_class(divisor.cycle)
    if not other:
        return SecondComponentResult(SecondComponentVerdict.NO_SECOND_COMPONENT)

    nodal_flags: list[bool] = []
    for idx, c in enumerate(other):
        if intersect(vector, c) != 0:
            raise NotDisjointError(
                f"candidate curve {idx} meets the divisor "
                f"({intersect(vector, c)} points)"
            )
        nodal_flags.append(_is_nodal(c, "candidate"))

    comps, meetings = _dual_graph(other)
    # each connected component carries at least one meeting point fewer
    # than its curves, and exactly that many when it is a tree
    has_cycle = any(nodal_flags) or meetings > len(other) - len(comps)
    if has_cycle:
        notes = []
        conflict = bool(divisor.trees)
        if conflict:
            notes.append(
                "second cycle found while the divisor carries trees; "
                "with two cycles the tree part must be empty"
            )
        return SecondComponentResult(
            SecondComponentVerdict.TWO_CYCLES, tuple(notes), conflict
        )

    # every note names a failed constraint, so any note is a contradiction
    notes = []
    for comp in comps:
        try:
            k, tail = simply_connected_class([other[i] for i in comp])
        except NotLemmaFormError as exc:
            notes.append(f"component {comp}: {exc}")
            continue
        if k not in cycle_support:
            notes.append(
                f"component {comp}: head {k} lies outside the cycle support "
                f"{sorted(cycle_support)}"
            )
        overlap = tail & cycle_support
        if len(overlap) != 1:
            notes.append(
                f"component {comp}: tail meets the cycle support in "
                f"{sorted(overlap)}, need exactly one index"
            )
    if notes:
        return SecondComponentResult(SecondComponentVerdict.CONTRADICTION, tuple(notes))
    return SecondComponentResult(SecondComponentVerdict.TREE_CONSTRAINTS_HOLD)
