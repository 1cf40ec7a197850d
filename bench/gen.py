"""Seeded inputs with known answers, built on plain integer tuples.

Nothing here imports donlat: every expected answer (curve rows, class
sums, Betti verdicts, planted violation codes, edge counts) comes from
the arithmetic below, so the checks in workloads.py compare the code
under test against a reference it did not produce.

A cycle is a tuple of rows (one coefficient tuple per curve).  A
divisor is (cycle rows, ((chain rows, attach), ...)).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Fixture rows as documented in src/donlat/fixtures.py.
EX333 = ((1, -1, -1), (-1, 1, -1), (-1, -1, 1))
IH522342 = (
    (1, -1, -1, -1, -1, 0),
    (-1, -1, 0, 0, 1, -1),
    (0, 1, -1, 0, 0, 0),
    (0, 0, 1, -1, 0, 0),
    (0, 0, 0, 1, -1, -1),
    (-1, 0, 0, 0, 0, 1),
)
KATO_CHAIN = (
    (-1, 0, 0, 0, 0, 1),
    (0, 0, 0, 1, -1, -1),
    (0, 0, 1, -1, 0, 0),
    (0, 1, -1, 0, 0, 0),
)


def fsi_rows(ks):
    """Cycle with self-intersection opposites ks, canonically numbered."""
    n = sum(k - 1 for k in ks)
    alphas = [0]
    for k in ks[:-1]:
        alphas.append(alphas[-1] + k - 1)
    rows = []
    for i, a in enumerate(alphas):
        row = [0] * n
        row[a] = 1
        hi = alphas[i + 1] + 1 if i + 1 < len(ks) else n
        for j in range(a + 1, hi):
            row[j] = -1
        if i == len(ks) - 1:
            row[0] = -1
        rows.append(tuple(row))
    return tuple(rows)


def oddih_rows(n):
    """The (n+2, 2, ..., 2) cycle of n curves in rank n."""
    head = [0] * n
    head[1] = -2
    for j in range(2, n):
        head[j] = -1
    rows = [tuple(head)]
    for j in range(1, n - 1):
        row = [0] * n
        row[j], row[j + 1] = 1, -1
        rows.append(tuple(row))
    last = [0] * n
    last[n - 1], last[0] = 1, -1
    rows.append(tuple(last))
    return tuple(rows)


KATO = (fsi_rows((5, 3)), ((KATO_CHAIN, 0),))
FIXTURE_ROWS = {
    "ex333": (EX333, ()),
    "ih522342": (IH522342, ()),
    "kato522332": KATO,
}


def fixture_rows(name):
    if name.startswith("oddih-"):
        return (oddih_rows(int(name[len("oddih-"):])), ())
    return FIXTURE_ROWS[name]


def tsum(rows):
    return tuple(sum(col) for col in zip(*rows))


def dot(x, y):
    return -sum(a * b for a, b in zip(x, y))


def betti(rows):
    """(verdict, s - C.C) for a cycle, by the rule in cycle.betti_check."""
    n, s = len(rows[0]), len(rows)
    total = tsum(rows)
    value = s + sum(a * a for a in total)
    if value == n and (s == 1 or _partition(rows)):
        return "PartitionCase", value
    if value == 2 * n:
        return "OddIH", value
    return "Inadmissible", value


def _partition(rows):
    seen = set()
    for row in rows:
        if sorted(a for a in row if a not in (0, -1)) != [1]:
            return False
        tail = {k for k, a in enumerate(row) if a == -1}
        if seen & tail:
            return False
        seen |= tail
    return seen == set(range(len(rows[0])))


def edge_count(cycle, trees):
    """Intersection points of a valid divisor: the dual graph's edge lines."""
    s = len(cycle)
    return (1 if s == 1 else s) + sum(len(chain) for chain, _ in trees)


# --- mutations --------------------------------------------------------------

def _set(rows, pos, k, value):
    row = list(rows[pos])
    row[k] = value
    return rows[:pos] + (tuple(row),) + rows[pos + 1:]


def _head(row):
    return next(k for k, a in enumerate(row) if a in (1, -2))


def cycle_mutations(rows):
    """Codes a cycle mutation can plant on these rows."""
    s = len(rows)
    if s == 1:
        return ("rank-mismatch", "single-not-nodal")
    codes = ["rank-mismatch", "not-a-curve", "two-type-b"]
    if s == 2:
        codes.append("pair-intersection")
    if s >= 4:
        codes.append("adjacent-intersection")
    return tuple(codes)


def mutate_cycle(rows, code, rng):
    """Return (n, rows) carrying a violation with `code`."""
    n, s = len(rows[0]), len(rows)
    if code == "rank-mismatch":
        return n + 1, rows
    if code == "single-not-nodal":
        return n, _set(rows, 0, rng.randrange(n), 1)
    if code == "not-a-curve":
        pos = rng.randrange(s)
        return n, _set(rows, pos, _head(rows[pos]), 3)
    if code == "two-type-b":
        type_a = [p for p, row in enumerate(rows) if 1 in row]
        b_count = s - len(type_a)
        for pos in rng.sample(type_a, 2 - b_count):
            rows = _set(rows, pos, _head(rows[pos]), -2)
        return n, rows
    if code == "pair-intersection":
        return n, (rows[0], rows[0])
    if code == "adjacent-intersection":
        p = rng.randrange(s - 1)
        return n, rows[:p] + (rows[p + 1], rows[p]) + rows[p + 2:]
    raise ValueError(code)


TREE_CODES = (
    "attach-out-of-range",
    "shared-attachment",
    "tree-curve-not-type-a",
    "tree-not-chain",
    "tree-attach-mismatch",
    "tree-interior-meets-cycle",
    "trees-overlap",
)


def mutate_kato_tree(code, rng):
    """Return divisor rows of kato522332 with its tree broken per `code`."""
    cycle, ((chain, attach),) = KATO
    s = len(cycle)
    if code == "attach-out-of-range":
        trees = ((chain, rng.choice((-1, s, s + 1, s + 5))),)
    elif code == "shared-attachment":
        trees = ((chain, attach), (chain, attach))
    elif code == "tree-curve-not-type-a":
        pos = rng.randrange(len(chain))
        trees = ((_set(chain, pos, _head(chain[pos]), -2), attach),)
    elif code == "tree-not-chain":
        trees = ((chain[:1] + (chain[2], chain[1]) + chain[3:], attach),)
    elif code == "tree-attach-mismatch":
        trees = ((chain, 1),)
    elif code == "tree-interior-meets-cycle":
        trees = ((chain[::-1], attach),)
    elif code == "trees-overlap":
        trees = ((chain, attach), (chain, 1))
    else:
        raise ValueError(code)
    return cycle, trees


# --- the configs stream -----------------------------------------------------

@dataclass(frozen=True)
class Item:
    """One configs operation with its known answer.

    kind: cycle | divisor | smooth | graph.
    source: how a valid item is built inside the timed call:
        ("fsi", ks), ("fixture", name) or ("rows",) for prebuilt rows.
    code: the planted violation code, None for a valid item.
    """

    kind: str
    n: int
    cycle: tuple
    trees: tuple
    source: tuple
    code: str | None = None
    positions: tuple = ()


SMALL_KINDS = ("cycle", "divisor", "smooth", "graph")
# Valid cycles behind the small operations.  Their sizes are fixed, so
# every seed does the same work; the seed draws the self-intersections
# (at a fixed rank), mutation sites, smoothing positions and the order.
# Every source has a nonzero cycle class (n > s for fsi), which a walk
# of smoothings needs: it ends in one curve of class C = -e_I, I nonempty.
SOURCES = (
    ("fsi", 2, 5), ("fsi", 3, 7), ("fsi", 4, 9), ("fsi", 5, 11), ("fsi", 6, 14),
    ("oddih", 4), ("oddih", 6), ("oddih", 8), ("oddih", 10),
    ("fixture", "ex333"), ("fixture", "ih522342"), ("fixture", "kato522332"),
    ("nodal", 6, 3),
)
ROUNDS = 3
# The quadratic validate_cycle tail, each size with fixed codes.  The
# eleventh largest latency, op_tail_ms, falls among the oddih-96 cycles.
TAIL = (
    (("oddih", 160), None), (("oddih", 160), None),
    (("oddih", 160), "two-type-b"), (("oddih", 160), "adjacent-intersection"),
    (("oddih", 128), None), (("oddih", 128), None),
    (("oddih", 128), "two-type-b"), (("oddih", 128), "adjacent-intersection"),
    (("oddih", 96), None), (("oddih", 96), None),
    (("oddih", 96), "two-type-b"), (("oddih", 96), "adjacent-intersection"),
    (("fsi", 64, 160), None), (("fsi", 64, 160), "two-type-b"),
    (("fsi", 40, 100), None), (("fsi", 40, 100), "adjacent-intersection"),
)


def _ks(rng, s, n):
    """s self-intersection opposites in [2, 6] with sum(k - 1) == n."""
    parts = [1] * s
    for _ in range(n - s):
        pos = rng.choice([p for p in range(s) if parts[p] < 5])
        parts[pos] += 1
    return tuple(p + 1 for p in parts)


def _valid(rng, source):
    """(rows, trees, how the timed call builds it) for one source."""
    family = source[0]
    if family == "fsi":
        ks = _ks(rng, source[1], source[2])
        return fsi_rows(ks), (), ("fsi", ks)
    if family == "nodal":
        n, size = source[1], source[2]
        support = rng.sample(range(n), size)
        return (tuple(-1 if k in support else 0 for k in range(n)),), (), ("rows",)
    name = f"oddih-{source[1]}" if family == "oddih" else source[1]
    rows, trees = fixture_rows(name)
    return rows, trees, ("fixture", name)


def configs_stream(seed, rounds=ROUNDS, tail=True):
    """The configs workload's operations for one seed, with answers."""
    rng = random.Random(seed)
    items = []
    for r in range(rounds):
        for j, source in enumerate(SOURCES):
            for kind in SMALL_KINDS:
                rows, trees, build = _valid(rng, source)
                if kind in ("cycle", "smooth"):
                    trees = ()
                positions = ()
                if kind == "smooth":
                    positions = tuple(rng.randrange(len(rows) - k) for k in range(len(rows)))
                items.append(Item(kind, len(rows[0]), rows, trees, build, None, positions))
                if kind in ("cycle", "divisor"):
                    codes = cycle_mutations(rows)
                    code = codes[(r + j) % len(codes)]
                    n, bad = mutate_cycle(rows, code, rng)
                    items.append(Item(kind, n, bad, (), ("rows",), code))
        for code in TREE_CODES:
            cycle, trees = mutate_kato_tree(code, rng)
            items.append(Item("divisor", len(cycle[0]), cycle, trees, ("rows",), code))
    for source, code in TAIL if tail else ():
        rows = _valid(rng, source)[0]
        n = len(rows[0])
        if code is not None:
            n, rows = mutate_cycle(rows, code, rng)
        items.append(Item("cycle", n, rows, (), ("rows",), code))
    return items
