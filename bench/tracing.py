"""Spans and counts recorded from the benchmark's side of each call.

`Tracer.install()` replaces selected public functions with wrappers in
every loaded donlat module that holds them, so calls between modules
(census -> enumerate_cycles -> candidate_curve_classes, smooth_node ->
validate_cycle, ...) nest as spans too.  `uninstall()` puts the
originals back.  Functions that run millions of times per pass
(lattice arithmetic, classify) are not wrapped; probe.py times them in
tight loops instead.

Spans are kept in memory as [name, start_ns, end_ns, parent, op, phase]
and written out by `dump()` when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from pathlib import Path

WRAPPED = {
    "oracle": (
        "census",
        "enumerate_cycles",
        "candidate_curve_classes",
        "verify_chain_dichotomy",
        "verify_internonvide",
        "verify_rational_pattern",
    ),
    "cycle": ("validate_cycle", "betti_check", "from_selfintersections"),
    "divisor": ("validate_maximal_divisor",),
    "deform": ("smooth_node",),
    "graph": ("divisor_graph", "to_dot"),
    "fixtures": ("fixture",),
    "cli": ("main",),
}
LAYERS = tuple(WRAPPED)


def _span_name(name: str, args: tuple, kwargs: dict) -> str:
    if name == "oracle.enumerate_cycles" and not kwargs.get("symmetry", args[2] if len(args) > 2 else True):
        return "oracle.enumerate_cycles_raw"
    return name


def _count_result(counts: Counter, name: str, result) -> None:
    """Counts taken at the same boundary as the span."""
    if name == "oracle.enumerate_cycles":
        counts["oracle.enumerate_cycles.classes"] += len(result)
    elif name == "oracle.enumerate_cycles_raw":
        counts["oracle.enumerate_cycles_raw.tuples"] += len(result)
    elif name == "oracle.verify_internonvide":
        counts["oracle.verify_internonvide.positives"] += len(result.positives)
    elif name == "divisor.validate_maximal_divisor":
        for code in result.codes():
            counts["divisor.violations." + code] += 1


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, Counter] = {}
        self.phase = "workload"
        self.op_id = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # --- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op_id, self.phase])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._stack.pop()

    def op(self, kind: str, run):
        """Run one operation as a root span with a fresh op id."""
        self.op_id += 1
        index = self._open("op." + kind)
        try:
            return run()
        finally:
            self._close(index)

    def _wrap(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = _span_name(name, args, kwargs)
            index = self._open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            _count_result(counts.setdefault(self.phase, Counter()), span, result)
            return result

        return wrapper

    # --- patching ----------------------------------------------------------

    def install(self) -> None:
        import donlat.cli  # noqa: F401  (load every module before patching)

        modules = [m for k, m in sys.modules.items() if k == "donlat" or k.startswith("donlat.")]
        for layer, names in WRAPPED.items():
            home = sys.modules["donlat." + layer]
            for fn_name in names:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{layer}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    # --- reading -----------------------------------------------------------

    def durations(self, phase: str) -> dict[str, list[int]]:
        """Span durations in ns by name."""
        out: dict[str, list[int]] = {}
        for name, start, end, _, _, ph in self.spans:
            if ph == phase:
                out.setdefault(name, []).append(end - start)
        return out

    def self_ns(self, phase: str) -> Counter:
        """Self time per layer: span time not covered by child spans."""
        child = Counter()
        for _, start, end, parent, _, ph in self.spans:
            if ph == phase and parent >= 0:
                child[parent] += end - start
        out = Counter()
        for index, (name, start, end, _, _, ph) in enumerate(self.spans):
            layer = name.split(".", 1)[0]
            if ph == phase and layer in LAYERS:
                out[layer] += end - start - child[index]
        return out

    def covered_ns(self, phase: str, parent_name: str, child_names: tuple[str, ...]) -> tuple[int, int]:
        """(time of `parent_name` spans, time of their direct children named in child_names)."""
        total = 0
        parents = set()
        for index, (name, start, end, _, _, ph) in enumerate(self.spans):
            if ph == phase and name == parent_name:
                total += end - start
                parents.add(index)
        covered = sum(
            end - start
            for name, start, end, parent, _, ph in self.spans
            if ph == phase and parent in parents and name in child_names
        )
        return total, covered

    def dump(self, path: Path) -> None:
        path.write_text(
            json.dumps(
                {
                    "fields": ["name", "start_ns", "end_ns", "parent", "op", "phase"],
                    "spans": self.spans,
                    "counts": {phase: dict(c) for phase, c in self.counts.items()},
                }
            )
        )
