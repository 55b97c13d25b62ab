"""Per-layer tracing by wrapping spincomb's public functions in place.

:func:`install` replaces each function below, in every spincomb module
that binds it, by a wrapper that records calls, total time and self time
(total minus the time of wrapped callees).  Modules call one another
through these module attributes, so the wrappers see every cross-layer
call without any change to spincomb.  Functions called hundreds of
thousands of times per run (``valency``, ``EdgeSubset`` methods) and
private helpers are left alone to keep the overhead small.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Tuple

LAYERS: Dict[str, Tuple[str, ...]] = {
    "graphs": (
        "build_graph", "connected_components", "betti_number", "induced_subgraph",
        "separating_edges", "separating_vertices", "subset_betti",
    ),
    "cycles": (
        "boundary", "is_cyclic", "cycle_basis", "cyclic_sets", "cyclic_betti_set",
        "is_eulerian",
    ),
    "spin": (
        "curve_genus", "is_compact_type", "spin_report", "multiplicity_set",
        "support_description", "check_corollary_split",
    ),
    "transforms": (
        "eliminate_valency1", "smooth_valency2", "is_superstable",
        "superstable_reduction", "are_isomorphic", "is_loop_graph", "is_tetrahedron",
        "is_fat_triangle", "is_split", "classify", "check_theorem2", "check_theorem3",
    ),
    "enumeration": ("canonical_form", "enumerate_multigraphs", "sweep_theorem2", "sweep_theorem3"),
    "curvefile": ("parse_curve",),
    "cli": ("main", "cmd_analyze", "cmd_spin", "cmd_classify", "cmd_evensets", "cmd_verify"),
}

# generator functions: time is summed over resumptions, items are counted
GENERATORS = {"cycles.cyclic_sets", "enumeration.enumerate_multigraphs"}


def _betti(g) -> int:
    parent = list(range(g.vertex_count))

    def root(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    cycles = 0
    for a, b in g.edges:
        ra, rb = root(a), root(b)
        if ra == rb:
            cycles += 1
        else:
            parent[ra] = rb
    return cycles


def _count_betti_set(counts, args, result) -> None:
    counts["betti_yield.found"] += len(result)
    counts["betti_yield.visited"] += 1 << _betti(args[0])


def _count_spin_report(counts, args, result) -> None:
    counts["spin_report.sets"] += result.even_set_count
    counts["betti_yield.found"] += len(result.multiplicity_set_exponents)
    counts["betti_yield.visited"] += result.even_set_count


def _count_reduction(counts, args, result) -> None:
    counts["superstable_reduction.vertices_removed"] += (
        args[0].vertex_count - result.vertex_count
    )


def _count_parse(counts, args, result) -> None:
    counts["parse_curve.bytes"] += len(args[0].encode())


# counters taken from arguments and results, outside the timed interval
HOOKS: Dict[str, Callable] = {
    "cycles.cyclic_betti_set": _count_betti_set,
    "spin.spin_report": _count_spin_report,
    "transforms.superstable_reduction": _count_reduction,
    "curvefile.parse_curve": _count_parse,
}


class Tracer:
    """Span statistics for one traced pass; :meth:`reset` between passes."""

    def __init__(self):
        self.originals: List[Tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        # name -> [calls, total seconds, self seconds, items yielded]
        self.stats: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0, 0])
        self.counts: Dict[str, int] = defaultdict(int)
        self.top_level = 0.0  # seconds inside spans with no traced caller
        self._stack: List[float] = []  # per open span: time of traced callees

    def _close(self, name: str, elapsed: float) -> None:
        callees = self._stack.pop()
        stat = self.stats[name]
        stat[1] += elapsed
        stat[2] += elapsed - callees
        if self._stack:
            self._stack[-1] += elapsed
        else:
            self.top_level += elapsed

    def wrap(self, name: str, fn: Callable) -> Callable:
        hook = HOOKS.get(name)

        def traced(*args, **kwargs):
            self.stats[name][0] += 1
            self._stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, perf_counter() - start)
            if hook is not None:
                hook(self.counts, args, result)
            return result

        def traced_generator(*args, **kwargs):
            inner = fn(*args, **kwargs)
            stat = self.stats[name]
            stat[0] += 1
            try:
                while True:
                    self._stack.append(0.0)
                    start = perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(name, perf_counter() - start)
                    stat[3] += 1
                    yield item
            finally:
                inner.close()

        wrapper = traced_generator if name in GENERATORS else traced
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every function in LAYERS wherever a spincomb module binds it."""
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "spincomb"]
        for layer, names in LAYERS.items():
            home = importlib.import_module(f"spincomb.{layer}")
            for fname in names:
                original = getattr(home, fname, None)
                if original is None:  # renamed or removed: reads as 0
                    continue
                wrapper = self.wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self.originals.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self.originals):
            setattr(module, attr, original)
        self.originals.clear()

    def snapshot(self) -> dict:
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "counts": dict(self.counts),
            "top_level": self.top_level,
        }
