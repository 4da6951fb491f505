"""Spans around the package's public functions, recorded from outside the package.

``Tracer.installed`` rebinds each traced function in every ``sumspace`` module
namespace that holds it, so calls the package makes internally (``k_curve``
calling ``build_pipeline`` calling ``build_net``, ``k_curve`` importing
``oracle1d.k_exact``) are timed without editing the package.  Each span keeps
its name, its parent, its operation id, start and end; they stay in memory
until ``layer_metrics`` aggregates them per operation.  A tracer made with
``peaks=True`` also switches ``tracemalloc`` on inside the layers in
``PEAK_LAYERS``; that slows them several times over, so its times are not
reported.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Callable

MIB = 1024.0 * 1024.0

# home module -> public functions timed as spans
TRACED = {
    "concentration": ("build_net",),
    "whitney": ("build_whitney", "assign_anchors"),
    "lacunae": ("partition_lacunae",),
    "decompose": ("build_extension", "estimate_sobolev_seminorm", "mu_norm_f2"),
    "functional": (
        "build_pipeline",
        "upper_estimate",
        "build_reference_family",
        "search_lower_bound",
        "k_curve",
    ),
    "oracle1d": ("sigma_norm_exact", "k_exact"),
}

# layers whose peak of new allocations is measured; none runs inside another
PEAK_LAYERS = {
    "concentration.build_net",
    "whitney.build_whitney",
    "decompose.estimate_sobolev_seminorm",
    "functional.build_reference_family",
}

# per-layer metrics counted by the wrappers rather than timed
COUNTERS = {
    "concentration.net_points",
    "whitney.cubes",
    "whitney.holes",
    "whitney.adjacency_edges",
    "lacunae.count",
    "functional.reference_pairs",
    "functional.candidates_attempted",
}


def _result_counts(name: str, result) -> dict[str, int]:
    """Work counters read from a traced function's return value."""
    if name == "concentration.build_net":
        return {"concentration.net_points": result.size}
    if name == "whitney.build_whitney":
        return {
            "whitney.cubes": result.size,
            "whitney.holes": len(result.hole_halves),
            "whitney.adjacency_edges": sum(len(nb) for nb in result.neighbors) // 2,
        }
    if name == "lacunae.partition_lacunae":
        return {"lacunae.count": len(result)}
    if name == "functional.build_reference_family":
        return {"functional.reference_pairs": len(result.pairs)}
    return {}


@dataclass
class Span:
    name: str
    op: int
    parent: int | None  # index into Tracer.spans
    start: float
    end: float = 0.0
    child_s: float = 0.0
    peak_bytes: int = 0  # largest total of blocks allocated while open (PEAK_LAYERS)


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    ops: int = 0
    peaks: bool = False
    clock: Callable[[], float] = time.perf_counter  # speed.Meter.clock leaves the kernel out
    _open: list[int] = field(default_factory=list)
    _patches: list[tuple[object, str, object]] = field(default_factory=list)

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, self.ops, parent, self.clock()))
        self._open.append(len(self.spans) - 1)
        if self.peaks and name in PEAK_LAYERS:
            tracemalloc.start()
        return self._open[-1]

    def _exit(self, idx: int) -> None:
        end = self.clock()
        span = self.spans[idx]
        if self.peaks and span.name in PEAK_LAYERS:
            span.peak_bytes = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        span.end = end
        self._open.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += end - span.start

    def run_op(self, fn, *args):
        """Call ``fn(*args)`` as one operation under a root span."""
        idx = self._enter("op")
        try:
            return fn(*args)
        finally:
            self._exit(idx)
            self.ops += 1

    def _count(self, key: str, by: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            for key, by in _result_counts(name, result).items():
                self._count(key, by)
            return result

        return traced

    def _wrap_search(self, fn):
        """Span for ``search_lower_bound`` that counts admissible candidates via ``collect=``."""
        traced = self._wrap("functional.search_lower_bound", fn)

        @functools.wraps(fn)
        def counted(*args, collect=None, **kwargs):
            mine = [] if collect is None else collect
            before = len(mine)
            try:
                return traced(*args, collect=mine, **kwargs)
            finally:
                self._count("functional.candidates_admissible", len(mine) - before)

        return counted

    def _wrap_attempt(self, fn):
        """Counter, without a span, on each candidate family the search evaluates."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self._count("functional.candidates_attempted", 1)
            return fn(*args, **kwargs)

        return counted

    # -- installation --------------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname != "sumspace" and not modname.startswith("sumspace."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    @contextlib.contextmanager
    def installed(self):
        """The tracer, with its wrappers bound in the package while the block runs."""
        for short, names in TRACED.items():
            home = importlib.import_module(f"sumspace.{short}")
            for fn_name in names:
                fn = getattr(home, fn_name)
                if fn_name == "search_lower_bound":
                    self._rebind(fn, self._wrap_search(fn))
                else:
                    self._rebind(fn, self._wrap(f"{short}.{fn_name}", fn))
        functional = importlib.import_module("sumspace.functional")
        attempt = functional.eval_family_functional
        # only the functional namespace: the search looks the name up there
        self._patches.append((functional, "eval_family_functional", attempt))
        functional.eval_family_functional = self._wrap_attempt(attempt)
        try:
            yield self
        finally:
            for mod, attr, original in reversed(self._patches):
                setattr(mod, attr, original)
            self._patches.clear()

    # -- aggregation ---------------------------------------------------------

    def layer_metrics(self, names: list[str]) -> dict[str, float]:
        """The named metrics: per-operation busy and self seconds, calls and
        counters, the largest peak, and the admissible share of candidates."""
        ops = max(self.ops, 1)
        busy: dict[str, float] = {}
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        peak: dict[str, float] = {}
        for s in self.spans:
            dur = s.end - s.start
            busy[s.name] = busy.get(s.name, 0.0) + dur
            self_s[s.name] = self_s.get(s.name, 0.0) + dur - s.child_s
            calls[s.name] = calls.get(s.name, 0) + 1
            peak[s.name] = max(peak.get(s.name, 0.0), s.peak_bytes / MIB)
        attempted = self.counts.get("functional.candidates_attempted", 0)
        admissible = self.counts.get("functional.candidates_admissible", 0)
        out: dict[str, float] = {}
        for key in names:
            layer, _, stat = key.rpartition(".")
            if stat == "busy_s":
                out[key] = busy.get(layer, 0.0) / ops
            elif stat == "self_s":
                out[key] = self_s.get(layer, 0.0) / ops
            elif stat == "calls":
                out[key] = calls.get(layer, 0) / ops
            elif stat == "peak_mib":
                out[key] = peak.get(layer, 0.0)
            elif key in COUNTERS:
                out[key] = self.counts.get(key, 0) / ops
            elif key == "functional.admissible_ratio":
                out[key] = admissible / attempted if attempted else 0.0
        return out
