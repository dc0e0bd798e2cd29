"""Spans around calls into liemetric's layers, for the traced benchmark run.

While ``Tracer.patched()`` is active, every traced function is replaced, in
every ``liemetric`` module that binds it, by a wrapper that records a span;
the two traced classes get a wrapped ``__init__``.  The package's files are
not changed.  Spans are recorded only inside an item opened with
``Tracer.item``, kept in memory, and reduced to per-layer metrics at the end.

A span's busy time is its duration; its self time is the duration minus the
spans it directly contains.  Memoised kernels are timed where they are first
computed, so ``geometry.curvature`` usually runs inside ``geometry.ricci``:
read composite layers by their ``self_s``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import tracemalloc
from contextlib import contextmanager
from time import perf_counter

TRACED = {
    "cli": ("load_algebra_file", "build_report", "main"),
    "lie": ("LieAlgebra", "validate_jacobi", "structure_report", "killing_form"),
    "linalg": ("SymmetricForm", "signature", "pseudo_orthonormal_basis"),
    "geometry": ("connection", "curvature", "ricci", "nabla_ric", "ricci_structural", "is_ricci_parallel",
                 "is_einstein", "is_ad_invariant", "change_basis"),
    "classify": ("classify_ricci", "type_I_decomposition", "type_II_canonical_basis",
                 "decompose_double_extension"),
    "constructions": ("catalog", "double_extension", "extension_invariants", "check_parallel_conditions",
                      "type_I_metric", "complexify", "central_extension_metric", "bordemann_cotangent"),
}

# tracemalloc peak inside the call, for the n^4 / n^6 suspects
PEAK = ("lie.validate_jacobi", "lie.structure_report", "geometry.curvature", "geometry.ricci_structural",
        "geometry.change_basis")

# spans that contain other traced spans, reported with their self time
COMPOSITE = ("cli.main", "cli.load_algebra_file", "cli.build_report", "geometry.curvature", "geometry.ricci",
             "geometry.ricci_structural", "geometry.is_ricci_parallel", "geometry.change_basis",
             "classify.classify_ricci", "classify.type_I_decomposition", "classify.decompose_double_extension",
             "constructions.catalog", "constructions.double_extension", "constructions.check_parallel_conditions",
             "constructions.type_I_metric", "constructions.central_extension_metric",
             "constructions.bordemann_cotangent")

# read once inside the constructor span: "constructor plus first .tensor"
FIRST_ACCESS = {"lie.LieAlgebra": "tensor"}

NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in output order."""
    units = {}
    for name in NAMES:
        units[f"{name}.busy_s"] = "s"
        units[f"{name}.calls"] = "count"
        if name in COMPOSITE:
            units[f"{name}.self_s"] = "s"
        if name in PEAK:
            units[f"{name}.peak_mb"] = "MiB"
    units["trace.overhead_frac"] = "ratio"
    units["trace.unattributed_frac"] = "ratio"
    return units


class _Span:
    __slots__ = ("name", "start", "end", "children", "nested", "peak")

    def __init__(self, name, nested):
        self.name = name
        self.nested = nested  # inside a span of the same name: not added to busy time again
        self.children = 0.0
        self.peak = None
        self.start = perf_counter()
        self.end = None


class Tracer:
    """Records spans in memory while patched, and reduces them to per-layer metrics."""

    def __init__(self):
        self.items = []    # (label, item span, spans recorded inside it)
        self._stack = []
        self._spans = None
        self._depth = {}
        self._peaks = []   # open PEAK spans: [span, traced bytes at entry, highest traced bytes seen]

    # -- recording ---------------------------------------------------------

    @contextmanager
    def item(self, label: str):
        """Record the spans of one benchmark item; outside items nothing is recorded."""
        root = _Span("item", False)
        self._spans, self._stack = [], [root]
        try:
            yield
        finally:
            root.end = perf_counter()
            self.items.append((label, root, self._spans))
            self._spans, self._stack = None, []

    def _open(self, name: str) -> _Span:
        depth = self._depth.get(name, 0)
        self._depth[name] = depth + 1
        if name in PEAK:
            self._enter_peak()  # before the span starts, so tracemalloc.start() is not timed
        span = _Span(name, depth > 0)
        self._stack.append(span)
        if name in PEAK:
            self._peaks[-1][0] = span
        return span

    def _close(self, span: _Span):
        span.end = perf_counter()
        self._stack.pop()
        self._stack[-1].children += span.end - span.start
        self._depth[span.name] -= 1
        if span.name in PEAK:
            self._exit_peak()
        self._spans.append(span)

    def _flush_peaks(self):
        peak = tracemalloc.get_traced_memory()[1]
        for frame in self._peaks:
            frame[2] = max(frame[2], peak)
        tracemalloc.reset_peak()

    def _enter_peak(self):
        if not self._peaks:
            tracemalloc.start()
        else:
            self._flush_peaks()
        current = tracemalloc.get_traced_memory()[0]
        self._peaks.append([None, current, current])

    def _exit_peak(self):
        self._flush_peaks()
        span, start, high = self._peaks.pop()
        span.peak = high - start
        if not self._peaks:
            tracemalloc.stop()

    # -- patching ----------------------------------------------------------

    def _wrap(self, name: str, fn, first_access: str | None = None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._spans is None:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
                if first_access:
                    getattr(args[0], first_access)
                return out
            finally:
                self._close(span)
        return traced

    @contextmanager
    def patched(self):
        """Route every traced function and constructor through a span wrapper."""
        modules = [m for key, m in list(sys.modules.items()) if key == "liemetric" or key.startswith("liemetric.")]
        saved = []
        try:
            for mod_name, attrs in TRACED.items():
                mod = importlib.import_module(f"liemetric.{mod_name}")
                for attr in attrs:
                    name = f"{mod_name}.{attr}"
                    orig = getattr(mod, attr)
                    if isinstance(orig, type):
                        saved.append((orig, "__init__", orig.__dict__["__init__"]))
                        orig.__init__ = self._wrap(name, orig.__init__, FIRST_ACCESS.get(name))
                        continue
                    wrapper = self._wrap(name, orig)
                    for module in modules:
                        for key, value in list(vars(module).items()):
                            if value is orig:
                                saved.append((module, key, orig))
                                setattr(module, key, wrapper)
            yield self
        finally:
            for obj, key, value in reversed(saved):
                setattr(obj, key, value)

    # -- reduction ---------------------------------------------------------

    def layer_metrics(self, passes: int) -> dict:
        """Per-layer totals of the items labelled "setup" plus the mean over ``passes`` traced passes."""
        sums = {phase: {stat: dict.fromkeys(NAMES, 0.0) for stat in ("busy_s", "calls", "self_s")}
                for phase in ("setup", "pass")}
        peak = dict.fromkeys(NAMES, 0.0)
        item_time = uncovered = 0.0
        for label, root, spans in self.items:
            phase = sums["setup" if label == "setup" else "pass"]
            if label != "setup":
                item_time += root.end - root.start
                uncovered += root.end - root.start - root.children
            for span in spans:
                duration = span.end - span.start
                phase["calls"][span.name] += 1
                phase["self_s"][span.name] += duration - span.children
                if not span.nested:
                    phase["busy_s"][span.name] += duration
                if span.peak is not None:
                    peak[span.name] = max(peak[span.name], span.peak / 2 ** 20)
        out = {}
        for name in NAMES:
            for stat in ("busy_s", "calls", "self_s"):
                if stat != "self_s" or name in COMPOSITE:
                    out[f"{name}.{stat}"] = sums["setup"][stat][name] + sums["pass"][stat][name] / passes
            if name in PEAK:
                out[f"{name}.peak_mb"] = peak[name]
        out["trace.unattributed_frac"] = uncovered / item_time if item_time else 0.0
        return out
