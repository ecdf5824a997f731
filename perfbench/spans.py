"""Span tracing of the ocdm_radar layers from outside the package.

``Tracer.install`` wraps every public function of each layer module (the
names in its ``__all__``, or its public functions when it has none) and
rebinds the wrapper wherever the original is bound in the package.  The
rebinding matters: ``cli`` and ``analysis`` call names they imported with
``from .x import y``, so patching only the defining module would miss them.

A span's self time is its duration minus the durations of the wrapped spans
directly nested inside it; summed over every span this partitions the
outermost spans' time, so the layer self times add up to the traced
``cli.main`` time.

With ``memory=True`` tracemalloc runs and each layer reports the largest
allocation peak above a span's entry level seen while one of its spans was
open.  Tracing is paused inside ``numpy.savetxt``: its per-value string
formatting runs ~13x slower under tracemalloc and allocates only row-sized
strings.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
import tracemalloc

PACKAGE = "ocdm_radar"
LAYERS = ("fresnel", "framing", "channel", "rxproc", "comms", "analysis", "cli")
COUNTERS = (
    "fresnel.columns",
    "fresnel.bytes_computed",
    "channel.target_passes",
    "channel.samples",
    "rxproc.export_s",
    "rxproc.export_bytes",
    "analysis.papr_trials",
    "analysis.sweep_cells",
)


def _transform_counts(counters, args, result):
    x = args["x"]
    ndim = getattr(x, "ndim", 1)
    counters["fresnel.columns"] += x.shape[1] if ndim == 2 else 1
    counters["fresnel.bytes_computed"] += getattr(x, "nbytes", 0) + result.nbytes


def _shift_channel_counts(counters, args, result):
    counters["channel.target_passes"] += len(args["shifts"])
    counters["channel.samples"] += len(args["stream"])


def _comm_channel_counts(counters, args, result):
    counters["channel.samples"] += len(args["stream"])


def _export_counts(counters, args, result):
    counters["rxproc.export_bytes"] += sum(os.path.getsize(p) for p in result)


def _papr_counts(counters, args, result):
    counters["analysis.papr_trials"] += args["trials"]


def _sweep_counts(counters, args, result):
    counters["analysis.sweep_cells"] += len(args["n_grid"]) * len(args["k_grid"])


# (layer, function) -> counter hook called with the bound arguments and result.
_COUNTER_HOOKS = {
    ("fresnel", "dfnt_fast"): _transform_counts,
    ("fresnel", "idfnt_fast"): _transform_counts,
    ("fresnel", "dfnt_direct"): _transform_counts,
    ("fresnel", "idfnt_direct"): _transform_counts,
    ("channel", "apply_shift_channel"): _shift_channel_counts,
    ("channel", "apply_comm_channel"): _comm_channel_counts,
    ("rxproc", "image_to_csv"): _export_counts,
    ("analysis", "papr_ccdf"): _papr_counts,
    ("analysis", "doppler_tolerance_sweep"): _sweep_counts,
}
# Spans whose duration is also reported as a counter of their own.
_TIMED_SPANS = {("rxproc", "image_to_csv"): "rxproc.export_s"}


class _Span:
    __slots__ = ("layer", "start", "child_s", "entry_bytes", "peak_above")

    def __init__(self, layer, start, entry_bytes):
        self.layer = layer
        self.start = start
        self.child_s = 0.0
        self.entry_bytes = entry_bytes
        self.peak_above = 0


class Tracer:
    """Per-layer self time, call counts, allocation peaks and work counters."""

    def __init__(self, memory: bool = False, clock=time.perf_counter):
        self.memory = memory
        self.clock = clock
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.calls = {layer: 0 for layer in LAYERS}
        self.alloc_peak = {layer: 0 for layer in LAYERS}
        self.counters = {name: 0 for name in COUNTERS}
        self._stack: list[_Span] = []
        self._restore: list[tuple[object, str, object]] = []
        self._offset = 0

    # -- spans ---------------------------------------------------------------
    def _memory_event(self) -> int:
        """Fold the peak since the last event into every open span; return the level."""
        current, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        current += self._offset
        peak += self._offset
        for span in self._stack:
            span.peak_above = max(span.peak_above, peak - span.entry_bytes)
        return current

    def enter(self, layer: str) -> None:
        entry = self._memory_event() if self.memory else 0
        self._stack.append(_Span(layer, self.clock(), entry))

    def exit(self) -> float:
        """Close the innermost span; returns its duration."""
        end = self.clock()
        if self.memory:
            self._memory_event()
        span = self._stack.pop()
        duration = end - span.start
        self.self_s[span.layer] += duration - span.child_s
        self.calls[span.layer] += 1
        self.alloc_peak[span.layer] = max(self.alloc_peak[span.layer], span.peak_above)
        if self._stack:
            self._stack[-1].child_s += duration
        return duration

    def wrap(self, layer: str, fn):
        hook = _COUNTER_HOOKS.get((layer, fn.__name__))
        timed = _TIMED_SPANS.get((layer, fn.__name__))
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = self.exit()
            if timed:
                self.counters[timed] += duration
            if hook:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self.counters, bound.arguments, result)
            return result

        traced.__wrapped_layer__ = layer
        return traced

    # -- memory pauses -------------------------------------------------------
    def _untraced(self, fn):
        @functools.wraps(fn)
        def paused(*args, **kwargs):
            self._offset = self._memory_event()
            tracemalloc.stop()
            try:
                return fn(*args, **kwargs)
            finally:
                tracemalloc.start()

        return paused

    # -- installation --------------------------------------------------------
    def install(self) -> None:
        """Wrap every layer's public functions and rebind them package-wide."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for name in _public_names(module):
                fn = getattr(module, name)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = (fn, self.wrap(layer, fn))
        for module in _package_modules():
            for name, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._rebind(module, name, wrappers[id(value)][1])
        if self.memory:
            import numpy

            self._rebind(numpy, "savetxt", self._untraced(numpy.savetxt))
            tracemalloc.start()

    def uninstall(self) -> None:
        if self.memory and tracemalloc.is_tracing():
            tracemalloc.stop()
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _rebind(self, owner, name, replacement) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def report(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "alloc_peak_bytes": dict(self.alloc_peak),
            "counters": dict(self.counters),
        }


def _public_names(module) -> list[str]:
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    return list(names)


def _package_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]
