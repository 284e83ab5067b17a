"""Per-layer tracing from outside the program.

The benchmark reports per-layer metrics without changing a file under
``src/``: :class:`LayerTracer` wraps the public entry point of each layer
(one layer per module) and records a span per call, with the span's self
time (its duration minus the time of the traced calls nested inside it).

Callers import layer functions by name (``from repro.analysis.measure
import build_mapped_dual_rail``), so a wrapper has to replace the name in
every module that holds it, not only in the defining one;
:meth:`LayerTracer.patch_function` does that by identity.

Spans are recorded only while :attr:`LayerTracer.active` is set, so set-up
work (imports, building a model, warming a gateway) lands in
``setup_s`` and not in the layer table.  An entry point that no longer
exists raises :class:`MissingLayer`, so a renamed layer breaks the traced
run instead of reading 0.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np


@dataclass
class Span:
    """One traced call of a layer entry point."""

    layer: str
    start: float
    end: float
    self_s: float
    samples: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class LayerTracer:
    """Records spans around patched layer entry points."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.active = False
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, fn: Callable,
             samples_of: Optional[Callable] = None) -> Callable:
        """*fn* timed as *layer*; ``samples_of(result)`` counts its samples."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._stack()
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                nested = stack.pop()
                if stack:
                    stack[-1] += end - start
            span = Span(layer, start, end, (end - start) - nested,
                        samples_of(result) if samples_of else 0)
            with self._lock:
                self.spans.append(span)
            return result

        return traced

    def record(self, layer: str, start: float, end: float) -> None:
        """Add a span measured by the caller (waits between layers)."""
        with self._lock:
            self.spans.append(Span(layer, start, end, end - start))

    def patch_function(self, module: str, name: str, layer: str,
                       samples_of: Optional[Callable] = None) -> None:
        """Wrap ``module.name`` and every ``repro`` module alias of it."""
        original = getattr(importlib.import_module(module), name, None)
        if original is None:
            raise MissingLayer(f"{layer}: {module}.{name} not found")
        traced = self.wrap(layer, original, samples_of)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            if getattr(mod, name, None) is original:
                setattr(mod, name, traced)

    def patch_method(self, module: str, cls: str, name: str, layer: str,
                     samples_of: Optional[Callable] = None) -> None:
        """Wrap the method ``module.cls.name`` for every instance."""
        owner = getattr(importlib.import_module(module), cls, None)
        if owner is None or name not in vars(owner):
            raise MissingLayer(f"{layer}: {module}.{cls}.{name} not found")
        setattr(owner, name, self.wrap(layer, vars(owner)[name], samples_of))

    def of(self, layer: str) -> List[Span]:
        return [span for span in self.spans if span.layer == layer]


class MissingLayer(LookupError):
    """A layer entry point the traced run wraps no longer exists."""


def install_batch_layers(tracer: LayerTracer) -> None:
    """Wrap the layers the DSE workload passes through."""
    tracer.patch_method("repro.tm.machine", "TsetlinMachine", "fit", "tm.train")
    tracer.patch_function("repro.analysis.measure", "build_mapped_dual_rail", "synth.map")
    tracer.patch_function("repro.sim.program", "compile_program", "program.compile")
    tracer.patch_function("repro.sim.kernels", "build_grouped_plan", "kernels.plan")
    for module, cls in (("repro.sim.backends.bitpack", "BitpackBackend"),
                        ("repro.sim.backends.batch", "BatchBackend")):
        tracer.patch_method(module, cls, "run_timed", "timed.run",
                            samples_of=lambda result: int(result.samples))
    tracer.patch_function("repro.analysis.measure", "timed_dual_rail_run",
                          "measure.assemble")
    tracer.patch_function("repro.analysis.experiments", "measure_dual_rail", "measure.self")
    tracer.patch_function("repro.analysis.experiments", "measure_single_rail",
                          "event.single_rail")
    tracer.patch_function("repro.explore.evaluate", "evaluate_point", "explore.point")


class TracedSession:
    """A ``BackendSession`` stand-in that times ``run_arrays`` per word."""

    def __init__(self, session, tracer: LayerTracer) -> None:
        self._session = session
        self.run_arrays = tracer.wrap("kernels.word", session.run_arrays)

    def __getattr__(self, name):
        return getattr(self._session, name)


class TracedClassifier:
    """Wraps an ``InProcessClassifier``: records every word's classify span.

    ``words`` holds ``(start, end, lanes)`` per classified word in dispatch
    order; with one dispatch slot that is also the order the gateway took
    requests off its FIFO queue, which is how the serve workloads map a
    request to the word that carried it.
    """

    def __init__(self, classifier, tracer: LayerTracer) -> None:
        self.classifier = classifier
        self.worker = classifier.worker
        self.words: List[Tuple[float, float, int]] = []
        self.recording = False
        self.worker.session = TracedSession(self.worker.session, tracer)
        self._classify = tracer.wrap("worker.classify", classifier.classify)

    def classify(self, features):
        start = time.perf_counter()
        reply = self._classify(features)
        if self.recording:
            self.words.append((start, time.perf_counter(), len(features)))
        return reply

    def close(self) -> None:
        self.classifier.close()


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile; 0.0 for an empty sample."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def covered_seconds(intervals: Sequence[Tuple[float, float]]) -> float:
    """Length of the union of *intervals*."""
    total = 0.0
    cursor = float("-inf")
    for start, end in sorted(intervals):
        if end <= cursor:
            continue
        total += end - max(start, cursor)
        cursor = end
    return total


def layer_metrics(tracer: LayerTracer, wall_s: float,
                  window: Tuple[float, float]) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition (serve-only ones excluded).

    *window* is the measured phase; the share of it that no span covers is
    ``trace.unattributed_pct``.
    """
    def total(layer: str) -> float:
        return sum(span.duration for span in tracer.of(layer))

    def self_time(layer: str) -> float:
        return sum(span.self_s for span in tracer.of(layer))

    timed = tracer.of("timed.run")
    points_ms = [span.duration * 1e3 for span in tracer.of("explore.point")]
    start, end = window
    inside = [(max(s.start, start), min(s.end, end)) for s in tracer.spans
              if s.end > start and s.start < end]
    return {
        "tm.train_s": total("tm.train"),
        "tm.fits": float(len(tracer.of("tm.train"))),
        "synth.map_s": total("synth.map"),
        "synth.maps": float(len(tracer.of("synth.map"))),
        "program.compile_s": total("program.compile"),
        "program.compiles": float(len(tracer.of("program.compile"))),
        "kernels.plan_s": total("kernels.plan"),
        "timed.run_s": total("timed.run"),
        "timed.calls": float(len(timed)),
        "timed.samples": float(sum(span.samples for span in timed)),
        "timed.ms_per_call": total("timed.run") * 1e3 / len(timed) if timed else 0.0,
        "measure.assemble_s": self_time("measure.assemble"),
        "measure.self_s": self_time("measure.self"),
        "event.single_rail_s": total("event.single_rail"),
        "event.single_rail_calls": float(len(tracer.of("event.single_rail"))),
        "explore.point_ms.p50": percentile(points_ms, 50),
        "explore.point_ms.max": max(points_ms, default=0.0),
        "explore.self_s": self_time("explore.point"),
        "trace.unattributed_pct": 100.0 * (1.0 - covered_seconds(inside) / wall_s),
    }
