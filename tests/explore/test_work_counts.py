"""Exact work counts of the smoke sweep under vectorized timing.

Counts do not depend on the host, so they are pinned exactly: a change that
makes the sweep map, compile, time, simulate or analyse more often fails
here, whatever the wall clock says.  Each entry point is counted through
every ``repro`` module alias of it, as the repository benchmark's layer
tracer patches them.  The smoke grid is 36 designs (24 dual-rail, 12
clocked) at two supplies; each design is characterised once, at nominal.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter

import repro.explore.evaluate as evaluate
from repro.explore import EvaluationSettings, named_grid, run_sweep

EXPECTED = {
    "build_mapped_dual_rail": 24,
    "compile_program": 24,
    "run_timed": 24,
    "run_timed.samples": 768,
    "measure_single_rail": 12,
    "static_timing_analysis": 36,
    "fit": 6,
}


def count_function(monkeypatch, counts, module, name):
    """Count calls of ``module.name`` through every ``repro`` alias of it."""
    original = getattr(importlib.import_module(module), name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    for alias, mod in list(sys.modules.items()):
        if mod is not None and alias.startswith("repro"):
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)


def count_method(monkeypatch, counts, module, cls, name, samples=False):
    """Count calls of the method ``module.cls.name`` (and samples timed)."""
    owner = getattr(importlib.import_module(module), cls)
    original = vars(owner)[name]

    def counted(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        counts[name] += 1
        if samples:
            counts[f"{name}.samples"] += int(result.samples)
        return result

    monkeypatch.setattr(owner, name, counted)


def test_smoke_sweep_work_counts(monkeypatch):
    monkeypatch.setattr(evaluate, "_WORKLOAD_CACHE", {})
    monkeypatch.setattr(evaluate, "_NOMINAL_MEMO", {})
    counts = Counter()
    count_function(monkeypatch, counts, "repro.analysis.measure",
                   "build_mapped_dual_rail")
    count_function(monkeypatch, counts, "repro.sim.program", "compile_program")
    count_function(monkeypatch, counts, "repro.analysis.experiments",
                   "measure_single_rail")
    count_function(monkeypatch, counts, "repro.sim.sta", "static_timing_analysis")
    for module, cls in (("repro.sim.backends.bitpack", "BitpackBackend"),
                        ("repro.sim.backends.batch", "BatchBackend")):
        count_method(monkeypatch, counts, module, cls, "run_timed", samples=True)
    count_method(monkeypatch, counts, "repro.tm.machine", "TsetlinMachine", "fit")

    result = run_sweep(named_grid("smoke"), EvaluationSettings(seed=1),
                       timing_backend="vectorized", jobs=1)

    assert len(result.points) == 72
    assert dict(counts) == EXPECTED
