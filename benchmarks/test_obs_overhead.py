"""Benchmark: tracing must be (near) zero-cost when disabled.

Every hot stage of the simulation and serving stack carries
``repro.obs.trace.span`` calls.  With the default tracer disabled those
calls reduce to one attribute read, a branch, and the shared no-op span —
this benchmark pins that property by running the bit-packed backend (the
fastest, most span-dense path) with tracing disabled and enabled-but-idle,
and gating the relative slowdown:

* ``obs_overhead_pct`` — percentage slowdown of a bitpack ``run_arrays``
  pass with the real (disabled) tracer at the call sites, relative to the
  same pass with the backend's ``_trace`` module swapped for a do-nothing
  stub — i.e. the closest measurable stand-in for "the spans were never
  added".  The two arms run as back-to-back pairs and the median per-pair
  slowdown is reported: a slow spell of a shared host slows both passes
  of a pair alike, and the few pairs it splits do not move the median.
  The arm that runs first alternates from pair to pair, and the medians
  of the two orders are averaged, so an effect tied to the position
  within a pair cancels instead of biasing every ratio alike.

The <3% acceptance bound is asserted directly at the bench-smoke sample
budget and additionally tracked through ``benchmarks/baseline.json`` so a
future accidental de-optimisation (e.g. building attr dicts eagerly on the
disabled path) fails CI with a number attached.
"""

from __future__ import annotations

import os
import statistics
import time

from repro.analysis import random_workload, workload_input_planes
from repro.datapath.datapath import DualRailDatapath
from repro.obs import trace
from repro.sim.backends import BitpackBackend
from repro.sim.backends import bitpack as bitpack_module

#: Operand count of the overhead measurement (matches the bitpack bench).
OVERHEAD_SAMPLES = int(os.environ.get("BENCH_BITPACK_SAMPLES", "10000"))
#: Acceptance bound: disabled-tracing overhead on bitpack throughput.
MAX_OVERHEAD_PCT = 3.0
#: Repetitions per arm of the enabled-tracing measurement; the best time
#: of each arm is compared, which filters scheduler noise far better than
#: single-shot timing.
ROUNDS = int(os.environ.get("BENCH_OBS_ROUNDS", "5"))
#: (stub, instrumented) pass pairs of the disabled-overhead measurement,
#: half of them in each order.
OVERHEAD_PAIRS = 62


def _best_run_seconds(backend, planes, rounds: int) -> float:
    """Minimum wall-clock of *rounds* ``run_arrays`` passes."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        backend.run_arrays(planes)
        best = min(best, time.perf_counter() - start)
    return best


class _StubSpan:
    """The cheapest possible span: supports with/add and does nothing."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def add(self, **attrs):
        return None


_STUB_SPAN = _StubSpan()


class _StubTrace:
    """Stand-in for the ``_trace`` module: spans with zero machinery."""

    @staticmethod
    def span(name, **attrs):
        return _STUB_SPAN


def test_disabled_tracing_overhead_is_negligible(umc, bench_records):
    """Span calls on the bitpack hot path cost <3% with tracing off."""
    workload = random_workload(
        num_features=4, clauses_per_polarity=8,
        num_operands=OVERHEAD_SAMPLES, seed=5,
    )
    datapath = DualRailDatapath(workload.config)
    backend = BitpackBackend(datapath.circuit.netlist, umc)
    planes = workload_input_planes(datapath.circuit, datapath, workload)
    backend.run_arrays(planes)  # warm the levelized program + caches

    was_enabled = trace.enabled()
    trace.disable()
    real_trace = bitpack_module._trace
    stub_trace = _StubTrace()

    def pass_seconds(trace_module):
        bitpack_module._trace = trace_module
        return _best_run_seconds(backend, planes, 1)

    pairs = []
    try:
        for i in range(OVERHEAD_PAIRS):
            if i % 2 == 0:
                stub_s = pass_seconds(stub_trace)
                real_s = pass_seconds(real_trace)
            else:
                real_s = pass_seconds(real_trace)
                stub_s = pass_seconds(stub_trace)
            pairs.append((stub_s, real_s))
    finally:
        bitpack_module._trace = real_trace
        trace.reset()
        if was_enabled:
            trace.enable()

    ratios = [inst / base for base, inst in pairs]
    slowdown = (statistics.median(ratios[0::2]) + statistics.median(ratios[1::2])) / 2
    overhead_pct = max(0.0, (slowdown - 1.0) * 100.0)
    baseline_s = statistics.median(base for base, _ in pairs)
    instrumented_s = statistics.median(inst for _, inst in pairs)
    rate = OVERHEAD_SAMPLES / instrumented_s
    print(
        f"\nObs overhead: baseline={baseline_s * 1e3:.2f} ms, "
        f"instrumented={instrumented_s * 1e3:.2f} ms "
        f"({rate:,.0f} samples/s) -> {overhead_pct:.2f}% overhead"
    )
    bench_records["obs_overhead_pct"] = overhead_pct

    # Only gate at a meaningful sample budget; at tiny smoke budgets the
    # measurement is dominated by per-call fixed costs and noise.
    if OVERHEAD_SAMPLES >= 10000:
        assert overhead_pct < MAX_OVERHEAD_PCT


def test_enabled_tracing_records_without_wrecking_throughput(umc, bench_records):
    """Tracing *on* stays within 2x — spans are cheap even when recording."""
    workload = random_workload(
        num_features=4, clauses_per_polarity=8,
        num_operands=OVERHEAD_SAMPLES, seed=5,
    )
    datapath = DualRailDatapath(workload.config)
    backend = BitpackBackend(datapath.circuit.netlist, umc)
    planes = workload_input_planes(datapath.circuit, datapath, workload)
    backend.run_arrays(planes)  # warm-up

    trace.disable()
    off_s = _best_run_seconds(backend, planes, ROUNDS)
    trace.reset()
    trace.enable()
    try:
        on_s = _best_run_seconds(backend, planes, ROUNDS)
        spans = len(trace.records())
    finally:
        trace.reset()
        trace.disable()

    assert spans >= 2 * ROUNDS  # at least pack + levels per traced pass
    slowdown = on_s / off_s
    bench_records["obs_enabled_slowdown_x"] = slowdown
    print(f"\nObs enabled slowdown: {slowdown:.3f}x over {spans} spans")
    assert slowdown < 2.0
