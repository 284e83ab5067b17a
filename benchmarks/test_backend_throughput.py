"""Benchmark: event-driven vs vectorized vs bit-packed backend throughput.

Pushes the paper-scale datapath's full operand encoding through the
simulation backends and records the regression-tracking figures that end up
in ``BENCH_sim.json``:

* ``event_backend_events_per_sec`` / ``event_backend_samples_per_sec`` —
  the event-driven reference, measured over a small operand subset (it is
  the slow path; extrapolating its rate keeps the bench fast);
* ``batch_backend_samples_per_sec`` — the levelized NumPy engine over the
  full 1000-sample batch;
* ``batch_vs_event_speedup`` — the headline ratio, asserted to be >= 10x
  (in practice it is two to three orders of magnitude);
* ``bitpack_backend_samples_per_sec`` / ``bitpack_vs_batch_speedup`` — the
  bit-packed 64-lane engine vs the batch engine on the same 10k-sample
  stream, asserted to be >= 5x (in practice ~10x);
* ``fused_bitpack_samples_per_sec`` — the bitpack backend's grouped
  kernel engine alone (run-only after a warm-up, spacer activity
  baseline) at 10k samples, checked value for value and transition for
  transition against the looped batch reference;
* ``timed_backend_samples_per_sec`` / ``timed_vs_event_speedup`` — the
  vectorized data-dependent timing engine (full handshake cycles: latency,
  reset and energy per sample) vs per-operand event-driven handshakes on a
  10k-operand stream, asserted to be >= 10x (in practice two to three
  orders of magnitude).
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.analysis import random_workload
from repro.analysis import workload_input_planes
from repro.analysis.measure import (
    build_mapped_dual_rail,
    make_dual_rail_environment,
    spacer_assignments,
)
from repro.core.dual_rail import encode_bit
from repro.datapath.datapath import DualRailDatapath
from repro.sim.backends import BatchBackend, BitpackBackend, EventBackend

#: Batch size of the vectorized measurement (the acceptance criterion's 1k).
BATCH_SAMPLES = int(os.environ.get("BENCH_BATCH_SAMPLES", "1000"))
#: Operands pushed through the (slow) event backend to estimate its rate.
EVENT_SAMPLES = int(os.environ.get("BENCH_EVENT_SAMPLES", "8"))
#: Batch size of the bitpack-vs-batch comparison (the acceptance criterion's
#: 10k; deliberately ragged would also work — tails are masked).
BITPACK_SAMPLES = int(os.environ.get("BENCH_BITPACK_SAMPLES", "10000"))
#: Operand count of the timed-engine measurement (the acceptance
#: criterion's 10k timed samples).
TIMED_SAMPLES = int(os.environ.get("BENCH_TIMED_SAMPLES", "10000"))


def _rail_assignments(circuit, operand):
    assignments = {}
    for sig in circuit.inputs:
        pos, neg = encode_bit(operand[sig.name])
        assignments[sig.pos] = pos
        assignments[sig.neg] = neg
    return assignments


def test_batch_backend_speedup(benchmark, umc, bench_records):
    workload = random_workload(
        num_features=4, clauses_per_polarity=8, num_operands=BATCH_SAMPLES, seed=5
    )
    datapath = DualRailDatapath(workload.config)
    netlist = datapath.circuit.netlist

    # Event backend rate over a subset of the stream.
    event = EventBackend(netlist, umc)
    event_batch = [
        _rail_assignments(
            datapath.circuit, datapath.operand_assignments(f, workload.exclude)
        )
        for f in workload.feature_vectors[:EVENT_SAMPLES]
    ]
    start = time.perf_counter()
    event_result = event.run_batch(event_batch)
    event_elapsed = time.perf_counter() - start
    event_rate = event_result.samples / event_elapsed
    events_rate = event_result.transitions / event_elapsed

    # Batch backend over the full 1000-sample stream (compile + run, via
    # pytest-benchmark so the timing lands in the benchmark report too).
    planes = workload_input_planes(datapath.circuit, datapath, workload)

    def run_batch():
        backend = BatchBackend(netlist, umc)
        return backend.run_arrays(planes)

    start = time.perf_counter()
    batch_result = benchmark.pedantic(run_batch, rounds=1, iterations=1)
    batch_elapsed = time.perf_counter() - start
    batch_rate = batch_result.samples / batch_elapsed

    speedup = batch_rate / event_rate
    print(
        f"\nBackend throughput: event={event_rate:.1f} samples/s "
        f"({events_rate:.0f} events/s), batch={batch_rate:.0f} samples/s "
        f"({batch_result.samples} samples) -> {speedup:.0f}x"
    )
    bench_records["event_backend_samples_per_sec"] = event_rate
    bench_records["event_backend_events_per_sec"] = events_rate
    bench_records["batch_backend_samples_per_sec"] = batch_rate
    bench_records["batch_backend_batch_size"] = batch_result.samples
    bench_records["batch_vs_event_speedup"] = speedup

    assert batch_result.samples == BATCH_SAMPLES
    # Acceptance criterion: >= 10x samples/sec on the batch backend at 1k
    # samples.  Real measurements sit around 100-1000x; 10x leaves headroom
    # for slow CI machines.
    assert speedup >= 10.0

    # The two backends agree on the verdict rails for the shared subset.
    verdict = datapath.circuit.one_of_n_outputs[0]
    for k in range(event_result.samples):
        for rail in verdict.rails:
            assert event_result.net_values[rail][k] == batch_result.value_of(rail, k)


def test_bitpack_backend_speedup(benchmark, umc, bench_records):
    """Bit-packed 64-lane engine vs the byte-per-sample batch engine at 10k."""
    workload = random_workload(
        num_features=4, clauses_per_polarity=8, num_operands=BITPACK_SAMPLES, seed=5
    )
    datapath = DualRailDatapath(workload.config)
    netlist = datapath.circuit.netlist
    planes = workload_input_planes(datapath.circuit, datapath, workload)

    def run_batch():
        return BatchBackend(netlist, umc).run_arrays(planes)

    def run_bitpack():
        return BitpackBackend(netlist, umc).run_arrays(planes)

    def best_of_two(fn):
        # Both measurements include compile + run; best-of-two smooths out
        # scheduler noise so the gated ratio is stable on loaded CI runners.
        best, result = float("inf"), None
        for _ in range(2):
            start = time.perf_counter()
            result = fn()
            best = min(best, time.perf_counter() - start)
        return best, result

    batch_elapsed, batch_result = best_of_two(run_batch)
    batch_rate = batch_result.samples / batch_elapsed

    bitpack_elapsed, bitpack_result = best_of_two(run_bitpack)
    bitpack_rate = bitpack_result.samples / bitpack_elapsed
    # One more pass through pytest-benchmark so the timing lands in the
    # benchmark report alongside the other backends.
    benchmark.pedantic(run_bitpack, rounds=1, iterations=1)

    speedup = bitpack_rate / batch_rate
    print(
        f"\nBitpack throughput: batch={batch_rate:,.0f} samples/s, "
        f"bitpack={bitpack_rate:,.0f} samples/s "
        f"({bitpack_result.samples} samples) -> {speedup:.1f}x"
    )
    bench_records["bitpack_backend_samples_per_sec"] = bitpack_rate
    bench_records["bitpack_vs_batch_speedup"] = speedup

    assert bitpack_result.samples == BITPACK_SAMPLES
    # Acceptance criterion: >= 5x the batch backend's samples/sec at 10k
    # samples.  Real measurements sit around 10x; 5x leaves headroom for
    # slow or noisy CI machines.  Both timings include backend compile,
    # which only amortizes over a long enough stream, so the assertion is
    # scoped to the acceptance budget — shrinking BENCH_BITPACK_SAMPLES
    # still records the metrics without a spurious red.
    if BITPACK_SAMPLES >= 10000:
        assert speedup >= 5.0

    # The two vectorized backends agree on the verdict rails for the whole
    # stream (gate-for-gate equivalence lives in the tier-1 tests).
    verdict = datapath.circuit.one_of_n_outputs[0]
    for rail in verdict.rails:
        assert np.array_equal(bitpack_result.values[rail], batch_result.values[rail])


def test_fused_bitpack_speedup(benchmark, umc, bench_records):
    """Run-only throughput of the bitpack backend's grouped kernel engine.

    The backend executes one compiled program on a 10k-sample stream with
    the spacer activity baseline.  It is warmed once (plan build, settled
    baseline memo) and then timed run-only, best-of-five, so the figure
    isolates the kernel engine from the compile step.  The same stream
    through the looped batch reference pins bit-identity of the benchmark
    configuration itself.
    """
    workload = random_workload(
        num_features=4, clauses_per_polarity=8, num_operands=BITPACK_SAMPLES, seed=5
    )
    datapath = DualRailDatapath(workload.config)
    netlist = datapath.circuit.netlist
    planes = workload_input_planes(datapath.circuit, datapath, workload)
    spacer = spacer_assignments(datapath.circuit)

    fused = BitpackBackend(netlist, umc)

    def run_fused():
        return fused.run_arrays(planes, baseline=spacer)

    fused_result = run_fused()  # warm-up: grouped plan build, rest memo
    fused_elapsed = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        fused_result = run_fused()
        fused_elapsed = min(fused_elapsed, time.perf_counter() - start)
    # One more pass through pytest-benchmark for the benchmark report.
    benchmark.pedantic(run_fused, rounds=1, iterations=1)

    fused_rate = fused_result.samples / fused_elapsed
    print(
        f"\nGrouped bitpack kernel throughput: {fused_rate:,.0f} samples/s "
        f"({fused_result.samples} samples)"
    )
    bench_records["fused_bitpack_samples_per_sec"] = fused_rate

    assert fused_result.samples == BITPACK_SAMPLES
    # Bit-identity alongside the speed figure: same verdict planes and the
    # same switching-activity accounting as the looped reference (the fuzz
    # suite covers the full net set).
    reference = BatchBackend(netlist, umc).run_arrays(planes, baseline=spacer)
    verdict = datapath.circuit.one_of_n_outputs[0]
    for rail in verdict.rails:
        assert np.array_equal(fused_result.values[rail], reference.values[rail])
    assert fused_result.activity_by_cell == reference.activity_by_cell
    assert fused_result.activity_by_cell_type == reference.activity_by_cell_type


def test_timed_backend_speedup(benchmark, umc, bench_records):
    """Vectorized timing engine vs event-driven handshakes at 10k operands.

    The timed engine produces the *full* per-operand measurement set —
    spacer→valid latency, reset times, internal settle, done edges and
    switching energy — so its event-driven counterpart is a complete
    handshake cycle per operand (the ``measure_dual_rail`` hot loop), not a
    bare functional settle.  The event rate is measured over a small
    operand prefix and extrapolated, exactly like the batch-vs-event
    comparison above.
    """
    workload = random_workload(
        num_features=4, clauses_per_polarity=8, num_operands=TIMED_SAMPLES, seed=5
    )
    mapped = build_mapped_dual_rail(workload.config, umc)

    # Event-driven timing rate: full handshake cycles over a prefix.
    bench = make_dual_rail_environment(mapped)
    event_operands = [
        mapped.datapath.operand_assignments(f, workload.exclude)
        for f in workload.feature_vectors[:EVENT_SAMPLES]
    ]
    start = time.perf_counter()
    event_results = [bench.environment.infer(op) for op in event_operands]
    event_elapsed = time.perf_counter() - start
    event_rate = len(event_results) / event_elapsed

    planes = workload_input_planes(mapped.circuit, mapped.datapath, workload)
    spacer = spacer_assignments(mapped.circuit)

    def run_timed():
        # Compile + run, like the other backend measurements: a fresh
        # backend per round so program caching cannot flatter the figure.
        backend = BatchBackend(mapped.circuit.netlist, umc)
        return backend.run_timed(planes, spacer)

    start = time.perf_counter()
    timed_result = benchmark.pedantic(run_timed, rounds=1, iterations=1)
    timed_elapsed = time.perf_counter() - start
    timed_rate = timed_result.samples / timed_elapsed

    speedup = timed_rate / event_rate
    print(
        f"\nTimed throughput: event={event_rate:.1f} cycles/s, "
        f"timed={timed_rate:,.0f} cycles/s "
        f"({timed_result.samples} operands) -> {speedup:.0f}x"
    )
    bench_records["timed_backend_samples_per_sec"] = timed_rate
    bench_records["timed_vs_event_speedup"] = speedup

    assert timed_result.samples == TIMED_SAMPLES
    # Acceptance criterion: >= 10x timed samples/sec over the event
    # environment at 10k operands.  Real measurements sit at two to three
    # orders of magnitude; 10x leaves headroom for slow CI machines.  The
    # assertion is scoped to the acceptance budget so a shrunken
    # BENCH_TIMED_SAMPLES smoke run still records metrics without a
    # spurious red.
    if TIMED_SAMPLES >= 10000:
        assert speedup >= 10.0

    # Cross-check: the timed latencies agree with the event prefix.
    rails = mapped.circuit.all_output_rails()
    timed_latency = timed_result.max_arrival(rails, "valid")
    for k, result in enumerate(event_results):
        assert abs(timed_latency[k] - result.t_s_to_v) <= 1e-6 * result.t_s_to_v
