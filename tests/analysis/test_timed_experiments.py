"""Harness-level tests for ``timing_backend=`` (the vectorized timing path).

The acceptance contract: ``run_table1`` / ``run_figure3`` produce identical
tables and sweep values (within the documented float re-association
tolerance) with ``timing_backend="vectorized"`` vs the event oracle,
parallel runs are bit-identical to serial runs, and every harness records
and keys its measurements under the canonical names only.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.analysis import (
    default_workload,
    measure_dual_rail,
    run_figure3,
    run_latency_distribution,
    run_table1,
)
from repro.explore import ResultStore, WorkQueue, named_grid, run_sweep, write_manifest
from repro.explore.evaluate import SMOKE_SETTINGS, evaluate_point
from repro.explore.grid import DesignPointSpec
from repro.explore.store import point_key

RTOL = 1e-9

#: Table-I numeric columns compared between the event and timed paths.
TABLE1_NUMERIC = (
    "cell_area", "sequential_area", "avg_power_uw", "leakage_power_nw",
    "avg_latency_ps", "max_latency_ps", "t_v_to_s_ps", "avg_inferences_millions",
)


@pytest.fixture(scope="module")
def workload():
    return default_workload(num_features=4, clauses_per_polarity=8, num_operands=8)


def test_measure_dual_rail_timed_matches_event(workload, umc):
    event = measure_dual_rail(workload, umc, timing_backend="event")
    timed = measure_dual_rail(workload, umc, timing_backend="vectorized")
    assert timed.verdicts == event.verdicts
    assert timed.correctness == event.correctness
    assert timed.grace.td == event.grace.td
    assert timed.latency.samples == event.latency.samples
    for attr in ("average", "maximum", "minimum", "p50", "p95", "reset_time"):
        assert getattr(timed.latency, attr) == pytest.approx(
            getattr(event.latency, attr), rel=RTOL
        ), attr
    np.testing.assert_allclose(timed.latencies_ps, event.latencies_ps, rtol=RTOL)
    assert timed.power.energy_per_operation_fj == pytest.approx(
        event.power.energy_per_operation_fj, rel=RTOL
    )
    assert timed.power.total_uw == pytest.approx(event.power.total_uw, rel=RTOL)
    assert timed.power.window_ps == pytest.approx(event.power.window_ps, rel=RTOL)
    assert timed.throughput_millions == pytest.approx(
        event.throughput_millions, rel=RTOL
    )


def test_run_table1_identical_with_timed_backend(workload):
    rows_event, _ = run_table1(workload, timing_backend="event")
    rows_timed, _ = run_table1(workload, timing_backend="vectorized", jobs=2)
    assert len(rows_event) == len(rows_timed) == 4
    for event_row, timed_row in zip(rows_event, rows_timed):
        assert event_row.technology == timed_row.technology
        assert event_row.design == timed_row.design
        for column in TABLE1_NUMERIC:
            expected = getattr(event_row, column)
            actual = getattr(timed_row, column)
            if expected is None:
                assert actual is None
            else:
                assert actual == pytest.approx(expected, rel=RTOL), column
        assert timed_row.extra["correctness"] == event_row.extra["correctness"]
        assert timed_row.extra["energy_per_inference_fj"] == pytest.approx(
            event_row.extra["energy_per_inference_fj"], rel=RTOL
        )


@pytest.mark.parametrize("timing_backend", ["batch", "bitpack"])
def test_run_figure3_identical_with_timed_backend(workload, timing_backend):
    """The old spellings of ``"vectorized"`` still time the sweep."""
    voltages = (0.4, 0.6, 1.2)  # 0.4 V is below the UMC floor: a NaN point
    kwargs = dict(workload=workload, voltages=voltages, operands_per_point=4)
    from repro.circuits import umc_ll_library

    library = umc_ll_library()
    points_event = run_figure3(library=library, **kwargs)
    points_timed = run_figure3(
        library=library, timing_backend=timing_backend, jobs=2, **kwargs
    )
    for event_point, timed_point in zip(points_event, points_timed):
        assert event_point.vdd == timed_point.vdd
        assert event_point.functional == timed_point.functional
        assert event_point.correct == timed_point.correct
        if math.isnan(event_point.avg_latency_ps):
            assert math.isnan(timed_point.avg_latency_ps)
        else:
            assert timed_point.avg_latency_ps == pytest.approx(
                event_point.avg_latency_ps, rel=RTOL
            )
            assert timed_point.max_latency_ps == pytest.approx(
                event_point.max_latency_ps, rel=RTOL
            )


def test_latency_distribution_timed_jobs_bit_identity(workload, umc):
    """jobs=1 ≡ jobs=N through run_parallel: every field, bit for bit."""
    serial = run_latency_distribution(
        workload, umc, timing_backend="vectorized", chunk_size=3, jobs=1
    )
    parallel = run_latency_distribution(
        workload, umc, timing_backend="vectorized", chunk_size=3, jobs=3
    )
    assert len(serial) == len(parallel) == workload.num_operands
    for a, b in zip(serial, parallel):
        assert a.t_start == b.t_start
        assert a.t_s_to_v == b.t_s_to_v
        assert a.t_v_to_s == b.t_v_to_s
        assert a.t_internal_reset == b.t_internal_reset
        assert a.done_rise == b.done_rise and a.done_fall == b.done_fall
        assert a.outputs == b.outputs and a.one_of_n_outputs == b.one_of_n_outputs


def test_latency_distribution_timed_matches_event_per_operand(workload, umc):
    event = run_latency_distribution(workload, umc)
    timed = run_latency_distribution(workload, umc, timing_backend="vectorized")
    assert len(event) == len(timed)
    for ev, tm in zip(event, timed):
        assert tm.t_s_to_v == pytest.approx(ev.t_s_to_v, rel=RTOL)
        assert tm.t_v_to_s == pytest.approx(ev.t_v_to_s, rel=RTOL)
        assert tm.t_internal_reset == pytest.approx(ev.t_internal_reset, rel=RTOL)
        assert tm.outputs == ev.outputs
        assert tm.one_of_n_outputs == ev.one_of_n_outputs


def test_timed_path_raises_on_output_stuck_at_spacer(umc):
    """An output that never asserts is a ProtocolViolation, as in the event env.

    The reduced-CD ``done`` signal does not necessarily observe every
    output, so the timed path enforces the output-codeword obligations
    directly (``_check_output_protocol``), mirroring
    ``DualRailEnvironment._outputs_valid_time``.
    """
    from repro.analysis.measure import _check_output_protocol
    from repro.core.dual_rail import DualRailBuilder
    from repro.sim.backends import BatchBackend
    from repro.sim.monitors import ProtocolViolation

    builder = DualRailBuilder("stuck")
    x = builder.input_bit("x")
    builder.output_bit("y", x)
    circuit = builder.build()
    backend = BatchBackend(circuit.netlist, umc)
    spacer = {x.pos: 0, x.neg: 0}
    # Valid phase never leaves spacer on the input, so the output port is
    # stuck at spacer: the event environment would raise, and so must we.
    timed = backend.run_timed({x.pos: [0, 0], x.neg: [0, 0]}, spacer)
    with pytest.raises(ProtocolViolation, match="never reached the valid state"):
        _check_output_protocol(circuit, timed)
    # A proper codeword per sample passes.
    timed_ok = backend.run_timed({x.pos: [1, 0], x.neg: [0, 1]}, spacer)
    _check_output_protocol(circuit, timed_ok)


@pytest.mark.parametrize("timing_backend", ["batch", "bitpack"])
def test_timed_run_and_run_arrays_share_one_grouped_plan(
    workload, umc, monkeypatch, timing_backend
):
    """The timed engine runs the program's grouped plan, built once per program.

    ``run_timed`` and the bitpack kernel's ``run_arrays`` share the
    per-program plan memo, so one backend serving both builds one plan.
    The old spellings ``"batch"`` and ``"bitpack"`` route a measurement
    onto the same engine.
    """
    from repro.analysis.measure import (
        build_mapped_dual_rail,
        spacer_assignments,
        timed_dual_rail_run,
        workload_input_planes,
    )
    from repro.sim import get_backend, kernels

    mapped = build_mapped_dual_rail(workload.config, umc)
    run = timed_dual_rail_run(mapped, workload)
    assert len(run.results) == workload.num_operands
    measurement = measure_dual_rail(workload, umc, timing_backend=timing_backend)
    assert measurement.latencies_ps == [r.t_s_to_v for r in run.results]

    built = []
    original = kernels.build_grouped_plan

    def counting(program):
        built.append(program)
        return original(program)

    monkeypatch.setattr(kernels, "build_grouped_plan", counting)
    backend = get_backend(timing_backend, mapped.circuit.netlist, umc)
    planes = workload_input_planes(mapped.circuit, mapped.datapath, workload)
    spacer = spacer_assignments(mapped.circuit)
    backend.run_timed(planes, spacer)
    backend.run_arrays(planes, baseline=spacer)
    backend.run_timed(planes, spacer)
    assert built == [backend.program]


def test_unknown_timing_backend_is_rejected(workload, umc, tmp_path):
    with pytest.raises(ValueError):
        measure_dual_rail(workload, umc, timing_backend="sta")
    with pytest.raises(ValueError):
        run_table1(workload, timing_backend="nope")
    with pytest.raises(ValueError):
        run_latency_distribution(workload, umc, timing_backend="nope")
    with pytest.raises(ValueError):
        run_figure3(workload, timing_backend="nope")
    spec = named_grid("smoke").expand().points[0]
    for kwargs in ({"backend": "nope"}, {"timing_backend": "nope"}):
        with pytest.raises(ValueError):
            evaluate_point(spec, SMOKE_SETTINGS, **kwargs)
        with pytest.raises(ValueError):
            run_sweep([spec], SMOKE_SETTINGS, **kwargs)
        with pytest.raises(ValueError):
            write_manifest(tmp_path, [spec], SMOKE_SETTINGS, **kwargs)
    assert not (tmp_path / "queue" / "manifest.json").exists()


@pytest.fixture(scope="module")
def dse_spec():
    return DesignPointSpec(
        dataset="noisy-xor", clauses_per_polarity=4, booleanizer_levels=1,
        library="UMC LL", style="dual-rail-reduced", vdd=None,
    )


def test_dse_timed_point_matches_event_and_times_full_stream(dse_spec):
    event_point = evaluate_point(
        dse_spec, SMOKE_SETTINGS, backend="event", timing_backend="event"
    )
    assert (event_point.backend, event_point.timing_backend) == ("event", "event")
    assert event_point.timed_operands == SMOKE_SETTINGS.operands
    timed_point = evaluate_point(dse_spec, SMOKE_SETTINGS, timing_backend="vectorized")
    assert timed_point.timed_operands == SMOKE_SETTINGS.operands
    assert (timed_point.backend, timed_point.timing_backend) == (
        "vectorized", "vectorized"
    )
    assert timed_point.hardware_correctness == event_point.hardware_correctness
    for metric in ("mean_latency_ps", "p95_latency_ps", "max_latency_ps",
                   "energy_per_inference_fj", "throughput_mops"):
        assert timed_point.metric(metric) == pytest.approx(
            event_point.metric(metric), rel=RTOL
        ), metric


def test_dse_timed_normalizes_functional_backend(tmp_path):
    """Old spellings are canonicalised before anything is recorded or keyed.

    This is the benchmark's sweep call: ``timing_backend="bitpack"`` is a
    spelling of ``"vectorized"``, and under vectorized timing the timed
    engine's value planes answer every functional question, so both names
    become ``"vectorized"``.  A sweep spelled canonically then hits the same
    store entries.
    """
    specs = named_grid("smoke").expand().points[:2]
    store = ResultStore(tmp_path)
    first = run_sweep(specs, settings=SMOKE_SETTINGS, timing_backend="bitpack",
                      jobs=1, store=store)
    assert [(p.backend, p.timing_backend) for p in first.points] == [
        ("vectorized", "vectorized")
    ] * 2
    second = run_sweep(specs, settings=SMOKE_SETTINGS, timing_backend="vectorized",
                       jobs=1, store=store)
    assert (second.evaluated, second.cached) == (0, 2)
    assert [p.to_dict() for p in second.points] == [p.to_dict() for p in first.points]
    # A queue manifest spelled the old way carries the same canonical keys.
    write_manifest(tmp_path, specs, SMOKE_SETTINGS, timing_backend="batch")
    queue = WorkQueue(tmp_path)
    manifest = queue.manifest()
    assert (manifest["backend"], manifest["timing_backend"]) == (
        "vectorized", "vectorized"
    )
    assert all(store.get(task.key) is not None for task in queue.tasks())


def test_store_key_separates_timing_backends(dse_spec, umc):
    """A timed point and an event-timed point are different measurements."""
    base = point_key(dse_spec, SMOKE_SETTINGS, umc, "vectorized")
    explicit_event = point_key(
        dse_spec, SMOKE_SETTINGS, umc, "vectorized", timing_backend="event"
    )
    timed = point_key(
        dse_spec, SMOKE_SETTINGS, umc, "vectorized", timing_backend="vectorized"
    )
    assert base == explicit_event  # pre-existing stores keep serving event points
    assert timed != base
