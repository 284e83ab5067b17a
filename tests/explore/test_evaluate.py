"""End-to-end evaluation: record sanity, determinism, store integration."""

from __future__ import annotations

import dataclasses

import pytest

from repro.explore import (
    DesignPoint,
    DesignPointSpec,
    EvaluationSettings,
    ParameterGrid,
    ResultStore,
    evaluate_point,
    run_sweep,
)

#: Deliberately tiny: 2 features, 2 clauses/polarity, short streams.
TINY = EvaluationSettings(
    num_features=2, train_samples=60, epochs=3, operands=6, timing_operands=3
)

TINY_GRID = ParameterGrid(
    name="tiny",
    datasets=("noisy-xor",),
    clauses_per_polarity=(2,),
    booleanizer_levels=(1,),
    libraries=("UMC LL",),
    styles=("dual-rail-reduced", "dual-rail-full", "sync"),
    vdds=(None,),
)


def spec_for(style: str, **overrides) -> DesignPointSpec:
    values = dict(
        dataset="noisy-xor",
        clauses_per_polarity=2,
        booleanizer_levels=1,
        library="UMC LL",
        style=style,
        vdd=None,
    )
    values.update(overrides)
    return DesignPointSpec(**values)


@pytest.fixture(scope="module")
def tiny_points():
    return {
        style: evaluate_point(spec_for(style), TINY)
        for style in ("dual-rail-reduced", "dual-rail-full", "sync")
    }


def test_points_carry_every_tradeoff_axis(tiny_points):
    for style, point in tiny_points.items():
        assert 0.0 <= point.accuracy <= 1.0
        assert point.hardware_correctness == 1.0, style
        assert point.mean_latency_ps > 0
        assert point.p95_latency_ps <= point.max_latency_ps or style == "sync"
        assert point.energy_per_inference_fj > 0
        assert point.area_um2 > point.sequential_area_um2 > 0
        assert point.cell_count > 0
        assert point.vdd == pytest.approx(1.2)


def test_styles_change_the_circuit_not_the_model(tiny_points):
    reduced = tiny_points["dual-rail-reduced"]
    full = tiny_points["dual-rail-full"]
    sync = tiny_points["sync"]
    # Same trained model everywhere...
    assert reduced.accuracy == full.accuracy == sync.accuracy
    # ...different hardware: full CD pays more completion-detection cells,
    # the clocked baseline's latency is its clock period.
    assert full.cell_count > reduced.cell_count
    assert full.area_um2 > reduced.area_um2
    assert sync.mean_latency_ps == sync.max_latency_ps


def test_vdd_scales_latency():
    nominal = evaluate_point(spec_for("dual-rail-reduced"), TINY)
    scaled = evaluate_point(spec_for("dual-rail-reduced", vdd=0.8), TINY)
    assert scaled.vdd == pytest.approx(0.8)
    assert scaled.mean_latency_ps > nominal.mean_latency_ps


def test_event_and_batch_backends_agree_functionally():
    hybrid = evaluate_point(spec_for("dual-rail-reduced"), TINY, backend="vectorized")
    event = evaluate_point(spec_for("dual-rail-reduced"), TINY, backend="event")
    assert hybrid.hardware_correctness == event.hardware_correctness
    assert hybrid.accuracy == event.accuracy
    assert hybrid.area_um2 == event.area_um2
    # The event backend times the full stream; the hybrid mode times the prefix.
    assert event.timed_operands == TINY.operands
    assert hybrid.timed_operands == TINY.timing_operands


def test_synchronous_point_records_the_event_engine_in_every_mode():
    """A clocked point is always event-simulated, so every mode records that."""
    default = evaluate_point(spec_for("sync"), TINY)
    assert (default.backend, default.timing_backend) == ("event", "event")
    for backend, timing_backend in (("event", "event"), ("vectorized", "vectorized")):
        point = evaluate_point(spec_for("sync"), TINY, backend=backend,
                               timing_backend=timing_backend)
        assert point == default


def test_infeasible_point_is_rejected():
    with pytest.raises(ValueError, match="infeasible"):
        evaluate_point(spec_for("sync", vdd=0.3), TINY)
    with pytest.raises(ValueError, match="backend"):
        evaluate_point(spec_for("sync"), TINY, backend="spice")


def test_point_serialization_round_trip(tiny_points):
    for point in tiny_points.values():
        assert DesignPoint.from_dict(point.to_dict()).to_dict() == point.to_dict()


def test_sweep_jobs_invariance_and_order():
    serial = run_sweep(TINY_GRID, TINY, jobs=1)
    parallel = run_sweep(TINY_GRID, TINY, jobs=3)
    assert [p.to_dict() for p in serial.points] == [p.to_dict() for p in parallel.points]
    assert [p.spec for p in serial.points] == list(TINY_GRID.expand().points)


def test_sweep_store_integration(tmp_path):
    store = ResultStore(tmp_path)
    first = run_sweep(TINY_GRID, TINY, jobs=1, store=store)
    assert (first.evaluated, first.cached) == (3, 0)
    second = run_sweep(TINY_GRID, TINY, jobs=2, store=store)
    assert (second.evaluated, second.cached) == (0, 3)
    assert second.cache_hit_rate == 1.0
    assert [p.to_dict() for p in second.points] == [p.to_dict() for p in first.points]
    # Changing the settings invalidates every point.
    changed = dataclasses.replace(TINY, operands=7)
    third = run_sweep(TINY_GRID, changed, jobs=1, store=store)
    assert (third.evaluated, third.cached) == (3, 0)
