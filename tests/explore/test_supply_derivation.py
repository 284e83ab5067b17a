"""A supply point of a design equals its direct measurement at that supply.

Under the library model a supply multiplies every cell delay, switching
energy and leakage by one per-library factor, so ``evaluate_point`` may
characterise a design once, at nominal, and derive its other supply
points.  This suite holds every such point to the direct measurement at
its supply — ``measure_dual_rail`` under vectorized timing for the
dual-rail styles, ``measure_single_rail`` for the clocked baseline — with
every float field at ``rtol=1e-12`` and every other field exactly equal.
"""

from __future__ import annotations

import math

import pytest

from repro.analysis.experiments import measure_dual_rail, measure_single_rail
from repro.circuits.library import default_libraries
from repro.datapath.styles import DATAPATH_STYLES, is_dual_rail, style_config
from repro.explore import DesignPoint, DesignPointSpec, EvaluationSettings, evaluate_point
from repro.explore.evaluate import build_spec_workload, replace_config

SETTINGS = EvaluationSettings(
    num_features=2, train_samples=60, epochs=3, operands=8, seed=5
)

#: Every supply is tried; the infeasible ones (UMC LL below 0.5 V) are skipped.
SUPPLIES = (1.0, 0.8, 0.6, 0.4, 0.3, 0.25)

#: Derived and direct values differ by float re-association only (~1e-14).
RTOL = 1e-12

#: (dataset, clauses per polarity, booleanizer levels).
DESIGNS = [("noisy-xor", 2, 1), ("sensor-blobs", 2, 2)]


def direct_point(spec: DesignPointSpec, settings: EvaluationSettings) -> DesignPoint:
    """*spec* measured at its own supply, with no nominal record involved."""
    library = default_libraries()[spec.library]
    workload, accuracy = build_spec_workload(spec, settings)
    if is_dual_rail(spec.style):
        config = style_config(spec.style, workload.config)
        measurement = measure_dual_rail(
            replace_config(workload, config), library, vdd=spec.vdd,
            timing_backend="vectorized", check_monotonic=False,
        )
        latency = measurement.latency
        latencies = (latency.average, latency.p95, latency.maximum)
        engine = "vectorized"
    else:
        measurement = measure_single_rail(workload, library, vdd=spec.vdd)
        latencies = (measurement.clock_period_ps,) * 3
        engine = "event"
    metrics = measurement.synthesis.metrics()
    return DesignPoint(
        spec=spec,
        backend=engine,
        vdd=float(spec.vdd),
        num_features=workload.config.num_features,
        accuracy=accuracy,
        hardware_correctness=measurement.correctness,
        mean_latency_ps=latencies[0],
        p95_latency_ps=latencies[1],
        max_latency_ps=latencies[2],
        energy_per_inference_fj=measurement.power.energy_per_operation_fj,
        area_um2=metrics["area_um2"],
        sequential_area_um2=metrics["sequential_area_um2"],
        leakage_nw=metrics["leakage_nw"],
        cell_count=metrics["cell_count"],
        throughput_mops=measurement.throughput_millions,
        timed_operands=workload.num_operands,
        timing_backend=engine,
    )


def assert_same_point(point: DesignPoint, reference: DesignPoint) -> None:
    actual, expected = point.to_dict(), reference.to_dict()
    assert actual.keys() == expected.keys()
    label = reference.spec.label()
    for name, value in expected.items():
        if isinstance(value, float):
            assert math.isclose(actual[name], value, rel_tol=RTOL, abs_tol=0.0), (
                f"{label} {name}: {actual[name]!r} != direct {value!r}"
            )
        else:
            assert actual[name] == value, f"{label} {name}"


@pytest.mark.parametrize("style", DATAPATH_STYLES)
@pytest.mark.parametrize("library", ["UMC LL", "FULL DIFFUSION"])
@pytest.mark.parametrize("design", DESIGNS, ids=lambda d: f"{d[0]}-c{d[1]}-b{d[2]}")
def test_supply_points_match_direct_measurement(design, library, style):
    dataset, clauses, levels = design
    specs = [
        DesignPointSpec(dataset, clauses, levels, library, style, vdd=vdd)
        for vdd in SUPPLIES
    ]
    feasible = [spec for spec in specs if spec.is_feasible()]
    assert len(feasible) == (3 if library == "UMC LL" else len(SUPPLIES))
    for spec in feasible:
        point = evaluate_point(spec, SETTINGS, timing_backend="vectorized")
        assert_same_point(point, direct_point(spec, SETTINGS))
