"""Benchmark: Figure 3 — dual-rail datapath latency versus supply voltage.

Sweeps the supply of the FULL DIFFUSION library stand-in from 0.25 V to
1.2 V, simulating the dual-rail datapath at each point, and checks the
paper's claims:

* functional correctness is maintained across the whole range (the circuit
  needs no modification — it is self-timed);
* latency is roughly flat in the superthreshold region and increases
  exponentially as the supply drops below ~0.6 V;
* the latency at 0.25 V is orders of magnitude above the nominal latency.
"""

from __future__ import annotations

import os

from repro.analysis import format_figure3, run_figure3
from repro.sim import exponential_region_slope
from repro.sim.voltage import VoltagePoint

#: Reduced voltage grid (a subset of the paper's sweep) to keep runtime low.
SWEEP_VOLTAGES = (0.25, 0.3, 0.4, 0.5, 0.6, 0.8, 1.0, 1.2)

#: Voltage points are independent work units; REPRO_SIM_JOBS sweeps them in
#: parallel (results are identical for every value, so CI may raise it).
SWEEP_JOBS = int(os.environ.get("REPRO_SIM_JOBS", "1"))


def test_figure3_voltage_sweep(benchmark, small_workload, full_diffusion):
    points = benchmark.pedantic(
        run_figure3,
        kwargs={
            "workload": small_workload,
            "voltages": SWEEP_VOLTAGES,
            "library": full_diffusion,
            "operands_per_point": 4,
            "jobs": SWEEP_JOBS,
        },
        rounds=1,
        iterations=1,
    )
    print("\nFigure 3 (latency vs supply voltage, FULL DIFFUSION):")
    print(format_figure3(points))

    functional = [p for p in points if p.functional]
    assert len(functional) == len(SWEEP_VOLTAGES)

    # Functional correctness maintained at every supply point, including 0.25 V.
    assert all(p.correct for p in functional)

    by_vdd = {round(p.vdd, 2): p.avg_latency_ps for p in functional}

    # Latency increases monotonically as the supply is lowered.
    ordered = [by_vdd[v] for v in sorted(by_vdd)]
    assert all(a >= b for a, b in zip(ordered, ordered[1:]))

    # Exponential blow-up below 0.6 V: more than 100x between 0.6 V and 0.25 V.
    assert by_vdd[0.25] / by_vdd[0.6] > 100.0
    # Mild scaling above 0.8 V: less than 4x between 1.2 V and 0.8 V.
    assert by_vdd[0.8] / by_vdd[1.2] < 4.0

    # The subthreshold region is exponential: ln(latency) vs VDD is a steep
    # negative slope.
    slope = exponential_region_slope(
        [VoltagePoint(vdd=p.vdd, value=p.avg_latency_ps) for p in functional],
        v_max=0.6,
    )
    assert slope < -10.0
