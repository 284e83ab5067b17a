"""Regenerate Table I: single-rail vs dual-rail on both libraries.

Builds the synchronous baseline and the proposed dual-rail datapath for the
same trained Tsetlin-machine workload, synthesises both onto the UMC LL and
FULL DIFFUSION library stand-ins, simulates them, and prints the Table-I
columns (cell area, sequential area, average power, leakage, latencies,
reset time, throughput).

Run with:  python examples/table1_report.py [--timing-backend vectorized] [--jobs N]

The four library × design measurements are independent work units, so
``--jobs 4`` runs them concurrently.  ``--timing-backend vectorized`` takes
the dual-rail latency, power and throughput columns from the vectorized
data-dependent timing engine — the whole-table wall-clock lever — and they
match the event-driven run within float re-association accuracy (see
docs/guides/timing-and-energy-model.md).
"""

from __future__ import annotations

import argparse

from repro.analysis import (
    TIMING_BACKENDS,
    default_workload,
    format_table1,
    run_table1,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--timing-backend", choices=TIMING_BACKENDS, default="event",
                        help="timing source for the dual-rail latency/power "
                             "columns (vectorized = vectorized timing engine)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="parallel measurements (0 = CPU count)")
    args = parser.parse_args()

    workload = default_workload(num_features=4, clauses_per_polarity=8, num_operands=10)
    print(f"Workload: {workload.description}\n")
    rows, raw = run_table1(workload, jobs=args.jobs, timing_backend=args.timing_backend)
    print(format_table1(rows))

    print("\nDerived comparisons:")
    for library in ("UMC LL", "FULL DIFFUSION"):
        single = raw[f"{library}/single-rail"]
        dual = raw[f"{library}/dual-rail"]
        print(f"  {library}:")
        print(f"    dual/single cell area ratio : "
              f"{dual.synthesis.area.total / single.synthesis.area.total:.2f}")
        print(f"    single clock period / dual avg latency : "
              f"{single.clock_period_ps / dual.latency.average:.2f}x")
        print(f"    dual energy per inference  : "
              f"{dual.power.energy_per_operation_fj:.0f} fJ")
        print(f"    single energy per inference: "
              f"{single.power.energy_per_operation_fj:.0f} fJ")
        print(f"    reduced-CD grace period td : {dual.grace.td:.0f} ps")


if __name__ == "__main__":
    main()
