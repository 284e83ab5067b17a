"""Figure 3: dual-rail datapath latency versus supply voltage (0.25 V – 1.2 V).

Sweeps the supply of the subthreshold-capable FULL DIFFUSION library
stand-in and simulates the self-timed datapath at every point.  Because the
circuit is quasi-delay-insensitive with the reduced-CD timing assumption
derived per voltage, it keeps working without modification across the whole
range — only its latency scales with gate delay, exploding exponentially
below ~0.6 V exactly as in the paper's Figure 3.

Run with:  python examples/voltage_scaling_sweep.py [--timing-backend vectorized]
           [--jobs N]

``--jobs N`` sweeps N voltage points in parallel.
``--timing-backend vectorized`` makes each point itself cheap: the
latencies the figure plots come from the vectorized data-dependent timing
engine, matching the event-driven sweep within float re-association
accuracy (see docs/guides/timing-and-energy-model.md).
"""

from __future__ import annotations

import argparse
import math

from repro.analysis import (
    TIMING_BACKENDS,
    default_workload,
    format_figure3,
    run_figure3,
)
from repro.circuits import full_diffusion_library
from repro.obs.profile import tracing_session

VOLTAGES = (0.25, 0.3, 0.35, 0.4, 0.5, 0.6, 0.8, 1.0, 1.2)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--timing-backend", choices=TIMING_BACKENDS, default="event",
                        help="timing source for the plotted latencies "
                             "(vectorized = vectorized timing engine)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="parallel voltage points (0 = CPU count)")
    parser.add_argument("--trace-out", default=None,
                        help="write a Chrome/Perfetto trace of the sweep to this path")
    args = parser.parse_args()

    library = full_diffusion_library()
    workload = default_workload(num_features=4, clauses_per_polarity=8, num_operands=6)
    print(f"Workload: {workload.description}")
    print(f"Library : {library.name} ({library.description})")
    print(f"Runner  : timing_backend={args.timing_backend}, jobs={args.jobs}\n")

    with tracing_session(args.trace_out):
        points = run_figure3(workload, voltages=VOLTAGES, library=library,
                             operands_per_point=3, jobs=args.jobs,
                             timing_backend=args.timing_backend)
    if args.trace_out:
        print(f"Trace -> {args.trace_out}")
    print(format_figure3(points))

    nominal = next(p for p in points if abs(p.vdd - 1.2) < 1e-9)
    lowest = next(p for p in points if abs(p.vdd - 0.25) < 1e-9)
    print(f"\nLatency at 0.25 V is {lowest.avg_latency_ps / nominal.avg_latency_ps:.0f}x "
          f"the nominal-voltage latency; functional correctness held at every point: "
          f"{all(p.correct for p in points if p.functional)}")

    print("\nLog-scale latency curve (ASCII):")
    for p in points:
        if not p.functional:
            continue
        bar = "#" * int(round(8 * (math.log10(p.avg_latency_ps) - 2)))
        print(f"  {p.vdd:4.2f} V  {p.avg_latency_ps:12.0f} ps  {bar}")


if __name__ == "__main__":
    main()
