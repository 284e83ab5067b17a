"""Operand and delay probability distributions (the paper's contribution 2).

Shows how the distribution of Tsetlin-machine vote counts translates into
the data-dependent latency of the early-propagating comparator: operands
whose positive/negative counts differ at a high-order bit finish earlier
than operands that must be compared all the way down to the LSB.

Run with:  python examples/latency_distribution.py [--timing-backend vectorized]
           [--operands N]

``--timing-backend vectorized`` measures the per-operand latencies through the vectorized data-dependent timing engine instead of
event-simulating every handshake — the lever that makes 10k-operand
distribution studies practical (see docs/guides/timing-and-energy-model.md).
"""

from __future__ import annotations

import argparse

from repro.analysis import (
    TIMING_BACKENDS,
    default_workload,
    format_histogram,
    latency_histogram,
    latency_vs_decision_depth,
    mean_latency_by_depth,
    measure_dual_rail,
    operand_distributions,
)
from repro.circuits import umc_ll_library
from repro.obs.profile import tracing_session


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--timing-backend", choices=TIMING_BACKENDS, default="event",
                        help="timing source for the per-operand latencies "
                             "(vectorized = vectorized timing engine)")
    parser.add_argument("--operands", type=int, default=16,
                        help="operand-stream length to measure")
    parser.add_argument("--trace-out", default=None,
                        help="write a Chrome/Perfetto trace of the measurement "
                             "to this path")
    args = parser.parse_args()

    library = umc_ll_library()
    workload = default_workload(num_features=4, clauses_per_polarity=8,
                                num_operands=args.operands)
    print(f"Workload: {workload.description}\n")

    width = workload.config.count_width
    dists = operand_distributions(workload.model, workload.feature_vectors, width)
    print("Positive-vote distribution:")
    print(format_histogram(dists["positive_votes"].counts, label="votes"))
    print("\nVote-difference (positive - negative) distribution:")
    print(format_histogram(dists["vote_difference"].counts, label="diff"))
    print("\nComparator decision-depth distribution (1 = decided at the MSB):")
    print(format_histogram(dists["decision_depth"].counts, label="depth"))

    print(f"\nMeasuring per-operand latency "
          f"(timing_backend={args.timing_backend})...")
    with tracing_session(args.trace_out):
        measurement = measure_dual_rail(workload, library,
                                        timing_backend=args.timing_backend)
    if args.trace_out:
        print(f"Trace -> {args.trace_out}")

    class _R:  # minimal adapter for latency_histogram / depth correlation
        def __init__(self, latency):
            self.t_s_to_v = latency

    results = [_R(latency) for latency in measurement.latencies_ps]
    print("\nLatency histogram (50 ps bins):")
    print(format_histogram(latency_histogram(results, 50.0).counts, label="bin"))

    pairs = latency_vs_decision_depth(results, workload.model,
                                      list(workload.feature_vectors), width)
    print("\nMean latency by comparator decision depth:")
    for depth, latency in mean_latency_by_depth(pairs).items():
        print(f"  depth {depth}: {latency:7.1f} ps")

    print(f"\nAverage latency {measurement.latency.average:.0f} ps, "
          f"worst case {measurement.latency.maximum:.0f} ps "
          f"(early-propagation gain {measurement.latency.early_propagation_gain:.2f}x)")


if __name__ == "__main__":
    main()
