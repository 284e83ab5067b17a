"""Serve a trained datapath model through the micro-batching gateway.

Spins up :class:`repro.serve.MicroBatchGateway` over a random-composition
workload, drives it with the built-in load generator (open-loop Poisson or
closed-loop), and prints the SLO report: achieved throughput, batching
efficiency, and p50/p95/p99/max end-to-end latency.  Optionally verifies
that every gateway classification is bit-identical to a direct
:func:`repro.analysis.batch_functional_pass` over the same operands through
the batch reference interpreter (``--check-determinism``) and writes a
``BENCH_serve.json`` record for the CI regression gate (``--bench-json``).

Run with:  python examples/serve_demo.py [--requests 512] [--mode closed] \
               [--workers 2] [--check-determinism]
"""

from __future__ import annotations

import argparse
import asyncio
import sys

from repro.analysis import batch_functional_pass, random_workload, resolve_library
from repro.datapath.datapath import DualRailDatapath
from repro.obs.profile import tracing_session
from repro.serve import (
    GatewayConfig,
    LOAD_MODES,
    LoadConfig,
    LoadReport,
    MicroBatchGateway,
    ModelSpec,
    run_load,
)


def build_parser() -> argparse.ArgumentParser:
    """The demo's CLI (flags are pinned by ``tests/docs/test_serving_guide.py``)."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--requests", type=int, default=512,
                        help="total requests to issue")
    parser.add_argument("--mode", choices=LOAD_MODES, default="closed",
                        help="arrival process: open (Poisson) or closed loop")
    parser.add_argument("--rate", type=float, default=1000.0,
                        help="open-loop offered rate in requests/sec")
    parser.add_argument("--concurrency", type=int, default=64,
                        help="closed-loop virtual clients (one request in flight each)")
    parser.add_argument("--max-batch", type=int, default=64,
                        help="lanes per micro-batch (64 = one full bitpack word)")
    parser.add_argument("--deadline-ms", type=float, default=GatewayConfig.max_delay_ms,
                        help="how long an under-full word may wait for more requests")
    parser.add_argument("--queue-depth", type=int, default=256,
                        help="bounded admission queue; beyond it requests are rejected")
    parser.add_argument("--workers", type=int, default=0,
                        help="0 = in-process worker; N = compile-once process pool")
    parser.add_argument("--attribution", action="store_true",
                        help="attach simulated per-request hardware latency/energy")
    parser.add_argument("--features", type=int, default=4,
                        help="datapath feature count of the served model")
    parser.add_argument("--clauses", type=int, default=8,
                        help="clauses per polarity of the served model")
    parser.add_argument("--seed", type=int, default=2021,
                        help="seeds the model, operands and Poisson clock")
    parser.add_argument("--bench-json", type=str, default=None,
                        help="write a BENCH_serve.json record to this path")
    parser.add_argument("--trace-out", type=str, default=None,
                        help="write a Chrome/Perfetto trace of the run to this path "
                             "(.json = trace_event, .jsonl = raw span records)")
    parser.add_argument("--check-determinism", action="store_true",
                        help="verify gateway replies == the batch reference interpreter")
    parser.add_argument("--min-throughput", type=float, default=None,
                        help="exit non-zero if achieved req/s falls below this")
    return parser


async def serve_and_measure(args: argparse.Namespace):
    """Start the gateway, drive it, stop it; returns (report, workload)."""
    workload = random_workload(
        num_features=args.features,
        clauses_per_polarity=args.clauses,
        num_operands=min(args.requests, 256),
        seed=args.seed,
    )
    spec = ModelSpec.from_workload(workload, attribution=args.attribution)
    config = GatewayConfig(
        max_batch=args.max_batch,
        max_delay_ms=args.deadline_ms,
        queue_depth=args.queue_depth,
        workers=args.workers,
    )
    load = LoadConfig(
        mode=args.mode,
        requests=args.requests,
        rate_rps=args.rate,
        concurrency=args.concurrency,
        seed=args.seed,
    )
    gateway = MicroBatchGateway(spec, config)
    await gateway.start()
    try:
        report = await run_load(gateway, workload.feature_vectors, load)
    finally:
        await gateway.stop()
    return report, workload


def check_determinism(report: LoadReport, workload) -> bool:
    """Compare every completed reply against the batch reference interpreter."""
    datapath = DualRailDatapath(workload.config)
    sweep = batch_functional_pass(
        datapath,
        datapath.circuit,
        workload,
        resolve_library(None),
        with_activity=False,
        backend="batch",
    )
    operands = workload.feature_vectors.shape[0]
    mismatches = sum(
        1
        for verdict, decision, index in zip(
            report.verdicts, report.decisions, report.request_indices
        )
        if (verdict, decision)
        != (sweep.verdicts[index % operands], sweep.decisions[index % operands])
    )
    if mismatches:
        print(f"determinism         : FAIL ({mismatches} mismatched replies)")
        return False
    print(
        "determinism         : OK "
        f"(gateway == batch_functional_pass on {len(report.verdicts)} replies)"
    )
    return True


def main(argv=None) -> int:
    """Run the demo; returns a process exit code."""
    args = build_parser().parse_args(argv)
    with tracing_session(args.trace_out):
        report, workload = asyncio.run(serve_and_measure(args))
    if args.trace_out:
        print(f"trace               : wrote {args.trace_out}")
    for line in report.summary_lines():
        print(line)
    ok = True
    if args.check_determinism:
        ok = check_determinism(report, workload) and ok
    if args.bench_json:
        report.write_bench_json(args.bench_json)
        print(f"bench record        : wrote {args.bench_json}")
    if args.min_throughput is not None and report.achieved_rps < args.min_throughput:
        print(
            f"throughput gate     : FAIL ({report.achieved_rps:,.0f} < "
            f"{args.min_throughput:,.0f} req/s)"
        )
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
