"""One repetition of one workload, in a fresh process.

``run.py`` starts this script once per repetition, so every repetition
starts with cold per-process memos, as a command-line run does.  It prints
one JSON record as its last line of standard output:

* ``setup_s``: process start (taken by the parent just before it started
  this process) to the first timed call;
* ``wall_s``, ``ops``, ``latencies_ms`` (one per operation, in operation
  order), ``peak_rss_mb``: the timed phase;
* ``primary``: the figure trace overhead is judged on;
* ``attempted``, ``failed``, ``problems``: the output checks;
* ``layers``: per-layer metrics, with ``--trace 1`` only.

Usage: python3 perfbench/rep.py --workload NAME --seed N --trace 0|1 --started T
       [--full-check]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from layers import LayerTracer, install_batch_layers, layer_metrics, percentile  # noqa: E402
from workloads import WORKLOADS, ServeJob, make_job  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--started", type=float, required=True,
                        help="time.time() just before this process was started")
    parser.add_argument("--full-check", action="store_true",
                        help="also cross-check against the event-driven simulator")
    args = parser.parse_args(argv)

    tracer = LayerTracer() if args.trace else None
    job = make_job(args.workload, args.seed, tracer)
    try:
        job.setup()
        if tracer is not None:
            install_batch_layers(tracer)
            tracer.active = True
        setup_s = time.time() - args.started
        start = time.perf_counter()
        job.measure()
        end = time.perf_counter()
        if tracer is not None:
            tracer.active = False
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        wall_s = end - start
        latencies = job.op_latencies_ms
        record = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "ops": len(latencies),
            "latencies_ms": latencies,
            "peak_rss_mb": peak_rss_mb,
        }
        # Open-loop wall time is fixed by the arrival schedule, so tracing
        # cost shows in request latency there instead.
        record["primary"] = (percentile(latencies, 50) if args.workload == "serve-open"
                             else wall_s)
        if tracer is not None:
            layers = {}
            if isinstance(job, ServeJob):
                layers.update(job.layer_metrics())
            layers.update(layer_metrics(tracer, wall_s, (start, end)))
            record["layers"] = layers
        attempted, failed, problems = job.check(args.full_check)
    finally:
        job.close()
    record.update(attempted=attempted, failed=failed, problems=problems)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
