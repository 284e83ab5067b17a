"""The repository benchmark: one workload, several cold repetitions.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload dse-smoke --seed 1 --seconds 55 --trace 0

Workloads: ``dse-smoke`` and ``serve-open`` (see ``perfbench/README.md``
for what each runs and why).  Each repetition runs in a fresh process
(``rep.py``), one after another, for about ``--seconds`` and at least
three times.

Set-up time, wall time, throughput and memory are medians over the
untraced repetitions.  The latency percentiles are taken over the
operations of all untraced repetitions together, so that a percentile has
many operations beyond it (the 95th of a 72-point sweep would have fewer
than four in one repetition) and a single slow repetition moves it little.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced repetitions and prints the
per-layer metrics: medians over the traced repetitions, plus the tracing
overhead (median traced against median untraced repetition).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Without the
program's sources next to it the benchmark exits with status 2 and prints
no result; when a repetition crashes it exits with status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

from layers import percentile
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: No repetition starts after this many seconds, so a run ends within 180 s.
START_LIMIT_S = 120.0
#: A single repetition that takes longer than this is a failure.
REP_TIMEOUT_S = 150.0


def run_rep(workload: str, seed: int, traced: bool, full_check: bool,
            scratch: str) -> Optional[dict]:
    """One repetition in a fresh process; ``None`` when it crashed."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    command = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
               "--seed", str(seed), "--trace", "1" if traced else "0"]
    if full_check:
        command.append("--full-check")
    command += ["--started", repr(time.time())]
    try:
        done = subprocess.run(command, cwd=scratch, env=env, capture_output=True,
                              text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{workload}: repetition timed out after {REP_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        print(f"{workload}: repetition exited with status {done.returncode}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def repeat(workload: str, seed: int, seconds: float, trace: bool,
           scratch: str) -> Optional[List[dict]]:
    """Cold repetitions for about *seconds* (untraced/traced pairs with trace).

    A repetition starts only while the run is expected to end within
    *seconds*, judged by the mean length of the repetitions so far.
    """
    cycle = (False, True) if trace else (False,)
    minimum = 4 if trace else 3
    records: List[dict] = []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        if len(records) % len(cycle) == 0 and len(records) >= minimum:
            expected = elapsed / len(records) * len(cycle)
            if elapsed + expected > seconds or elapsed >= START_LIMIT_S:
                return records
        traced = cycle[len(records) % len(cycle)]
        record = run_rep(workload, seed, traced, not records, scratch)
        if record is None:
            return None
        record["traced"] = traced
        records.append(record)
        print(f"  repetition {len(records)}{' (traced)' if traced else ''}: "
              f"setup {record['setup_s']:.3f} s, wall {record['wall_s']:.3f} s, "
              f"{record['ops']} ops, p50 {percentile(record['latencies_ms'], 50):.3f} ms, "
              f"p95 {percentile(record['latencies_ms'], 95):.3f} ms")
        for problem in record["problems"]:
            print(f"  check failed: {problem}")


def end_to_end(records: List[dict]) -> Dict[str, float]:
    """The end-to-end figures over the untraced repetitions."""
    plain = [r for r in records if not r["traced"]]

    def median(key: str) -> float:
        return statistics.median(r[key] for r in plain)

    latencies = [ms for r in plain for ms in r["latencies_ms"]]
    return {
        "setup_s": median("setup_s"),
        "wall_s": median("wall_s"),
        "ops_per_s": statistics.median(r["ops"] / r["wall_s"] for r in plain),
        "latency_p50_ms": percentile(latencies, 50),
        "latency_p95_ms": percentile(latencies, 95),
        "peak_rss_mb": median("peak_rss_mb"),
    }


def per_layer(records: List[dict], names: List[str]) -> Dict[str, float]:
    """Medians over the traced repetitions, plus the tracing overhead."""
    traced = [r for r in records if r["traced"]]
    plain = [r for r in records if not r["traced"]]
    values = {
        name: statistics.median(r["layers"].get(name, 0.0) for r in traced)
        for name in names
    }
    untraced_primary = statistics.median(r["primary"] for r in plain)
    traced_primary = statistics.median(r["primary"] for r in traced)
    values["trace.overhead_pct"] = 100.0 * (traced_primary / untraced_primary - 1.0)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program sources under {ROOT / 'src'}; nothing to measure",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    scratch = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        records = repeat(args.workload, args.seed, args.seconds, bool(args.trace), scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if records is None:
        return 1

    if args.trace:
        values = per_layer(records, [m["name"] for m in wanted])
    else:
        values = end_to_end(records)
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    correct = failed == 0 and not any(r["problems"] for r in records)
    print(f"{args.workload}: seed {args.seed}, {len(records)} repetitions "
          f"({sum(r['traced'] for r in records)} traced)")
    for metric in wanted:
        print(f"  {metric['name']:<28} {values[metric['name']]:>14.6g} {metric['unit']}")
    print(f"  {'error_rate':<28} {failed / max(attempted, 1):>14.6g} "
          f"({failed} of {attempted} checked outputs)")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
