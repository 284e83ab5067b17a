"""Design-space exploration driver: Pareto sweeps over the architecture family.

Expands a named parameter grid (dataset × clauses × booleanizer resolution ×
library × datapath style × supply voltage), evaluates every point end to end
(train → map → simulate → report) through ``repro.explore``, and emits:

* ``<out>/dse_points.json``  — every evaluated :class:`DesignPoint`;
* ``<out>/pareto_<a>_vs_<b>.csv`` — one deterministic Pareto-front CSV per
  requested metric pair;
* ``BENCH_dse.json`` (``--bench-json``) — the sweep provenance record CI
  uploads as an artifact (point counts, cache hit rate, front sizes).

Results are cached in a content-hash keyed store (``--store``), so re-runs
only evaluate new or invalidated points; ``--expect-cached`` turns a re-run
into an assertion that *everything* was served from the store.
``--check-determinism`` re-evaluates the grid serially without the store and
fails unless every point and every front is bit-identical — the jobs=1 ≡
jobs=N contract CI enforces.

``--workers N`` switches from the in-process pool to the distributed work
queue (``repro.explore.queue``): N worker processes coordinate through
lease files in the store, so a killed run resumes where it stopped
(``--resume`` asserts a previous run's manifest is actually there) and the
same store directory can be drained from several hosts with
``--shard i/n``.  ``--chaos-kill-after M`` SIGKILLs one worker after M
completions (the CI crash-resume drill); an incomplete queue exits with
code 3 — rerun the same command to finish.  ``--front-history`` appends
changed Pareto fronts to a byte-stable cross-run history file and
``--dashboard`` renders the whole run as a static HTML page.

Run with:  python examples/explore_design_space.py --grid smoke --jobs 4
     or:   python examples/explore_design_space.py --grid smoke --workers 2
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.analysis import TIMING_BACKENDS
from repro.explore import (
    DseWorker,
    FrontHistory,
    FrontView,
    ResultStore,
    format_front_csv,
    grid_names,
    named_grid,
    pareto_front,
    parse_metric_pair,
    parse_shard,
    render_dashboard,
    run_sweep,
    write_manifest,
)
from repro.explore.grid import GridExpansion
from repro.obs.profile import tracing_session

#: Exit code for a queue sweep that stopped before draining (killed worker,
#: quarantined points): rerun the same command to resume.
EXIT_INCOMPLETE = 3

#: Metric pairs swept by default: the paper's headline trade-offs.
DEFAULT_PARETO_PAIRS = ("accuracy,energy", "accuracy,latency", "latency,area")


def _front_filename(pair) -> str:
    a, b = pair
    return f"pareto_{a.name}_vs_{b.name}.csv"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--grid", default="smoke", choices=grid_names(),
                        help="named parameter grid to expand (default: smoke)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="parallel evaluation processes (results are jobs-invariant)")
    parser.add_argument("--backend", default="vectorized", choices=TIMING_BACKENDS,
                        help="source of the functional axes: 'vectorized' (one "
                             "pass over the full operand stream, the default) or "
                             "'event' (event-simulate the full stream)")
    parser.add_argument("--timing-backend", default="event", choices=TIMING_BACKENDS,
                        help="timing source for the latency/energy axes: 'event' "
                             "(per-operand event simulation, the oracle) or "
                             "'vectorized' (vectorized timing engine over "
                             "the full operand stream)")
    parser.add_argument("--store", default=".dse_store",
                        help="result-store directory; 'none' disables caching")
    parser.add_argument("--program-cache", default=None,
                        help="compiled-program cache directory shared by all "
                             "evaluation workers (each unique netlist is "
                             "compiled once and served from disk afterwards)")
    parser.add_argument("--out", default="dse_out",
                        help="artifact directory for dse_points.json + Pareto CSVs")
    parser.add_argument("--bench-json", default=None,
                        help="also write the BENCH_dse.json provenance record here")
    parser.add_argument("--pareto", action="append", default=None,
                        metavar="METRIC,METRIC",
                        help="metric pair to extract a front for (repeatable; "
                             f"default: {', '.join(DEFAULT_PARETO_PAIRS)})")
    parser.add_argument("--min-points", type=int, default=0,
                        help="fail unless at least this many design points were swept")
    parser.add_argument("--max-points", type=int, default=0,
                        help="evaluate only the first N expanded design points "
                             "(0 = all); handy for profiling smoke runs")
    parser.add_argument("--trace-out", default=None,
                        help="write a Chrome/Perfetto trace of the sweep to this "
                             "path (.json = trace_event, .jsonl = raw spans)")
    parser.add_argument("--check-determinism", action="store_true",
                        help="re-evaluate serially without the store and require "
                             "bit-identical points and fronts")
    parser.add_argument("--expect-cached", action="store_true",
                        help="fail unless every point was served from the store")
    parser.add_argument("--workers", type=int, default=0,
                        help="drain the grid through N queue-coordinated worker "
                             "processes instead of the in-process pool "
                             "(0 = in-process; requires --store)")
    parser.add_argument("--resume", action="store_true",
                        help="require an existing queue manifest in the store "
                             "(fail fast when there is no crashed run to resume)")
    parser.add_argument("--shard", default=None, metavar="I/N",
                        help="run ONE in-process queue worker owning manifest "
                             "indices congruent to i mod n, then exit (multi-host "
                             "mode: every host points at the same --store)")
    parser.add_argument("--lease-ttl", type=float, default=30.0,
                        help="seconds a queue lease survives without a heartbeat "
                             "before other workers may reclaim it")
    parser.add_argument("--max-attempts", type=int, default=3,
                        help="claims a design point is allowed before quarantine")
    parser.add_argument("--chaos-kill-after", type=int, default=None, metavar="M",
                        help="fault injection: SIGKILL one worker once M points "
                             "completed (exits %d; rerun to resume)" % EXIT_INCOMPLETE)
    parser.add_argument("--front-history", default=None, metavar="PATH",
                        help="append changed Pareto fronts to this byte-stable "
                             "cross-run history file")
    parser.add_argument("--dashboard", default=None, metavar="PATH",
                        help="render the sweep as a self-contained HTML dashboard")
    args = parser.parse_args(argv)

    pair_texts = args.pareto if args.pareto else list(DEFAULT_PARETO_PAIRS)
    pairs = [parse_metric_pair(text) for text in pair_texts]
    grid = named_grid(args.grid)
    if args.max_points > 0:
        expansion = grid.expand()
        grid = GridExpansion(
            points=tuple(expansion.points[: args.max_points]),
            dropped_duplicates=expansion.dropped_duplicates,
            dropped_infeasible=expansion.dropped_infeasible,
        )
    store = None if args.store.lower() == "none" else ResultStore(args.store)

    distributed = args.workers > 0 or args.shard is not None
    if distributed and store is None:
        print("error: --workers/--shard need a --store (the shared substrate)",
              file=sys.stderr)
        return 2
    if args.resume and not (
        Path(args.store) / "queue" / "manifest.json"
    ).exists():
        print(f"error: --resume: no queue manifest under {args.store}; "
              f"nothing to resume", file=sys.stderr)
        return 2

    if args.shard is not None:
        # Multi-host mode: be one worker over one shard, then exit.  The
        # driver artifacts (points, fronts, bench record) come from a final
        # --workers run once every shard has drained.
        shard = parse_shard(args.shard)
        from repro.explore.evaluate import expand_grid
        specs, _, _ = expand_grid(grid)
        write_manifest(store.directory, specs, backend=args.backend,
                       timing_backend=args.timing_backend,
                       program_cache=args.program_cache, grid_name=args.grid)
        worker = DseWorker(
            store_dir=store.directory, lease_ttl=args.lease_ttl,
            max_attempts=args.max_attempts, shard=shard,
        )
        report = worker.run()
        print(f"Shard {args.shard} of grid '{args.grid}': worker {report.owner} "
              f"completed {report.completed} point(s) "
              f"({report.failures} failure(s)) in {report.wall_seconds:.1f}s")
        return 0

    start = time.perf_counter()
    with tracing_session(args.trace_out):
        if args.workers > 0:
            result = run_sweep(
                grid, backend=args.backend, store=store,
                timing_backend=args.timing_backend,
                program_cache=args.program_cache,
                workers=args.workers, lease_ttl=args.lease_ttl,
                max_attempts=args.max_attempts, grid_name=args.grid,
                chaos_kill_after=args.chaos_kill_after,
            )
        else:
            result = run_sweep(grid, backend=args.backend, jobs=args.jobs,
                               store=store,
                               timing_backend=args.timing_backend,
                               program_cache=args.program_cache)
    elapsed = time.perf_counter() - start
    if args.trace_out:
        print(f"Trace -> {args.trace_out}")

    print(f"Grid '{args.grid}': {len(result.points)} design points "
          f"({result.dropped_duplicates} duplicate and "
          f"{result.dropped_infeasible} infeasible combinations dropped)")
    print(f"Evaluated {result.evaluated}, served {result.cached} from the store "
          f"(hit rate {result.cache_hit_rate:.0%}) in {elapsed:.1f}s "
          f"with jobs={args.jobs}, backend={args.backend}, "
          f"timing_backend={args.timing_backend}")

    if args.workers > 0:
        print(f"Queue: {result.workers} workers, {result.total_claims} claim(s), "
              f"{result.reclaims} reclaim(s), {result.duplicate_completes} "
              f"duplicate completion(s), resume overhead "
              f"{result.resume_overhead_pct:.2f}%")
        if result.quarantined:
            print(f"Quarantined point(s): {', '.join(result.quarantined)}")
        if not result.complete:
            print(f"\nQueue incomplete ({len(result.points)} points stored) — "
                  f"rerun the same command to resume", file=sys.stderr)
            return EXIT_INCOMPLETE

    failures = []
    if len(result.points) < args.min_points:
        failures.append(
            f"--min-points: swept only {len(result.points)} design points, "
            f"expected at least {args.min_points}"
        )
    if args.expect_cached and result.evaluated:
        failures.append(
            f"--expect-cached: {result.evaluated} points were re-evaluated "
            f"instead of served from the store"
        )

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    points_payload = {
        "grid": args.grid,
        "backend": args.backend,
        "points": [p.to_dict() for p in result.points],
    }
    (out_dir / "dse_points.json").write_text(
        json.dumps(points_payload, indent=2, sort_keys=True) + "\n"
    )

    fronts = {}
    front_texts = {}
    for pair in pairs:
        metrics = list(pair)
        front = pareto_front(result.points, metrics)
        csv_text = format_front_csv(front, metrics)
        csv_path = out_dir / _front_filename(pair)
        csv_path.write_text(csv_text)
        fronts[_front_filename(pair)] = front
        front_texts[_front_filename(pair)] = csv_text
        print(f"\nPareto front {pair[0].name} ({pair[0].goal}) vs "
              f"{pair[1].name} ({pair[1].goal}) — {len(front)} points "
              f"-> {csv_path}")
        for point in front:
            print(f"  {point.spec.label():55s} "
                  f"{pair[0].name}={pair[0].value(point):.4g} "
                  f"{pair[1].name}={pair[1].value(point):.4g}")
        if not front:
            failures.append(f"empty Pareto front for {_front_filename(pair)}")

    deltas = {}
    if args.front_history:
        history = FrontHistory.load(args.front_history)
        for pair in pairs:
            delta = history.record(
                args.grid, list(pair), fronts[_front_filename(pair)]
            )
            deltas[pair] = delta
            print(f"Front history: {delta.describe()}")
        history.save(args.front_history)
        print(f"Front history -> {args.front_history}")

    if args.dashboard:
        views = [
            FrontView(metrics=tuple(pair), points=result.points,
                      front=fronts[_front_filename(pair)],
                      delta=deltas.get(pair))
            for pair in pairs
        ]
        progress = {
            "total": len(result.points),
            "completed": len(result.points),
            "evaluated": result.evaluated,
            "cached": result.cached,
            "reclaims": getattr(result, "reclaims", 0),
            "quarantined": getattr(result, "quarantined", ()),
        }
        dash_path = Path(args.dashboard)
        dash_path.parent.mkdir(parents=True, exist_ok=True)
        dash_path.write_text(render_dashboard(
            f"Design-space exploration — grid '{args.grid}'", progress, views,
            subtitle=f"{len(result.points)} design points, backend "
                     f"{args.backend}, timing {args.timing_backend}",
        ))
        print(f"Dashboard -> {dash_path}")

    if args.check_determinism:
        print("\nDeterminism check: re-evaluating serially without the store ...")
        check_start = time.perf_counter()
        serial = run_sweep(grid, backend=args.backend, jobs=1, store=None,
                           timing_backend=args.timing_backend)
        check_elapsed = time.perf_counter() - check_start
        same_points = (
            [p.to_dict() for p in serial.points]
            == [p.to_dict() for p in result.points]
        )
        same_fronts = all(
            format_front_csv(pareto_front(serial.points, list(pair)), list(pair))
            == front_texts[_front_filename(pair)]
            for pair in pairs
        )
        if same_points and same_fronts:
            print(f"  OK: jobs=1 reproduced all {len(serial.points)} points and "
                  f"every front bit-for-bit ({check_elapsed:.1f}s)")
        else:
            failures.append(
                f"determinism violation: jobs=1 differs from jobs={args.jobs} "
                f"(points identical: {same_points}, fronts identical: {same_fronts})"
            )

    bench = {
        "grid": args.grid,
        "backend": args.backend,
        "timing_backend": args.timing_backend,
        "jobs": args.jobs,
        "design_points": len(result.points),
        "evaluated": result.evaluated,
        "cached": result.cached,
        "cache_hit_rate": result.cache_hit_rate,
        "dropped_duplicates": result.dropped_duplicates,
        "dropped_infeasible": result.dropped_infeasible,
        "wall_seconds": elapsed,
        "pareto_fronts": {
            name: [p.spec.label() for p in front] for name, front in fronts.items()
        },
        "store": store.stats() if store is not None else None,
    }
    if args.workers > 0:
        bench["workers"] = result.workers
        bench["queue"] = {
            "total_claims": result.total_claims,
            "reclaims": result.reclaims,
            "duplicate_completes": result.duplicate_completes,
            "quarantined": list(result.quarantined),
        }
        # The gated metric family (benchmarks/check_regression.py
        # --only-prefix dse_): how much of the grid was re-claimed across
        # crashes and resumes, cumulative over this store's journal.
        bench["metrics"] = {
            "dse_resume_overhead_pct": result.resume_overhead_pct,
        }
    if args.bench_json:
        Path(args.bench_json).write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")
        print(f"\nProvenance record -> {args.bench_json}")

    if failures:
        print("\nFAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
