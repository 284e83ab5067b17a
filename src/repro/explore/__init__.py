"""Design-space exploration over the paper's architecture family.

The evaluation harnesses reproduce the paper's *figures*; this package
explores the *family* those figures sample: it enumerates configurations
over a declarative grid (dataset × clause count × booleanizer resolution ×
cell library × datapath style × supply voltage), evaluates every point end
to end (train → map → simulate → report) into typed :class:`DesignPoint`
records, caches results in a content-hash keyed on-disk store, and extracts
Pareto frontiers across any metric pair.

Typical use (see ``examples/explore_design_space.py`` for the CLI)::

    from repro.explore import (
        ResultStore, named_grid, parse_metric, pareto_front, run_sweep,
    )

    result = run_sweep(named_grid("smoke"), jobs=4,
                       store=ResultStore(".dse_store"))
    front = pareto_front(result.points,
                         [parse_metric("accuracy"), parse_metric("energy")])

* :mod:`repro.explore.grid` — specs, grids, named grids;
* :mod:`repro.explore.evaluate` — the end-to-end evaluator and sweep driver;
* :mod:`repro.explore.store` — the content-hash result store;
* :mod:`repro.explore.pareto` — front extraction, ranking, CSV emission;
* :mod:`repro.explore.queue` — the distributed, crash-resumable work queue
  (``run_sweep(workers=N)`` routes through it);
* :mod:`repro.explore.fronts` — cross-run Pareto-front history and the
  static HTML dashboard.
"""

from .evaluate import (
    DesignPoint,
    EvaluationSettings,
    SMOKE_SETTINGS,
    SweepResult,
    build_spec_workload,
    evaluate_point,
    run_sweep,
)
from .fronts import (
    FrontDelta,
    FrontHistory,
    FrontView,
    pair_slug,
    render_dashboard,
)
from .grid import (
    DesignPointSpec,
    FULL_GRID,
    GridExpansion,
    NOMINAL_GRID,
    ParameterGrid,
    SMOKE_GRID,
    grid_names,
    named_grid,
)
from .pareto import (
    METRIC_ALIASES,
    Metric,
    dominates,
    format_front_csv,
    front_csv,
    pareto_front,
    pareto_ranks,
    parse_metric,
    parse_metric_pair,
)
from .queue import (
    DseWorker,
    QueueSweepResult,
    QueueTask,
    WorkQueue,
    journal_events,
    journal_stats,
    parse_shard,
    run_queue_sweep,
    worker_main,
    write_manifest,
)
from .store import EVALUATOR_VERSION, ResultStore, library_fingerprint, point_key

__all__ = [
    "DesignPoint",
    "DesignPointSpec",
    "DseWorker",
    "EVALUATOR_VERSION",
    "EvaluationSettings",
    "FULL_GRID",
    "FrontDelta",
    "FrontHistory",
    "FrontView",
    "GridExpansion",
    "METRIC_ALIASES",
    "Metric",
    "NOMINAL_GRID",
    "ParameterGrid",
    "QueueSweepResult",
    "QueueTask",
    "ResultStore",
    "SMOKE_GRID",
    "SMOKE_SETTINGS",
    "SweepResult",
    "WorkQueue",
    "build_spec_workload",
    "dominates",
    "evaluate_point",
    "format_front_csv",
    "front_csv",
    "grid_names",
    "journal_events",
    "journal_stats",
    "library_fingerprint",
    "named_grid",
    "pair_slug",
    "pareto_front",
    "pareto_ranks",
    "parse_metric",
    "parse_metric_pair",
    "parse_shard",
    "point_key",
    "render_dashboard",
    "run_queue_sweep",
    "run_sweep",
    "worker_main",
    "write_manifest",
]
