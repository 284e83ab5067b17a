"""End-to-end evaluation of design points: train → map → simulate → report.

:func:`evaluate_point` turns one :class:`~repro.explore.grid.DesignPointSpec`
into a typed :class:`DesignPoint` record carrying every trade-off axis the
paper argues about:

* **accuracy** — the trained Tsetlin machine's test-split accuracy (a
  function of clause count and booleanizer resolution, not of the circuit);
* **hardware correctness** — simulated decisions vs the golden
  :class:`~repro.tm.inference.InferenceModel` over the operand stream;
* **latency** — mean / p95 / max spacer→valid latency from the event-driven
  simulation (the synchronous baseline's latency is its clock period);
* **energy per inference** — switching activity priced through the library's
  per-cell energies (vectorized pass) or the event transition log;
* **area** — mapped cell area, with the sequential-cell breakdown.

Measurement modes
-----------------
``backend`` (functional quantities) and ``timing_backend`` (latency and
energy) each take ``"event"`` or ``"vectorized"``.  The default *hybrid*
mode, ``("vectorized", "event")``, takes every functional quantity from one
vectorized pass over the full operand stream and event-simulates only a
short timing prefix (``settings.timing_operands``); ``("event", "event")``
simulates the full stream event-driven, exactly like the Table-I
measurement; vectorized timing times the full stream, and its value planes
answer the functional questions too, so it records ``"vectorized"`` for
both.  All modes share :mod:`repro.analysis.measure`, so a DSE point is
measured the same way the paper-reproduction harnesses measure.

:func:`run_sweep` fans a grid out through
:func:`repro.analysis.runner.run_parallel` under the pinned determinism
contract — every point is seeded from its spec and settings alone, so
``jobs=1`` and ``jobs=N`` produce bit-identical records — and consults a
:class:`~repro.explore.store.ResultStore` so unchanged points are never
re-evaluated.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.analysis.latency import summarize_latencies
from repro.analysis.measure import (
    Workload,
    batch_functional_pass,
    build_mapped_dual_rail,
    make_dual_rail_environment,
    normalize_timing_backend,
    truncate_workload,
)
from repro.analysis.experiments import measure_dual_rail, measure_single_rail
from repro.analysis.runner import run_parallel
from repro.analysis.throughput import dual_rail_throughput
from repro.circuits.library import CellLibrary, default_libraries
from repro.datapath.datapath import DatapathConfig
from repro.datapath.styles import check_style, is_dual_rail, style_config
from repro.obs import trace as _trace
from repro.tm.datasets import make_dataset
from repro.tm.inference import InferenceModel
from repro.tm.machine import TsetlinMachine

from .grid import DesignPointSpec, GridExpansion, ParameterGrid
from .store import ResultStore, library_fingerprint, point_key

@dataclass(frozen=True)
class EvaluationSettings:
    """Everything held constant across one sweep (part of the store key).

    Attributes
    ----------
    num_features:
        Boolean feature count for Boolean datasets; raw sensor-channel count
        for continuous ones (the Boolean width is then
        ``num_features × booleanizer_levels``).
    train_samples / epochs / s:
        Training budget and specificity of the Tsetlin machine.
    operands:
        Length of the hardware operand stream (resampled from the test
        split) that functional quantities are measured over.
    timing_operands:
        Event-simulated prefix used for the latency columns in the hybrid
        mode (the other modes time the full stream).
    seed:
        Root seed: dataset generation, training and operand resampling all
        derive from it, which is what makes a point a pure function of
        ``(spec, settings, backend, timing_backend)``.
    """

    num_features: int = 3
    train_samples: int = 240
    epochs: int = 10
    s: float = 3.0
    operands: int = 32
    timing_operands: int = 6
    seed: int = 2021

    def validate(self) -> "EvaluationSettings":
        """Raise :class:`ValueError` for unusable settings."""
        if self.num_features < 2:
            raise ValueError("num_features must be >= 2 (noisy-xor needs two)")
        if self.operands < 1 or self.timing_operands < 1:
            raise ValueError("operands and timing_operands must be >= 1")
        if self.epochs < 1 or self.train_samples < 10:
            raise ValueError("training budget too small to be meaningful")
        return self


#: The settings the CI smoke sweep pins.
SMOKE_SETTINGS = EvaluationSettings()


@dataclass
class DesignPoint:
    """One fully evaluated configuration — a row of the design space.

    ``metric(name)`` provides uniform access for the Pareto machinery; the
    ``to_dict``/``from_dict`` pair is the store and artifact serialization
    (plain JSON types only).  ``backend`` and ``timing_backend`` record the
    engines that produced the functional and the latency/energy columns:
    the event-driven environment (``"event"``) or the vectorized engines
    (``"vectorized"``; vectorized timing also raises ``timed_operands`` to
    the full stream, since timing the whole stream is then as cheap as the
    functional pass).  Clocked points are always event-simulated and record
    ``"event"`` in both.
    """

    spec: DesignPointSpec
    backend: str
    vdd: float
    num_features: int
    accuracy: float
    hardware_correctness: float
    mean_latency_ps: float
    p95_latency_ps: float
    max_latency_ps: float
    energy_per_inference_fj: float
    area_um2: float
    sequential_area_um2: float
    leakage_nw: float
    cell_count: int
    throughput_mops: float
    timed_operands: int
    timing_backend: str = "event"

    def metric(self, name: str) -> float:
        """Numeric metric by attribute name (raises for unknown names)."""
        value = getattr(self, name, None)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise KeyError(f"{name!r} is not a numeric metric of DesignPoint")
        return float(value)

    def to_dict(self) -> dict:
        """Plain-JSON representation (specs nested as a dict)."""
        record = asdict(self)
        record["spec"] = asdict(self.spec)
        return record

    @classmethod
    def from_dict(cls, record: dict) -> "DesignPoint":
        """Inverse of :meth:`to_dict` (raises on malformed records)."""
        data = dict(record)
        data["spec"] = DesignPointSpec(**data["spec"])
        return cls(**data)


# Per-process memo: workload construction (dataset + training) is by far the
# most expensive stage and is shared by every (library, style, vdd) variant
# of the same architecture, so each worker process trains it once.
_WORKLOAD_CACHE: Dict[Tuple, Tuple[Workload, float]] = {}


def build_spec_workload(
    spec: DesignPointSpec, settings: EvaluationSettings
) -> Tuple[Workload, float]:
    """Dataset + training + operand stream for *spec*; returns (workload, accuracy).

    The returned accuracy is the trained model's test-split accuracy — the
    "accuracy" axis of every design point sharing this architecture.
    Results are memoised per process on ``(dataset, clauses, levels,
    settings)``; the cache is transparent to determinism because the value
    is a pure function of the key.
    """
    key = (spec.dataset, spec.clauses_per_polarity, spec.booleanizer_levels, settings)
    cached = _WORKLOAD_CACHE.get(key)
    if cached is not None:
        return cached
    with _trace.span("dse.train", dataset=spec.dataset,
                     clauses=spec.clauses_per_polarity):
        dataset = make_dataset(
            spec.dataset,
            num_samples=settings.train_samples,
            num_features=settings.num_features,
            booleanizer_levels=spec.booleanizer_levels,
            seed=settings.seed,
        )
        num_features = dataset.num_features
        config = DatapathConfig(
            num_features=num_features,
            clauses_per_polarity=spec.clauses_per_polarity,
        )
        machine = TsetlinMachine(
            num_features=num_features,
            num_clauses=config.num_clauses,
            threshold=spec.clauses_per_polarity,
            s=settings.s,
            seed=settings.seed,
        )
        machine.fit(dataset.train_x, dataset.train_y, epochs=settings.epochs)
        model = InferenceModel.from_machine(machine)
        decisions = np.array(
            [model.decision(row) for row in dataset.test_x], dtype=np.int8
        )
        accuracy = (
            float(np.mean(decisions == dataset.test_y)) if decisions.size else 0.0
        )
        rng = np.random.default_rng(settings.seed)
        indices = rng.integers(0, dataset.test_x.shape[0], size=settings.operands)
        workload = Workload(
            config=config,
            exclude=model.exclude,
            feature_vectors=dataset.test_x[indices],
            model=model,
            description=(
                f"{spec.dataset} ({num_features} Boolean features, "
                f"{spec.clauses_per_polarity} clauses per polarity)"
            ),
        )
    _WORKLOAD_CACHE[key] = (workload, accuracy)
    return workload, accuracy


def normalize_backends(backend: str, timing_backend: str) -> Tuple[str, str]:
    """Canonical ``(backend, timing_backend)`` names of a DSE measurement.

    Each name goes through
    :func:`~repro.analysis.measure.normalize_timing_backend`; vectorized
    timing makes the functional source vectorized as well.
    """
    backend = normalize_timing_backend(backend)
    timing_backend = normalize_timing_backend(timing_backend)
    if timing_backend == "vectorized":
        backend = "vectorized"
    return backend, timing_backend


def _resolved_vdd(spec: DesignPointSpec, library: CellLibrary) -> float:
    return float(
        spec.vdd if spec.vdd is not None else library.voltage_model.nominal_vdd
    )


def _evaluate_dual_rail(
    spec: DesignPointSpec,
    settings: EvaluationSettings,
    workload: Workload,
    accuracy: float,
    library: CellLibrary,
    backend: str,
    timing_backend: str,
    program_cache: Optional[str] = None,
) -> DesignPoint:
    config = style_config(spec.style, workload.config)
    timed = truncate_workload(workload, settings.timing_operands)
    with _trace.span("dse.simulate", backend=backend,
                     timing_backend=timing_backend):
        if timing_backend == "vectorized" or backend == "event":
            # Both the fully-vectorized path (one timed pass over the *full*
            # stream — no prefix truncation) and the fully-event path are the
            # Table-I measurement itself: route through measure_dual_rail so
            # DSE axes cannot drift from the paper-artefact harness.
            timed = workload
            measurement = measure_dual_rail(
                replace_config(workload, config), library, vdd=spec.vdd,
                check_monotonic=False, timing_backend=timing_backend,
                program_cache=program_cache,
            )
            correctness = measurement.correctness
            energy = measurement.power.energy_per_operation_fj
            latency = measurement.latency
            throughput = measurement.throughput_millions
            synthesis_metrics = measurement.synthesis.metrics()
        else:
            mapped = build_mapped_dual_rail(config, library, vdd=spec.vdd)
            functional = batch_functional_pass(
                mapped.datapath, mapped.circuit, replace_config(workload, config),
                library, vdd=spec.vdd, with_activity=True, backend="bitpack",
                program_cache=program_cache,
            )
            correctness = functional.correctness
            energy = functional.energy_per_inference_fj
            bench = make_dual_rail_environment(mapped)
            results = []
            for features in timed.feature_vectors:
                assignments = mapped.datapath.operand_assignments(
                    features, workload.exclude
                )
                results.append(bench.environment.infer(assignments))
            latency = summarize_latencies(results)
            throughput = dual_rail_throughput(
                results, grace_period=mapped.grace.td
            ).millions_per_second
            synthesis_metrics = mapped.synthesis.metrics()
    return DesignPoint(
        spec=spec,
        backend=backend,
        vdd=_resolved_vdd(spec, library),
        num_features=workload.config.num_features,
        accuracy=accuracy,
        hardware_correctness=correctness,
        mean_latency_ps=latency.average,
        p95_latency_ps=latency.p95,
        max_latency_ps=latency.maximum,
        energy_per_inference_fj=energy,
        area_um2=synthesis_metrics["area_um2"],
        sequential_area_um2=synthesis_metrics["sequential_area_um2"],
        leakage_nw=synthesis_metrics["leakage_nw"],
        cell_count=synthesis_metrics["cell_count"],
        throughput_mops=throughput,
        timed_operands=timed.num_operands,
        timing_backend=timing_backend,
    )


def replace_config(workload: Workload, config: DatapathConfig) -> Workload:
    """A view of *workload* carrying *config* (same operands and model)."""
    if config is workload.config:
        return workload
    return replace(workload, config=config)


def _evaluate_synchronous(
    spec: DesignPointSpec,
    settings: EvaluationSettings,
    workload: Workload,
    accuracy: float,
    library: CellLibrary,
) -> DesignPoint:
    # The clocked baseline has no vectorized evaluator (flip-flop state is
    # inherently sequential), so every mode runs the event measurement and
    # the point records "event" for both engines; its latency is the STA
    # clock period by definition.
    measurement = measure_single_rail(workload, library, vdd=spec.vdd)
    period = measurement.clock_period_ps
    metrics = measurement.synthesis.metrics()
    return DesignPoint(
        spec=spec,
        backend="event",
        vdd=_resolved_vdd(spec, library),
        num_features=workload.config.num_features,
        accuracy=accuracy,
        hardware_correctness=measurement.correctness,
        mean_latency_ps=period,
        p95_latency_ps=period,
        max_latency_ps=period,
        energy_per_inference_fj=measurement.power.energy_per_operation_fj,
        area_um2=metrics["area_um2"],
        sequential_area_um2=metrics["sequential_area_um2"],
        leakage_nw=metrics["leakage_nw"],
        cell_count=metrics["cell_count"],
        throughput_mops=measurement.throughput_millions,
        timed_operands=workload.num_operands,
    )


def evaluate_point(
    spec: DesignPointSpec,
    settings: EvaluationSettings = SMOKE_SETTINGS,
    backend: str = "vectorized",
    timing_backend: str = "event",
    program_cache: Optional[str] = None,
) -> DesignPoint:
    """Evaluate one design point end to end: train → map → simulate → report.

    *backend* and *timing_backend* select one of the measurement modes the
    module docstring lists.  ``timing_backend="vectorized"`` sources the latency, energy and
    throughput axes from the vectorized timing engine over the *full*
    operand stream (the ``settings.timing_operands`` prefix only applies to
    the hybrid mode); ``"event"`` is the equivalence oracle the timed axes
    are validated against.  Under vectorized timing the functional
    quantities come from the timed engine's own value planes, so *backend*
    becomes ``"vectorized"`` too — the recorded provenance (and the store
    key) name the engine that actually ran.

    ``program_cache`` (a directory path) serves the point's compiled
    program from the on-disk
    :class:`~repro.sim.program_cache.ProgramCache` instead of recompiling
    the netlist; it never changes what is measured (cached programs are
    bit-identical), so it is deliberately *not* part of the store key.
    """
    spec = spec.validate().normalized()
    settings.validate()
    backend, timing_backend = normalize_backends(backend, timing_backend)
    check_style(spec.style)
    if not spec.is_feasible():
        raise ValueError(
            f"{spec.label()} is infeasible: {spec.vdd} V is below the "
            f"functional floor of {spec.library}"
        )
    with _trace.span("dse.point", label=spec.label(), backend=backend):
        library = default_libraries()[spec.library]
        workload, accuracy = build_spec_workload(spec, settings)
        if is_dual_rail(spec.style):
            return _evaluate_dual_rail(
                spec, settings, workload, accuracy, library, backend,
                timing_backend, program_cache=program_cache,
            )
        return _evaluate_synchronous(spec, settings, workload, accuracy, library)


def _sweep_worker(
    item: Tuple[DesignPointSpec, EvaluationSettings, str, str, Optional[str]]
) -> dict:
    """Process-pool work unit of :func:`run_sweep` (pickle-friendly dicts)."""
    spec, settings, backend, timing_backend, program_cache = item
    return evaluate_point(
        spec, settings, backend, timing_backend, program_cache=program_cache
    ).to_dict()


@dataclass
class SweepResult:
    """Everything :func:`run_sweep` produced, plus provenance counters."""

    points: List[DesignPoint]
    evaluated: int
    cached: int
    dropped_duplicates: int = 0
    dropped_infeasible: int = 0

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of requested points served from the result store."""
        total = self.evaluated + self.cached
        return self.cached / total if total else 0.0


def expand_grid(
    grid: Union[ParameterGrid, GridExpansion, Sequence[DesignPointSpec]],
) -> Tuple[List[DesignPointSpec], int, int]:
    """Normalize any sweep input into ``(specs, dropped_dup, dropped_inf)``.

    Accepts a declarative :class:`~repro.explore.grid.ParameterGrid`, an
    already-expanded :class:`~repro.explore.grid.GridExpansion`, or an
    explicit spec sequence — the shared front door of :func:`run_sweep` and
    the distributed queue driver, so both enumerate identical work lists.
    """
    if isinstance(grid, ParameterGrid):
        expansion = grid.expand()
        return (
            list(expansion.points),
            expansion.dropped_duplicates,
            expansion.dropped_infeasible,
        )
    if isinstance(grid, GridExpansion):
        return list(grid.points), grid.dropped_duplicates, grid.dropped_infeasible
    return [spec.validate().normalized() for spec in grid], 0, 0


def run_sweep(
    grid: Union[ParameterGrid, Sequence[DesignPointSpec]],
    settings: EvaluationSettings = SMOKE_SETTINGS,
    backend: str = "vectorized",
    jobs: int = 1,
    store: Optional[ResultStore] = None,
    timing_backend: str = "event",
    program_cache: Optional[str] = None,
    workers: Optional[int] = None,
    **queue_options,
) -> SweepResult:
    """Evaluate a grid (or explicit spec list), cached and in parallel.

    Store lookups happen up front in the calling process; only misses are
    fanned out through :func:`~repro.analysis.runner.run_parallel` (one spec
    per work unit — chunk boundaries therefore cannot affect results), and
    fresh results are written back before returning.  The returned points
    are in grid-expansion order regardless of ``jobs`` or cache state.
    *timing_backend* is part of the store key (a timed point and an
    event-timed point are different measurements of the same spec).  Both
    names are normalized exactly as :func:`evaluate_point` does, so
    equivalent sweeps share cache entries.

    ``program_cache`` (a directory path) is handed to every evaluated
    point; workers then load each unique design's compiled program from
    the shared :class:`~repro.sim.program_cache.ProgramCache` instead of
    recompiling it per process.  It is an execution knob, not a
    measurement parameter, so it is deliberately kept out of
    :class:`EvaluationSettings` (and hence out of the result-store key).

    ``workers=N`` switches execution to the distributed lease-based work
    queue (:func:`repro.explore.queue.run_queue_sweep`): *N* worker
    processes coordinate through the *store* directory (required in that
    mode), crash-resume comes for free, and extra ``queue_options``
    (``lease_ttl``, ``max_attempts``, ``sharded``, …) pass through.  The
    in-process ``jobs`` fan-out is ignored in queue mode.
    """
    backend, timing_backend = normalize_backends(backend, timing_backend)
    settings.validate()
    if workers is not None:
        from .queue import run_queue_sweep  # local: queue imports this module

        return run_queue_sweep(
            grid, settings=settings, backend=backend, workers=workers,
            store=store, timing_backend=timing_backend,
            program_cache=program_cache, **queue_options,
        )
    specs, dropped_dup, dropped_inf = expand_grid(grid)

    resolved: Dict[int, DesignPoint] = {}
    keys: List[Optional[str]] = [None] * len(specs)
    if store is not None:
        libraries = default_libraries()
        digests = {
            name: library_fingerprint(library) for name, library in libraries.items()
        }
        for index, spec in enumerate(specs):
            keys[index] = point_key(
                spec, settings, libraries[spec.library], backend,
                library_digest=digests[spec.library],
                timing_backend=timing_backend,
            )
            hit = store.get(keys[index])
            if hit is not None:
                resolved[index] = hit
    todo = [i for i in range(len(specs)) if i not in resolved]
    fresh = run_parallel(
        _sweep_worker,
        [
            (specs[i], settings, backend, timing_backend, program_cache)
            for i in todo
        ],
        jobs=jobs,
    )
    for index, record in zip(todo, fresh):
        point = DesignPoint.from_dict(record)
        resolved[index] = point
        if store is not None:
            store.put(keys[index], point)
    return SweepResult(
        points=[resolved[i] for i in range(len(specs))],
        evaluated=len(todo),
        cached=len(specs) - len(todo),
        dropped_duplicates=dropped_dup,
        dropped_infeasible=dropped_inf,
    )
