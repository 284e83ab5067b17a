"""Shared workload / library / measurement plumbing for every harness.

Before the design-space-exploration subsystem existed, each experiment
harness in :mod:`repro.analysis.experiments` repeated the same setup by
hand: pick a default workload, pick default libraries, build the dual-rail
datapath, synthesize it, compute the grace period, wire up a simulator and
handshake environment.  This module is the single home for that plumbing;
the Table-I / Figure-3 / latency-distribution harnesses and the
:mod:`repro.explore` evaluator all consume the same helpers, so a
measurement made by the DSE sweep is — by construction — the same
measurement the paper-reproduction harnesses make.

Contents
--------
* :class:`Workload` plus the :func:`default_workload` / :func:`random_workload`
  constructors and :func:`truncate_workload` (prefix sub-streams);
* :func:`resolve_workload` / :func:`resolve_library` /
  :func:`resolve_libraries` — argument-defaulting used by every harness;
* :class:`MappedDualRail` / :func:`build_mapped_dual_rail` — the
  build → map → grace-period pipeline shared by all dual-rail measurements;
* :class:`DualRailTestbench` / :func:`make_dual_rail_environment` — the
  simulator + handshake environment (+ optional monitors) construction;
* :class:`FunctionalSweep` / :func:`batch_functional_pass` and its plane
  helpers — the vectorized functional evaluation path.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.circuits.library import CellLibrary, default_libraries, full_diffusion_library
from repro.core.completion import GracePeriod, compute_grace_period
from repro.core.dual_rail import DualRailCircuit, OneOfNSignal, decode_pair
from repro.core.one_of_n import decode_one_of_n
from repro.datapath.datapath import (
    DatapathConfig,
    DualRailDatapath,
    VERDICT_LABELS,
    feature_input_name,
)
from repro.obs import trace as _trace
from repro.sim.backends import (
    ArrayBatchResult,
    BitpackBackend,
    PackedBatchResult,
    TimedBatchResult,
    get_backend,
)
from repro.sim.handshake import DualRailEnvironment, DualRailInferenceResult
from repro.sim.monitors import ForbiddenStateMonitor, MonotonicityMonitor, ProtocolViolation
from repro.sim.power import PowerAccountant, PowerReport
from repro.sim.simulator import GateLevelSimulator
from repro.synth.flow import SynthesisResult, synthesize
from repro.tm.inference import InferenceModel
from repro.tm.machine import TsetlinMachine
from repro.tm.datasets import noisy_xor


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------


@dataclass
class Workload:
    """A hardware workload: clause configuration plus a stream of operands."""

    config: DatapathConfig
    exclude: np.ndarray
    feature_vectors: np.ndarray
    model: InferenceModel
    description: str = ""

    @property
    def num_operands(self) -> int:
        """Number of feature vectors in the stream."""
        return int(self.feature_vectors.shape[0])


def default_workload(
    num_features: int = 4,
    clauses_per_polarity: int = 8,
    num_operands: int = 40,
    epochs: int = 25,
    seed: int = 2021,
    latch_inputs: bool = True,
) -> Workload:
    """Train a Tsetlin machine on noisy-XOR and package it as a hardware workload.

    The trained machine's exclude actions configure the clauses; the test
    split of the dataset provides the operand stream (re-sampled with
    replacement to reach *num_operands*).
    """
    config = DatapathConfig(
        num_features=num_features,
        clauses_per_polarity=clauses_per_polarity,
        latch_inputs=latch_inputs,
    )
    dataset = noisy_xor(num_samples=400, num_features=num_features, noise=0.05, seed=seed)
    machine = TsetlinMachine(
        num_features=num_features,
        num_clauses=config.num_clauses,
        threshold=clauses_per_polarity,
        s=3.0,
        seed=seed,
    )
    machine.fit(dataset.train_x, dataset.train_y, epochs=epochs)
    model = InferenceModel.from_machine(machine)
    rng = np.random.default_rng(seed)
    indices = rng.integers(0, dataset.test_x.shape[0], size=num_operands)
    feature_vectors = dataset.test_x[indices]
    return Workload(
        config=config,
        exclude=model.exclude,
        feature_vectors=feature_vectors,
        model=model,
        description=(
            f"noisy-XOR Tsetlin machine, {num_features} features, "
            f"{clauses_per_polarity} clauses per polarity, {num_operands} operands"
        ),
    )


def random_workload(
    num_features: int = 4,
    clauses_per_polarity: int = 8,
    num_operands: int = 40,
    include_probability: float = 0.25,
    seed: int = 7,
    latch_inputs: bool = True,
) -> Workload:
    """A workload with random clause composition (no training required)."""
    config = DatapathConfig(
        num_features=num_features,
        clauses_per_polarity=clauses_per_polarity,
        latch_inputs=latch_inputs,
    )
    model = InferenceModel.random(
        config.num_clauses, num_features, include_probability=include_probability, seed=seed
    )
    rng = np.random.default_rng(seed)
    feature_vectors = (rng.random((num_operands, num_features)) < 0.5).astype(np.int8)
    return Workload(
        config=config,
        exclude=model.exclude,
        feature_vectors=feature_vectors,
        model=model,
        description="random clause composition workload",
    )


def truncate_workload(workload: Workload, num_operands: Optional[int]) -> Workload:
    """A view of *workload* restricted to its first *num_operands* operands.

    ``None`` or a count >= the stream length returns *workload* unchanged,
    so callers can pass their ``operands_per_point``-style argument straight
    through.
    """
    if num_operands is None or num_operands >= workload.num_operands:
        return workload
    return replace(workload, feature_vectors=workload.feature_vectors[:num_operands])


def resolve_workload(workload: Optional[Workload], **defaults) -> Workload:
    """Return *workload*, or :func:`default_workload` built with *defaults*."""
    if workload is not None:
        return workload
    return default_workload(**defaults)


def resolve_library(library: Optional[CellLibrary], name: Optional[str] = None) -> CellLibrary:
    """Return *library*, or the named default (FULL DIFFUSION when unnamed).

    Parameters
    ----------
    name:
        Key into :func:`repro.circuits.library.default_libraries` used when
        *library* is ``None``; ``None`` selects the subthreshold-capable
        FULL DIFFUSION library (the permissive default: it works at every
        supply point the sweeps visit).
    """
    if library is not None:
        return library
    if name is None:
        return full_diffusion_library()
    libraries = default_libraries()
    try:
        return libraries[name]
    except KeyError:
        raise KeyError(
            f"unknown library {name!r}; expected one of {sorted(libraries)}"
        )


def resolve_libraries(
    libraries: Optional[Sequence[CellLibrary]],
) -> List[CellLibrary]:
    """Return *libraries* as a list, defaulting to both Table-I libraries."""
    if libraries is not None:
        return list(libraries)
    return list(default_libraries().values())


# --------------------------------------------------------------------------
# Dual-rail build → map → grace pipeline
# --------------------------------------------------------------------------


def rebind_interface(circuit: DualRailCircuit, synthesis: SynthesisResult) -> DualRailCircuit:
    """Re-bind the dual-rail interface onto the technology-mapped netlist."""
    return DualRailCircuit(
        netlist=synthesis.netlist,
        inputs=circuit.inputs,
        outputs=circuit.outputs,
        one_of_n_outputs=circuit.one_of_n_outputs,
        done_net=circuit.done_net,
        metadata=dict(circuit.metadata),
    )


@dataclass
class MappedDualRail:
    """A dual-rail datapath built, technology-mapped and timing-analysed.

    The product of :func:`build_mapped_dual_rail`: everything a measurement
    needs before any simulation runs — the construction half that used to be
    duplicated across ``measure_dual_rail``, the latency-distribution chunk
    worker and (now) the DSE evaluator.
    """

    config: DatapathConfig
    library: CellLibrary
    vdd: Optional[float]
    datapath: DualRailDatapath
    synthesis: SynthesisResult
    circuit: DualRailCircuit
    grace: GracePeriod


def build_mapped_dual_rail(
    config: DatapathConfig,
    library: CellLibrary,
    vdd: Optional[float] = None,
) -> MappedDualRail:
    """Build the dual-rail datapath for *config*, map it, compute its grace.

    This is the one construction path for every dual-rail measurement:
    datapath assembly, technology mapping with the unate-cell check
    (Requirement 2), interface re-binding onto the mapped netlist, and the
    reduced-CD grace period at the measurement supply.
    """
    with _trace.span("measure.map", library=library.name):
        datapath = DualRailDatapath(config, library=library)
        synthesis = synthesize(
            datapath.circuit.netlist, library, vdd=vdd, clocked=False,
            enforce_unate=True,
        )
        circuit = rebind_interface(datapath.circuit, synthesis)
        grace = compute_grace_period(circuit, library, vdd=vdd)
    return MappedDualRail(
        config=config,
        library=library,
        vdd=vdd,
        datapath=datapath,
        synthesis=synthesis,
        circuit=circuit,
        grace=grace,
    )


@dataclass
class DualRailTestbench:
    """A ready-to-run simulator + handshake environment for a mapped design."""

    simulator: GateLevelSimulator
    environment: DualRailEnvironment
    monotonicity: Optional[MonotonicityMonitor]
    forbidden: Optional[ForbiddenStateMonitor]

    @property
    def monitors_ok(self) -> bool:
        """``True`` when every attached monitor is still clean."""
        mono = self.monotonicity.ok if self.monotonicity is not None else True
        forb = self.forbidden.ok if self.forbidden is not None else True
        return mono and forb


def make_dual_rail_environment(
    mapped: MappedDualRail,
    check_monotonic: bool = False,
    check_forbidden: bool = False,
) -> DualRailTestbench:
    """Construct (and reset) the event-driven testbench for *mapped*.

    Monitors are opt-in: the fast sweep paths skip them, the Table-I
    measurement enables both (the paper's hazard-freedom claim).
    """
    simulator = GateLevelSimulator(mapped.circuit.netlist, mapped.library, vdd=mapped.vdd)
    monitor = MonotonicityMonitor() if check_monotonic else None
    if monitor is not None:
        simulator.add_monitor(monitor)
    forbidden = None
    if check_forbidden:
        forbidden = ForbiddenStateMonitor(simulator, mapped.circuit.outputs)
        simulator.add_monitor(forbidden)
    environment = DualRailEnvironment(
        mapped.circuit, simulator, grace_period=mapped.grace.td,
        monotonicity_monitor=monitor,
    )
    environment.reset()
    return DualRailTestbench(
        simulator=simulator,
        environment=environment,
        monotonicity=monitor,
        forbidden=forbidden,
    )


# --------------------------------------------------------------------------
# Vectorized functional evaluation (batch / bitpack backends)
# --------------------------------------------------------------------------

#: Backends that implement the vectorized ``run_arrays`` plane interface
#: :func:`batch_functional_pass` is built on (``"event"`` does not).
FUNCTIONAL_BACKENDS = ("batch", "bitpack")


@dataclass
class FunctionalSweep:
    """Functional-only result of pushing a workload through a backend.

    Produced by :func:`batch_functional_pass`; carries everything Table-I
    style correctness accounting and batch energy estimation need, but no
    timing (use the event-driven environment when latency matters).
    """

    library: str
    backend: str
    samples: int
    verdicts: List[str]
    decisions: List[int]
    correctness: float
    activity_by_cell_type: Dict[str, int] = field(default_factory=dict)
    energy_per_inference_fj: float = 0.0


def workload_input_planes(
    circuit: DualRailCircuit, datapath: DualRailDatapath, workload: Workload
) -> Dict[str, np.ndarray]:
    """Per-rail input arrays for the whole operand stream of *workload*.

    Feature inputs vary per sample (column *m* of the feature matrix);
    exclude inputs are constant across the stream, so they broadcast from
    the first operand's assignment.  That broadcast assumption is checked
    against the last operand — if any non-feature input ever varied over the
    stream, this raises instead of silently computing wrong batch verdicts.
    """
    features = np.asarray(workload.feature_vectors, dtype=np.uint8)
    samples = features.shape[0]
    if samples == 0:
        # Zero-length planes give a well-formed empty sweep downstream.
        empty = np.zeros(0, dtype=np.uint8)
        return {rail: empty for sig in circuit.inputs for rail in sig.rails()}
    constants = datapath.operand_assignments(workload.feature_vectors[0], workload.exclude)
    if samples > 1:
        check = datapath.operand_assignments(workload.feature_vectors[-1], workload.exclude)
        feature_names = {
            feature_input_name(m) for m in range(workload.config.num_features)
        }
        varying = [name for name, value in constants.items()
                   if name not in feature_names and check[name] != value]
        if varying:
            raise ValueError(
                f"non-feature inputs vary across the operand stream "
                f"(e.g. {varying[:3]}); the batch plane broadcast would be wrong"
            )
    feature_index = {
        feature_input_name(m): m for m in range(workload.config.num_features)
    }
    planes: Dict[str, np.ndarray] = {}
    for sig in circuit.inputs:
        if sig.name in feature_index:
            bits = features[:, feature_index[sig.name]]
        else:
            bits = np.full(samples, int(constants[sig.name]), dtype=np.uint8)
        # encode_bit: the pos rail carries the bit, the neg rail its complement.
        planes[sig.pos] = bits
        planes[sig.neg] = (1 - bits).astype(np.uint8)
    return planes


def spacer_assignments(circuit: DualRailCircuit) -> Dict[str, int]:
    """The all-spacer input word (the rest state activity is counted from)."""
    spacer: Dict[str, int] = {}
    for sig in circuit.inputs:
        value = sig.polarity.spacer_rail_value
        spacer[sig.pos] = value
        spacer[sig.neg] = value
    return spacer


def verdict_signal(circuit: DualRailCircuit) -> OneOfNSignal:
    """The 1-of-3 verdict output port of a datapath circuit."""
    return next(
        sig for sig in circuit.one_of_n_outputs if tuple(sig.labels) == VERDICT_LABELS
    )


def decode_verdict_planes(
    result: Union[ArrayBatchResult, PackedBatchResult], sig: OneOfNSignal
) -> List[str]:
    """Vectorized 1-of-n decode of the verdict rails over a whole batch.

    Works on any result exposing the ``values[net] -> uint8 plane``
    interface — the batch backend's :class:`ArrayBatchResult` and the
    bitpack backend's :class:`PackedBatchResult` (which unpacks only the
    rails touched here).
    """
    rails = np.stack([result.values[rail] for rail in sig.rails])
    if np.any(rails > 1):
        raise ValueError(f"1-of-n output {sig.name!r} carries unknown values")
    active = rails != sig.polarity.spacer_rail_value
    active_counts = active.sum(axis=0)
    if np.any(active_counts != 1):
        bad = int(np.argmax(active_counts != 1))
        raise ValueError(
            f"invalid 1-of-{len(sig.rails)} codeword for sample {bad}: "
            f"{[int(v) for v in rails[:, bad]]}"
        )
    indices = active.argmax(axis=0)
    return [sig.labels[int(i)] for i in indices]


def batch_functional_pass(
    datapath: DualRailDatapath,
    circuit: DualRailCircuit,
    workload: Workload,
    library: CellLibrary,
    vdd: Optional[float] = None,
    with_activity: bool = True,
    backend: str = "batch",
    program_cache: Optional[str] = None,
) -> FunctionalSweep:
    """Run the whole operand stream through a vectorized backend at once.

    ``with_activity=False`` skips the spacer-baseline evaluation and energy
    pricing — the right mode when only verdicts are wanted (e.g. when the
    event simulation is computing power anyway).  *backend* selects any of
    :data:`FUNCTIONAL_BACKENDS` (``"batch"`` or ``"bitpack"``); both settle
    to identical values net-for-net and count identical activity, so the
    choice only moves wall-clock time.  *program_cache* names an on-disk
    :class:`~repro.sim.program_cache.ProgramCache` directory: the compiled
    program is loaded from it when present and stored into it otherwise.
    """
    if backend not in FUNCTIONAL_BACKENDS:
        raise ValueError(
            f"unknown functional backend {backend!r}; expected one of {FUNCTIONAL_BACKENDS}"
        )
    with _trace.span("measure.functional", backend=backend) as sweep_span:
        engine = get_backend(
            backend, circuit.netlist, library, vdd=vdd, cache=program_cache
        )
        planes = workload_input_planes(circuit, datapath, workload)
        baseline = spacer_assignments(circuit) if with_activity else None
        result = engine.run_arrays(planes, baseline=baseline)
        verdicts = decode_verdict_planes(result, verdict_signal(circuit))
        decisions = [DualRailDatapath.decision_from_verdict(v) for v in verdicts]
        golden = [workload.model.decision(f) for f in workload.feature_vectors]
        correct = sum(1 for d, g in zip(decisions, golden) if d == g)
        if with_activity:
            accountant = PowerAccountant(circuit.netlist, library, vdd=vdd)
            energy = accountant.energy_from_activity(result.activity_by_cell_type)
        else:
            energy = None
        samples = len(verdicts)
        sweep_span.add(samples=samples)
    return FunctionalSweep(
        library=library.name,
        backend=backend,
        samples=samples,
        verdicts=verdicts,
        decisions=decisions,
        correctness=correct / samples if samples else 0.0,
        activity_by_cell_type=result.activity_by_cell_type,
        energy_per_inference_fj=(
            energy.total_fj / samples if energy is not None and samples else 0.0
        ),
    )


# --------------------------------------------------------------------------
# Vectorized timing (the data-dependent timing engine)
# --------------------------------------------------------------------------

#: The two timing sources every harness accepts, and the DSE's two
#: functional sources.  ``"event"`` is the reference: per-operand
#: event-driven handshake cycles.  ``"vectorized"`` times the whole operand
#: stream in one pass of the :mod:`repro.sim.backends.timed` engine, which
#: matches the event oracle per sample (the equivalence suite pins it at
#: rtol 1e-9) and runs one to three orders of magnitude faster.
TIMING_BACKENDS = ("event", "vectorized")


def normalize_timing_backend(name: str) -> str:
    """The canonical :data:`TIMING_BACKENDS` name for *name*.

    ``"batch"`` and ``"bitpack"`` are accepted as spellings of
    ``"vectorized"``: both once selected the same timed engine.  Every
    other name raises :class:`ValueError`.
    """
    if name in ("batch", "bitpack"):
        return "vectorized"
    if name not in TIMING_BACKENDS:
        raise ValueError(
            f"unknown backend {name!r}; expected one of {TIMING_BACKENDS}"
        )
    return name


@dataclass
class TimedDualRailRun:
    """A whole operand stream timed through the vectorized engine.

    Attributes
    ----------
    results:
        One :class:`~repro.sim.handshake.DualRailInferenceResult` per
        operand, field-compatible with the event-driven environment's
        results (latency summaries, histograms and throughput all work
        unchanged).  Absolute timestamps (``t_start``, ``done_rise``,
        ``done_fall``) start from 0 at the first operand, whereas the event
        environment's origin is its initial reset settle; all *relative*
        quantities agree with the event oracle to float re-association
        accuracy.
    timed:
        The raw :class:`~repro.sim.backends.timed.TimedBatchResult` (per-net
        arrival planes, per-sample energy, activity counts).
    window_ps:
        Total duration of the run — the sum of every operand's full
        handshake cycle including the grace period, i.e. exactly the
        measurement window the event-driven power accounting uses.
    """

    results: List[DualRailInferenceResult]
    timed: TimedBatchResult
    window_ps: float


def _logic_value(plane: np.ndarray, sample: int) -> Optional[int]:
    """Decode one plane entry back into the scalar LogicValue domain."""
    value = int(plane[sample])
    return None if value == 2 else value


def _check_output_protocol(circuit: DualRailCircuit, timed: TimedBatchResult) -> None:
    """Enforce the event environment's output-state obligations on a timed run.

    :class:`~repro.sim.handshake.DualRailEnvironment` raises
    :class:`~repro.sim.monitors.ProtocolViolation` when an output port fails
    to reach a valid codeword after valid inputs, or fails to return to
    spacer — states the reduced-CD ``done`` signal does not necessarily
    observe.  The timed path checks the same obligations vectorized: every
    dual-rail pair must settle to a valid codeword (rails known and
    complementary) in the valid phase and to spacer at rest; every 1-of-n
    port must assert exactly one rail per sample and rest all-spacer.
    """
    for sig in circuit.outputs:
        pos, neg = timed.values[sig.pos], timed.values[sig.neg]
        bad = (pos > 1) | (neg > 1) | (pos == neg)
        if np.any(bad):
            k = int(np.argmax(bad))
            raise ProtocolViolation(
                f"output {sig.name!r} never reached the valid state for "
                f"sample {k} (rails are "
                f"({_logic_value(pos, k)}, {_logic_value(neg, k)}))"
            )
        spacer = sig.polarity.spacer_rail_value
        if (timed.spacer_values[sig.pos] != spacer
                or timed.spacer_values[sig.neg] != spacer):
            raise ProtocolViolation(
                f"output {sig.name!r} never reached the spacer state at rest"
            )
    for sig in circuit.one_of_n_outputs:
        rails = np.stack([timed.values[r] for r in sig.rails])
        if np.any(rails > 1):
            raise ProtocolViolation(
                f"1-of-n output {sig.name!r} carries unknown values"
            )
        active = (rails != sig.polarity.spacer_rail_value).sum(axis=0)
        if np.any(active != 1):
            k = int(np.argmax(active != 1))
            raise ProtocolViolation(
                f"1-of-n output {sig.name!r} never reached the valid state "
                f"for sample {k} (rails {[int(v) for v in rails[:, k]]})"
            )
        idle = sig.polarity.spacer_rail_value
        if any(timed.spacer_values[r] != idle for r in sig.rails):
            raise ProtocolViolation(
                f"1-of-n output {sig.name!r} never reached the spacer state at rest"
            )


def timed_dual_rail_run(
    mapped: MappedDualRail,
    workload: Workload,
    program_cache: Optional[str] = None,
) -> TimedDualRailRun:
    """Time every operand of *workload* in one vectorized pass.

    The vectorized counterpart of driving
    :func:`make_dual_rail_environment` over the stream: per-operand
    spacer→valid latency, reset times, internal-reset times, done edges and
    switching energy, computed by the :mod:`~repro.sim.backends.timed`
    engine through :meth:`~repro.sim.backends.bitpack.BitpackBackend.run_timed`.
    The same protocol obligations are enforced, mirroring the event
    environment: every output port must reach a valid codeword for every
    operand and rest at spacer, and ``done`` must assert, otherwise
    :class:`~repro.sim.monitors.ProtocolViolation` is raised.
    """
    circuit, datapath = mapped.circuit, mapped.datapath
    with _trace.span("measure.timed"):
        engine = get_backend(
            BitpackBackend.name,
            circuit.netlist,
            mapped.library,
            vdd=mapped.vdd,
            cache=program_cache,
        )
        planes = workload_input_planes(circuit, datapath, workload)
        timed = engine.run_timed(planes, spacer_assignments(circuit))
        _check_output_protocol(circuit, timed)

    rails = circuit.all_output_rails()
    t_s_to_v = timed.max_arrival(rails, "valid")
    t_v_to_s = timed.max_arrival(rails, "reset")
    settle_valid = timed.settle_time("valid")
    internal_reset = timed.settle_time("reset")
    done = circuit.done_net
    if done is not None:
        if np.any(timed.values[done] != 1):
            raise ProtocolViolation(
                "completion (done) never asserted after valid inputs"
            )
        done_rise = timed.arrival_of(done, "valid")
        done_fall = timed.arrival_of(done, "reset")
    else:
        done_rise = done_fall = None

    grace = mapped.grace.td
    results: List[DualRailInferenceResult] = []
    t_start = 0.0
    for k in range(timed.samples):
        operand = datapath.operand_assignments(
            workload.feature_vectors[k], workload.exclude
        )
        outputs: Dict[str, Optional[int]] = {}
        for sig in circuit.outputs:
            outputs[sig.name] = decode_pair(
                _logic_value(timed.values[sig.pos], k),
                _logic_value(timed.values[sig.neg], k),
                sig.polarity,
            )
        one_of_n: Dict[str, Optional[int]] = {}
        for sig in circuit.one_of_n_outputs:
            one_of_n[sig.name] = decode_one_of_n(
                [_logic_value(timed.values[r], k) for r in sig.rails], sig.polarity
            )
        t_spacer = t_start + float(settle_valid[k])
        # The environment may apply the next operand only once the outputs
        # have reset, the grace period td has elapsed, done has fallen and
        # (in practice, because it settles fully) every internal net has
        # reset — the max below reproduces its ready-time rule exactly.
        reset_span = max(
            grace,
            float(t_v_to_s[k]),
            float(internal_reset[k]),
            float(done_fall[k]) if done_fall is not None else 0.0,
        )
        results.append(
            DualRailInferenceResult(
                operand=dict(operand),
                outputs=outputs,
                one_of_n_outputs=one_of_n,
                t_start=t_start,
                t_s_to_v=float(t_s_to_v[k]),
                t_v_to_s=float(t_v_to_s[k]),
                t_internal_reset=float(internal_reset[k]),
                done_rise=(
                    t_start + float(done_rise[k]) if done_rise is not None else None
                ),
                done_fall=(
                    t_spacer + float(done_fall[k]) if done_fall is not None else None
                ),
            )
        )
        t_start = t_spacer + reset_span
    return TimedDualRailRun(results=results, timed=timed, window_ps=t_start)


def timed_power_report(mapped: MappedDualRail, run: TimedDualRailRun) -> PowerReport:
    """Average power of a timed run — same accounting as the event window.

    Dynamic energy is the timed engine's per-sample switching energy (two
    transitions per toggling cell per handshake, priced through the
    library's per-cell energies at the measurement supply); the window is
    the run's total duration including grace periods; leakage comes from
    the same :class:`~repro.sim.power.PowerAccountant` the event path uses.
    For glitch-free (monotonic) netlists these are exactly the transitions
    the event simulator logs, so the report matches the event-driven one to
    float accuracy.
    """
    if run.window_ps <= 0:
        raise ValueError("timed run has an empty measurement window")
    accountant = PowerAccountant(mapped.circuit.netlist, mapped.library, vdd=mapped.vdd)
    total_fj = float(run.timed.energy_per_sample_fj.sum())
    operations = len(run.results)
    dynamic_uw = total_fj / run.window_ps * 1e3
    leakage_nw = accountant.leakage_nw()
    return PowerReport(
        dynamic_uw=dynamic_uw,
        leakage_nw=leakage_nw,
        total_uw=dynamic_uw + leakage_nw * 1e-3,
        energy_per_operation_fj=total_fj / operations if operations else 0.0,
        operations=operations,
        window_ps=run.window_ps,
    )
