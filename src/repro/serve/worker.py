"""Compile-once inference workers behind the micro-batching gateway.

A worker owns everything that is expensive to build and free to reuse: the
dual-rail datapath netlist, its compiled program bound to the exclude-rail
constants (a :class:`~repro.sim.backends.bitpack.BoundProgram`) and, when
latency attribution is enabled, the technology-mapped design the timed
engine runs on.  The gateway hands a worker nothing but a ``(batch,
num_features)`` feature matrix per micro-batch and gets verdicts back — the
contract is a plain function of small arrays, so it crosses process
boundaries cheaply.

Two deployment shapes share the same :class:`InferenceWorker`:

* **in-process** — :class:`InProcessClassifier` holds the worker directly
  and the gateway runs ``classify`` on the event loop itself (no pickling,
  no process startup, no thread handoff; the right default for tests and
  single-machine serving);
* **multi-process** — :class:`ProcessPoolClassifier` ships a picklable
  :class:`ModelSpec` to each pool process once (the pool *initializer*
  compiles the model there) and afterwards only feature matrices and
  verdict lists cross the boundary.

Determinism: a worker built from ``ModelSpec.from_workload(w)`` evaluates
the exact netlist ``DualRailDatapath(w.config)`` builds with the bitpack
engine, which is bit-identical to the batch reference interpreter — so
gateway classifications equal a direct
:func:`repro.analysis.measure.batch_functional_pass` over the same operands
(the serve test-suite and the ``serve-smoke`` CI job assert this).
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import List, Optional

import numpy as np

from repro.analysis.measure import (
    Workload,
    build_mapped_dual_rail,
    decode_verdict_planes,
    decode_verdict_rows,
    resolve_library,
    spacer_assignments,
    verdict_signal,
)
from repro.circuits.library import CellLibrary
from repro.datapath.datapath import (
    DatapathConfig,
    DualRailDatapath,
    feature_input_name,
)
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.sim.backends import BitpackBackend, BoundProgram, get_backend
from repro.sim.program import CompiledProgram, compile_program, netlist_fingerprint
from repro.sim.program_cache import ProgramCache


@dataclass(frozen=True)
class ModelSpec:
    """Everything a worker process needs to compile the served model.

    Picklable by construction (dataclass config, a NumPy exclude matrix and
    plain scalars), so the same spec describes an in-process worker and a
    process-pool initializer argument.

    Attributes
    ----------
    config:
        Datapath shape (features, clauses per polarity, latches).
    exclude:
        The trained clause-composition matrix, hardware ordering (see
        :meth:`repro.datapath.datapath.DualRailDatapath.operand_assignments`).
    library:
        Cell library the program is compiled with (functional results do
        not depend on it; delays and energies do).
    vdd:
        Supply point for delay/energy attribution (``None`` = nominal).
    attribution:
        When ``True`` the worker maps the design once and runs every
        micro-batch through the timed engine, attaching per-request
        simulated-hardware latency (ps) and switching energy (fJ).
    program:
        An already-compiled :class:`~repro.sim.program.CompiledProgram` to
        execute instead of recompiling the spec's netlist.  It must be the
        program of the exact netlist the spec builds (the worker checks the
        content hash).  :class:`ProcessPoolClassifier` fills this in
        automatically so a pool compiles each unique netlist exactly once.
    program_cache:
        Directory of the on-disk
        :class:`~repro.sim.program_cache.ProgramCache`; when *program* is
        unset, workers load the compiled program from here (compiling and
        storing it only on a cold cache).
    """

    config: DatapathConfig
    exclude: np.ndarray
    library: Optional[CellLibrary] = None
    vdd: Optional[float] = None
    attribution: bool = False
    program: Optional[CompiledProgram] = None
    program_cache: Optional[str] = None

    @classmethod
    def from_workload(
        cls,
        workload: Workload,
        library: Optional[CellLibrary] = None,
        vdd: Optional[float] = None,
        attribution: bool = False,
        program: Optional[CompiledProgram] = None,
        program_cache: Optional[str] = None,
    ) -> "ModelSpec":
        """Spec for serving *workload*'s trained clause configuration."""
        return cls(
            config=workload.config,
            exclude=np.asarray(workload.exclude),
            library=library,
            vdd=vdd,
            attribution=attribution,
            program=program,
            program_cache=program_cache,
        )


def _spec_netlist(spec: ModelSpec, library: CellLibrary):
    """The exact netlist a worker for *spec* evaluates (mapped iff attribution)."""
    if spec.attribution:
        return build_mapped_dual_rail(spec.config, library, vdd=spec.vdd).circuit.netlist
    return DualRailDatapath(spec.config).circuit.netlist


def precompile_program(spec: ModelSpec) -> CompiledProgram:
    """Compile (or cache-load) the program a worker for *spec* will execute.

    The single-compile entry point behind :class:`ProcessPoolClassifier`'s
    pre-warm: with ``spec.program_cache`` set the program is served from (and
    stored into) the on-disk cache, otherwise it is compiled directly.  The
    returned artifact can be placed on ``spec.program`` — workers then skip
    compilation entirely.
    """
    library = resolve_library(spec.library)
    netlist = _spec_netlist(spec, library)
    if spec.program_cache is not None:
        return ProgramCache(spec.program_cache).load_or_compile(
            netlist, library, vdd=spec.vdd
        )
    return compile_program(netlist, library, vdd=spec.vdd)


@dataclass
class BatchReply:
    """One micro-batch's classifications, in request order.

    ``latency_ps`` / ``energy_fj`` are per-sample simulated-hardware
    quantities from the timed engine, present only when the spec enabled
    attribution.
    """

    verdicts: List[str]
    decisions: List[int]
    latency_ps: Optional[List[float]] = None
    energy_fj: Optional[List[float]] = None

    @property
    def samples(self) -> int:
        """Number of classified requests in the reply."""
        return len(self.verdicts)


def feature_bits(features) -> np.ndarray:
    """*features* as a ``uint8`` array, checked before the cast.

    Only integers and bools equal to 0 or 1 pass.  Anything else raises
    :class:`ValueError` instead of being coerced: ``0.5`` would cast to 0,
    and ``2`` is not a value the bitpack planes can carry.
    """
    raw = np.asarray(features)
    if raw.dtype.kind not in "biu" or ((raw != 0) & (raw != 1)).any():
        raise ValueError("features must be 0/1 integers or bools")
    return raw.astype(np.uint8, copy=False)


class InferenceWorker:
    """A served model, compiled once and reusable across micro-batches.

    Construction does all the heavy lifting — datapath build (plus
    synthesis mapping when attribution is on), compilation and the binding
    of the exclude rails as constants in :attr:`session`, a
    :class:`~repro.sim.backends.bitpack.BoundProgram` over the feature
    rails (positive, then negative) and the verdict rails — so
    :meth:`classify` costs one packed kernel run per word.
    """

    def __init__(self, spec: ModelSpec) -> None:
        self.spec = spec
        library = resolve_library(spec.library)
        if spec.attribution:
            mapped = build_mapped_dual_rail(spec.config, library, vdd=spec.vdd)
            self.datapath = mapped.datapath
            self.circuit = mapped.circuit
        else:
            self.datapath = DualRailDatapath(spec.config)
            self.circuit = self.datapath.circuit
        if spec.program is not None:
            expected = netlist_fingerprint(self.circuit.netlist)
            if spec.program.netlist_hash != expected:
                raise ValueError(
                    "spec.program was compiled from a different netlist "
                    f"(program netlist hash {spec.program.netlist_hash[:12]}…, "
                    f"spec builds {expected[:12]}…)"
                )
            self._engine = BitpackBackend(program=spec.program)
        else:
            self._engine = get_backend(
                BitpackBackend.name,
                self.circuit.netlist,
                library,
                vdd=spec.vdd,
                cache=spec.program_cache,
            )
        # Every non-feature input rail is a constant: the exclude
        # configuration never changes between requests.
        num_features = spec.config.num_features
        reference = self.datapath.operand_assignments(
            np.zeros(num_features, dtype=np.int8), spec.exclude
        )
        by_name = {sig.name: sig for sig in self.circuit.inputs}
        features = [by_name.pop(feature_input_name(m)) for m in range(num_features)]
        self._constants = {}
        for sig in by_name.values():
            bit = int(reference[sig.name])
            self._constants[sig.pos] = bit
            self._constants[sig.neg] = 1 - bit
        self._feature_rails = [sig.pos for sig in features] + [sig.neg for sig in features]
        self._verdict_signal = verdict_signal(self.circuit)
        self.session = BoundProgram(
            self._engine.program,
            self._constants,
            self._feature_rails,
            self._verdict_signal.rails,
        )
        self._spacer = spacer_assignments(self.circuit)
        self._output_rails = self.circuit.all_output_rails()
        self._throughput_gauge = _metrics.default_registry().gauge(
            "backend_samples_per_sec",
            "Most recent micro-batch throughput of the serving backend.",
        )

    def classify(self, features: np.ndarray) -> BatchReply:
        """Classify one micro-batch; request order is preserved.

        Functional mode is one :meth:`BoundProgram.run_arrays` call;
        attribution mode runs the timed engine instead, which additionally
        yields each request's simulated spacer→valid hardware latency and
        switching energy.
        """
        start = time.perf_counter()
        features = np.asarray(features)
        if features.ndim != 2 or features.shape[1] != self.spec.config.num_features:
            raise ValueError(
                f"expected a (batch, {self.spec.config.num_features}) feature "
                f"matrix, got shape {features.shape}"
            )
        bits = feature_bits(features)
        rails = np.concatenate((bits, 1 - bits), axis=1)
        with _trace.span("worker.classify", lanes=int(bits.shape[0])):
            latency_ps = energy_fj = None
            if self.spec.attribution:
                planes = dict(self._constants)
                planes.update(zip(self._feature_rails, rails.T))
                timed = self._engine.run_timed(planes, self._spacer)
                verdicts = decode_verdict_planes(timed, self._verdict_signal)
                latency = timed.max_arrival(self._output_rails, "valid")
                latency_ps = [float(t) for t in latency]
                energy_fj = [float(e) for e in timed.energy_per_sample_fj]
            else:
                verdicts = decode_verdict_rows(
                    self.session.run_arrays(rails), self._verdict_signal
                )
            reply = BatchReply(
                verdicts=verdicts,
                decisions=[DualRailDatapath.decision_from_verdict(v) for v in verdicts],
                latency_ps=latency_ps,
                energy_fj=energy_fj,
            )
        elapsed = time.perf_counter() - start
        if elapsed > 0:
            self._throughput_gauge.set(
                reply.samples / elapsed, backend=BitpackBackend.name
            )
        return reply


class InProcessClassifier:
    """The gateway's default execution shape: one worker, this process.

    ``classify`` is plain synchronous code, and the gateway calls it on the
    event loop.  A word is Python plus small-array NumPy that holds the
    interpreter lock throughout, so a thread would overlap nothing and only
    add two handoffs; requests that arrive meanwhile queue, and leave
    together in the next word.
    """

    def __init__(self, spec: ModelSpec) -> None:
        self.worker = InferenceWorker(spec)

    def classify(self, features: np.ndarray) -> BatchReply:
        """Classify a micro-batch on the caller's thread."""
        return self.worker.classify(features)

    def close(self) -> None:
        """Nothing to release for the in-process shape."""


#: Per-process worker slot of :class:`ProcessPoolClassifier` (set by the
#: pool initializer, used by the pure-function task entry point).
_PROCESS_WORKER: Optional[InferenceWorker] = None


def _init_process_worker(spec: ModelSpec) -> None:
    """Pool initializer: compile the model once in this worker process."""
    global _PROCESS_WORKER
    _PROCESS_WORKER = InferenceWorker(spec)


def _classify_in_process(features: np.ndarray) -> BatchReply:
    """Pool task entry point: classify against the process-local worker."""
    assert _PROCESS_WORKER is not None, "pool initializer did not run"
    return _PROCESS_WORKER.classify(features)


@dataclass
class ProcessPoolClassifier:
    """Micro-batch execution over a pool of compile-once worker processes.

    Each pool process compiles the model exactly once (in the pool
    initializer); afterwards only ``(batch, num_features)`` matrices and
    :class:`BatchReply` lists cross the process boundary.  The gateway
    dispatches at most ``workers`` micro-batches concurrently, so a full
    pool applies natural backpressure to the batching loop (which responds
    by collecting larger words).
    """

    spec: ModelSpec
    workers: int = 2
    _pool: Optional[ProcessPoolExecutor] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        """Start the pool; workers compile lazily on their first task.

        When the spec names a program cache (and carries no precompiled
        program yet), the pool compiles — or cache-loads — the program once
        *here*, in the parent, and ships the artifact to every worker via
        the spec: N workers, exactly one ``backend.compile``.
        """
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.spec.program is None and self.spec.program_cache is not None:
            self.spec = replace(self.spec, program=precompile_program(self.spec))
        self._pool = ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_init_process_worker,
            initargs=(self.spec,),
        )

    @property
    def pool(self) -> ProcessPoolExecutor:
        """The live executor (for the gateway's ``run_in_executor``)."""
        assert self._pool is not None
        return self._pool

    def classify(self, features: np.ndarray) -> BatchReply:
        """Classify a micro-batch in some pool process (blocking)."""
        return self.pool.submit(_classify_in_process, features).result()

    def close(self) -> None:
        """Shut the pool down, waiting for in-flight batches."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
