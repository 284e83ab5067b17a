"""Levelized vectorized simulation backend.

:class:`BatchBackend` trades the event simulator's timing fidelity for
throughput: the netlist is topologically levelized **once** (see
:mod:`repro.circuits.levelize`), each cell is compiled to a vectorized
three-valued NumPy operation, and an entire batch of input vectors is pushed
through every cell exactly once.  Evaluating *B* samples therefore costs one
NumPy op sequence over ``(B,)`` arrays instead of ``B`` full event-driven
settles — two to three orders of magnitude faster in practice.

The interpreter is deliberately simple — one Python loop iteration per
cell, one ``uint8`` plane per net — because it is the *reference* the fast
engine (:class:`~repro.sim.backends.bitpack.BitpackBackend`) is
differentially tested against, value for value and transition for
transition.

Value encoding
--------------
Nets are ``uint8`` arrays over the batch with ``0``, ``1`` and ``2`` (the
``X``/unknown sentinel).  Every gate uses the same controlling-value
three-valued semantics as :mod:`repro.circuits.gates`, so the settled values
match the event backend **gate for gate** (the equivalence tests assert
this).

Sequential cells
----------------
C-elements are evaluated with their *final* input values: all-1 → 1,
all-0 → 0, otherwise ``X`` (the state a from-scratch event settle would also
hold).  This is exact for monotonically-settling netlists — which dual-rail
circuits are by construction (paper Requirement 2) — and for the input-latch
idiom where both C inputs share one rail.  Clocked flip-flops have no
single-pass functional meaning, so netlists containing ``DFF`` cells are
rejected: use the event backend for the synchronous baseline.

Switching activity
------------------
For spacer-separated protocols each handshake cycle toggles a cell output
away from its rest value and back, i.e. **two** committed transitions per
cell whose valid-phase value differs from its spacer-phase value.  Passing
the spacer input word as ``baseline`` makes :meth:`BatchBackend.run_arrays`
count exactly that, giving the per-gate activity that energy estimation
needs without simulating the return-to-spacer phase.  (Glitches, which the
event simulator does capture, are not modelled — dual-rail switching is
glitch-free by monotonicity.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.circuits.gates import LogicValue
from repro.circuits.library import CellLibrary
from repro.circuits.netlist import Netlist
from repro.obs import trace as _trace

from ..program import CompiledProgram, compile_program
from .base import (
    BackendError,
    BatchResult,
    classify_cell_type,
    make_cell_type_compiler,
    register_backend,
)

#: Batch-plane encoding of the unknown (``X``) logic value.
X = np.uint8(2)
_ZERO = np.uint8(0)
_ONE = np.uint8(1)
#: Three-valued NOT as a lookup table over {0, 1, X}.
_NOT_LUT = np.array([1, 0, 2], dtype=np.uint8)

_ArrayFn = Callable[[List[np.ndarray]], np.ndarray]


def _and_arrays(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Vectorized three-valued AND: 0 dominates, all-1 gives 1, else X."""
    any0 = arrays[0] == 0
    all1 = arrays[0] == 1
    for a in arrays[1:]:
        any0 = any0 | (a == 0)
        all1 = all1 & (a == 1)
    return np.where(any0, _ZERO, np.where(all1, _ONE, X)).astype(np.uint8)


def _or_arrays(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Vectorized three-valued OR: 1 dominates, all-0 gives 0, else X."""
    any1 = arrays[0] == 1
    all0 = arrays[0] == 0
    for a in arrays[1:]:
        any1 = any1 | (a == 1)
        all0 = all0 & (a == 0)
    return np.where(any1, _ONE, np.where(all0, _ZERO, X)).astype(np.uint8)


def _xor_arrays(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Vectorized three-valued XOR: any X poisons the result."""
    unknown = arrays[0] == X
    acc = arrays[0].copy()
    for a in arrays[1:]:
        unknown = unknown | (a == X)
        acc = acc ^ a
    return np.where(unknown, X, acc & 1).astype(np.uint8)


def _maj3_arrays(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Vectorized three-valued 3-input majority (controlling 2-of-3)."""
    ones = (arrays[0] == 1).astype(np.uint8)
    zeros = (arrays[0] == 0).astype(np.uint8)
    for a in arrays[1:]:
        ones = ones + (a == 1)
        zeros = zeros + (a == 0)
    return np.where(ones >= 2, _ONE, np.where(zeros >= 2, _ZERO, X)).astype(np.uint8)


def _c_element_arrays(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """C-element with final input values: all-1 → 1, all-0 → 0, else X (hold)."""
    all1 = arrays[0] == 1
    all0 = arrays[0] == 0
    for a in arrays[1:]:
        all1 = all1 & (a == 1)
        all0 = all0 & (a == 0)
    return np.where(all1, _ONE, np.where(all0, _ZERO, X)).astype(np.uint8)


#: Dispatch over the uint8-array primitives (shared shape with the timed
#: engine — see :func:`make_cell_type_compiler`).
_compile_shape = make_cell_type_compiler(
    and_fn=_and_arrays,
    or_fn=_or_arrays,
    xor_fn=_xor_arrays,
    maj3_fn=_maj3_arrays,
    c_fn=_c_element_arrays,
    invert=lambda array: _NOT_LUT[array],
)


def normalize_input_planes(
    netlist: Union[Netlist, CompiledProgram],
    inputs: Mapping[str, Union[int, np.ndarray, Sequence[int]]],
) -> Tuple[Dict[str, np.ndarray], int]:
    """Normalize a stimulus mapping into ``uint8`` planes, inferring batch size.

    The batch reference's stimulus front end: scalars broadcast over the
    batch, array lengths must agree, values must be Boolean, and every net must
    exist in *netlist* — either a real :class:`~repro.circuits.netlist.Netlist`
    or a :class:`~repro.sim.program.CompiledProgram` net table (anything
    whose ``.nets`` supports membership).  Returns ``(planes, samples)``.
    """
    samples: Optional[int] = None
    for value in inputs.values():
        if np.ndim(value) > 0:
            n = int(np.shape(value)[0])
            if samples is not None and samples != n:
                raise BackendError(
                    f"inconsistent batch sizes in input arrays ({samples} vs {n})"
                )
            samples = n
    if samples is None:
        samples = 1
    planes: Dict[str, np.ndarray] = {}
    for net, value in inputs.items():
        if net not in netlist.nets:
            raise KeyError(f"unknown net {net!r}")
        plane = np.asarray(value, dtype=np.uint8)
        if plane.ndim == 0:
            plane = np.full(samples, int(plane), dtype=np.uint8)
        if np.any(plane > 1):
            raise BackendError(f"input plane for {net!r} contains non-Boolean values")
        planes[net] = plane
    return planes, samples


def stacked_batch_inputs(
    batch: Sequence[Mapping[str, int]],
) -> Dict[str, np.ndarray]:
    """Stack per-sample assignment mappings into per-net input arrays.

    The :meth:`SimulationBackend.run_batch` front end shared by the
    vectorized backends; raises :class:`BackendError` when the batch is
    ragged (a net assigned in some samples but not all).
    """
    nets = sorted({net for assignments in batch for net in assignments})
    inputs = {
        net: np.array([int(assignments[net]) for assignments in batch], dtype=np.uint8)
        for net in nets
        if all(net in assignments for assignments in batch)
    }
    missing = [net for net in nets if net not in inputs]
    if missing:
        raise BackendError(
            f"ragged batch: nets {missing[:4]} are not assigned in every sample"
        )
    return inputs


def boxed_batch_result(result, netlist: Union[Netlist, CompiledProgram]) -> BatchResult:
    """Box a vectorized array result into the protocol-level :class:`BatchResult`.

    *result* is duck-typed over the plane-result interface the vectorized
    backends share (``samples``, ``values`` and the activity dicts) —
    :class:`ArrayBatchResult` or the bitpack backend's
    ``PackedBatchResult``; *netlist* is a
    :class:`~repro.circuits.netlist.Netlist` or a compiled program's net
    table (``.nets`` + ``.primary_outputs``).  Decoding goes through whole
    ``uint8`` planes (one vectorized unpack per net for packed results),
    never per-sample scalar extraction.
    """
    planes = result.values
    net_values = {}
    for net in netlist.nets:
        net_values[net] = [None if v == 2 else v for v in planes[net].tolist()]
    outputs = [
        {net: net_values[net][k] for net in netlist.primary_outputs}
        for k in range(result.samples)
    ]
    return BatchResult(
        samples=result.samples,
        outputs=outputs,
        activity_by_cell=result.activity_by_cell,
        activity_by_cell_type=result.activity_by_cell_type,
        net_values=net_values,
    )


@dataclass
class ArrayBatchResult:
    """Raw array-plane result of a :meth:`BatchBackend.run_arrays` call.

    ``values[net]`` is the ``(samples,)`` ``uint8`` plane of every net
    (``2`` encodes X).  This is the zero-copy interface the experiment
    harnesses decode verdicts from; :class:`~repro.sim.backends.base.BatchResult`
    is the boxed per-sample view used for protocol-level interop.
    """

    samples: int
    values: Mapping[str, np.ndarray]
    activity_by_cell: Dict[str, int] = field(default_factory=dict)
    activity_by_cell_type: Dict[str, int] = field(default_factory=dict)

    def value_of(self, net: str, sample: int) -> LogicValue:
        """Decode one net value back into the scalar LogicValue domain."""
        v = int(self.values[net][sample])
        return None if v == int(X) else v

    def sample_values(self, sample: int, nets: Sequence[str]) -> Dict[str, LogicValue]:
        """Scalar values of *nets* for one sample."""
        return {net: self.value_of(net, sample) for net in nets}


class BatchBackend:
    """Vectorized levelized functional backend (``name="batch"``).

    Parameters
    ----------
    netlist:
        Combinational (levelizable) netlist; may contain C-elements but not
        flip-flops.
    library:
        Accepted for interface parity with the event backend; the batch
        engine is purely functional, so only :class:`~repro.circuits.library.VoltageModel.is_functional`
        gating by callers applies.
    vdd:
        Recorded for reporting; does not change functional results.
    program:
        Alternative construction from a precompiled
        :class:`~repro.sim.program.CompiledProgram`.
    """

    name = "batch"

    def __init__(
        self,
        netlist: Optional[Netlist] = None,
        library: Optional[CellLibrary] = None,
        vdd: Optional[float] = None,
        program: Optional[CompiledProgram] = None,
    ) -> None:
        if netlist is None and program is None:
            raise BackendError(
                f"{self.name} backend needs a netlist= or a precompiled program="
            )
        if program is None:
            program = compile_program(netlist, library, vdd=vdd)
        self.netlist = netlist
        self.library = library
        self.vdd = vdd if vdd is not None else program.vdd
        #: The backend-neutral compile artifact this instance executes.
        self.program = program
        self._constants = list(program.constants)
        self._ops = []
        for op in program.ops:
            kind = classify_cell_type(op.cell_type)
            if kind is None:  # compile_program validated this; guard anyway
                raise BackendError(f"batch backend cannot vectorize cell type {op.cell_type!r}")
            self._ops.append((op, _compile_shape(*kind)))

    # ------------------------------------------------------------ planes
    def _input_planes(
        self,
        inputs: Mapping[str, Union[int, np.ndarray, Sequence[int]]],
    ) -> Tuple[Dict[str, np.ndarray], int]:
        """Normalize the stimulus into uint8 planes and infer the batch size."""
        return normalize_input_planes(self.program, inputs)

    def run_arrays(
        self,
        inputs: Mapping[str, Union[int, np.ndarray, Sequence[int]]],
        baseline: Optional[Mapping[str, int]] = None,
        transitions_per_toggle: int = 2,
    ) -> ArrayBatchResult:
        """Push a batch through the netlist; the workhorse entry point.

        Parameters
        ----------
        inputs:
            Primary-input net → per-sample value array (or a scalar,
            broadcast over the batch).  Unassigned primary inputs evaluate
            as X, exactly like an undriven input in the event simulator.
        baseline:
            Optional rest-state assignment.  When given, it is evaluated
            once and every cell whose batch value differs from its baseline
            value contributes ``transitions_per_toggle`` transitions per
            differing sample (2 models one spacer→valid→spacer handshake).
        """
        with _trace.span("batch.pack") as pack_span:
            planes, samples = self._input_planes(inputs)
            pack_span.add(samples=samples)
            x_plane = np.full(samples, X, dtype=np.uint8)
            values: Dict[str, np.ndarray] = {}
            for name in self.program.primary_inputs:
                values[name] = planes.pop(name, x_plane)
            # Stimulus may also force internal nets that are actually inputs
            # of sub-blocks under test; remaining planes are applied verbatim.
            values.update(planes)
            for net, constant in self._constants:
                values[net] = np.full(samples, constant, dtype=np.uint8)
        with _trace.span("batch.levels", cells=len(self._ops)):
            for op, fn in self._ops:
                arrays = [values.get(net, x_plane) for net in op.in_nets]
                values[op.out_net] = fn(arrays)
            for net in self.program.nets:
                if net not in values:
                    values[net] = x_plane

        activity_by_cell: Dict[str, int] = {}
        activity_by_type: Dict[str, int] = {}
        if baseline is not None:
            with _trace.span("batch.activity"):
                rest = self.run_arrays(baseline, baseline=None)
                for op, _fn in self._ops:
                    plane = values[op.out_net]
                    rest_value = rest.values[op.out_net][0]
                    toggles = int(np.count_nonzero(
                        (plane != rest_value) & (plane != X) & (rest_value != X)
                    ))
                    if toggles:
                        transitions = toggles * transitions_per_toggle
                        activity_by_cell[op.cell_name] = transitions
                        activity_by_type[op.cell_type] = (
                            activity_by_type.get(op.cell_type, 0) + transitions
                        )
        return ArrayBatchResult(
            samples=samples,
            values=values,
            activity_by_cell=activity_by_cell,
            activity_by_cell_type=activity_by_type,
        )

    # -------------------------------------------------------------- timing
    def run_timed(
        self,
        inputs: Mapping[str, Union[int, np.ndarray, Sequence[int]]],
        spacer: Mapping[str, int],
        delay_variation: Optional[Dict[str, float]] = None,
    ):
        """Per-sample arrival times and energy for a batch of handshake cycles.

        The vectorized data-dependent timing engine
        (:class:`~repro.sim.backends.timed.TimedProgram`): every cycle is a
        spacer→valid→spacer handshake starting from the *spacer* rest word,
        and the result carries per-sample per-net arrival times for both
        phases plus per-sample switching energy — equivalent to the
        event-driven environment on monotonic (dual-rail) netlists within
        float re-association accuracy (see :mod:`repro.sim.backends.timed`
        for the tolerance contract), on the program's grouped plan — the
        same engine as the bitpack backend's ``run_timed``.  Requires
        the backend to have been built with a characterised library; the
        bound engine is cached, so repeated calls only pay the sweeps.

        Returns a :class:`~repro.sim.backends.timed.TimedBatchResult`.
        """
        from .timed import backend_run_timed

        return backend_run_timed(self, inputs, spacer, delay_variation)

    # ----------------------------------------------------------- protocol
    def evaluate(self, assignments: Mapping[str, int]) -> Dict[str, LogicValue]:
        """Settled value of every net for one primary-input assignment."""
        result = self.run_arrays(assignments)
        return {net: result.value_of(net, 0) for net in self.program.nets}

    def run_batch(
        self,
        batch: Sequence[Mapping[str, int]],
        baseline: Optional[Mapping[str, int]] = None,
    ) -> BatchResult:
        """Protocol-compliant batched evaluation over per-sample mappings."""
        if not batch:
            return BatchResult(samples=0, outputs=[])
        result = self.run_arrays(stacked_batch_inputs(batch), baseline=baseline)
        return boxed_batch_result(result, self.program)


register_backend("batch", BatchBackend)
