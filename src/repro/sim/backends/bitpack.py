"""Bit-packed 64-lane simulation backend.

:class:`BitpackBackend` is the third functional backend and the fastest: it
packs the *sample axis* into ``uint64`` bit-planes — 64 samples per machine
word — so that evaluating a gate over the whole batch costs a handful of
bitwise word operations instead of one byte-per-sample NumPy pass (the
``"batch"`` backend) or one full event-driven settle per sample (the
``"event"`` backend).  This is the same trick production logic simulators
use for functional regression runs.  On top of the packing, a whole level
is evaluated in a few table steps over one stacked plane matrix — the
AND/OR family of :mod:`repro.sim.kernels`, one gather, reduce and scatter
per step — so there is no per-cell Python loop either.

Value encoding
--------------
Every net carries **two** bit-planes, mirroring the dual-rail encoding the
paper's circuits themselves use:

``ones``
    bit *k* set ⇔ sample *k* settled to logic 1;
``zeros``
    bit *k* set ⇔ sample *k* settled to logic 0.

A sample with neither bit set is unknown (``X``); both bits set never
occurs (the kernel preserves this invariant).  The payoff is that the
three-valued controlling-value semantics of :mod:`repro.circuits.gates`
become closed-form word ops — for AND, ``ones = AND`` of the ones-planes
(all inputs known-1) and ``zeros = OR`` of the zeros-planes (any input
known-0); OR is the exact dual; an inverter merely *swaps* the planes.
So every unate cell's output plane is one AND or OR over plane rows, which
is what lets the kernel run a level as an AND-reduce and an OR-reduce.
Settled values therefore match the event and batch backends gate for gate
(the equivalence tests assert this).

Ragged tails
------------
Sample counts not divisible by 64 leave unused lanes in the final word.
Those tail lanes simply carry no plane bits — i.e. they are ``X`` — so they
can never contribute to decoded values or to activity popcounts; no masking
is needed anywhere past the pack stage.

Switching activity
------------------
As in the batch backend, passing the spacer input word as ``baseline``
counts one spacer→valid→spacer handshake as two committed transitions per
cell whose valid-phase value differs from its (known) rest value.  Here the
count is one stacked popcount: against a rest value of 0 the toggling
samples are exactly the ``ones`` plane, against 1 exactly the ``zeros``
plane — unknown lanes (including the masked tail) are excluded by
construction.  Energy estimates are therefore bit-identical to the batch
backend's.

Sequential cells follow the batch backend's contract: C-elements evaluate
with their final input values (exact for monotonically-settling dual-rail
netlists), and clocked netlists (``DFF``) are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.circuits.gates import LogicValue
from repro.circuits.library import CellLibrary
from repro.circuits.netlist import Netlist
from repro.obs import trace as _trace

from ..kernels import (
    FusedKernel,
    PlanePairMatrixView,
    baseline_memo_key,
    bulk_stimulus_matrix,
    fused_kernel,
    grouped_bitpack_activity,
)
from ..program import CompiledProgram, compile_program
from .base import BackendError, BatchResult, register_backend
from .batch import X, boxed_batch_result, stacked_batch_inputs

#: Samples per packed word (the lane width of the engine).
WORD_BITS = 64

#: A net's packed value: ``(ones, zeros)`` bit-plane word arrays.
PlanePair = Tuple[np.ndarray, np.ndarray]


def words_for(samples: int) -> int:
    """Number of ``uint64`` words needed to hold *samples* one-bit lanes."""
    return (samples + WORD_BITS - 1) // WORD_BITS


def unpack_bits(words: np.ndarray, samples: int) -> np.ndarray:
    """The first *samples* lanes of LSB-first packed *words* as a 0/1 array.

    The inverse of the pack stage's ``np.packbits(..., bitorder="little")``.
    """
    return np.unpackbits(words.view(np.uint8), bitorder="little")[:samples]


class _LazyPlaneView(Mapping):
    """Read-only ``net → uint8 sample plane`` view over a packed result.

    Unpacking every net eagerly would cost the same memory traffic the
    packing saved, so planes are decoded (and cached) only on access — the
    verdict decoders touch three rails of a thousand-net design.
    """

    def __init__(self, result: "PackedBatchResult") -> None:
        self._result = result

    def __getitem__(self, net: str) -> np.ndarray:
        """The unpacked ``uint8`` plane of *net* (``2`` encodes X)."""
        return self._result.plane(net)

    def __iter__(self) -> Iterator[str]:
        """Iterate over the packed net names."""
        return iter(self._result.packed)

    def __len__(self) -> int:
        """Number of packed nets."""
        return len(self._result.packed)


@dataclass
class PackedBatchResult:
    """Raw bit-plane result of a :meth:`BitpackBackend.run_arrays` call.

    ``packed[net]`` is the ``(ones, zeros)`` pair of ``uint64`` word arrays;
    :attr:`values` presents the same data through the lazily-unpacked
    ``uint8`` plane interface of
    :class:`~repro.sim.backends.batch.ArrayBatchResult` (``2`` encodes X),
    so every consumer of the batch backend's array results — the verdict
    decoders in :mod:`repro.analysis.measure`, the equivalence tests —
    works on either without change.  ``packed`` is a
    :class:`~repro.sim.kernels.PlanePairMatrixView` (row views into the two
    plane matrices) rather than a dict — same mapping interface, no per-net
    copies.
    """

    samples: int
    packed: Mapping[str, PlanePair]
    activity_by_cell: Dict[str, int] = field(default_factory=dict)
    activity_by_cell_type: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        """Set up the per-net unpack cache."""
        self._planes: Dict[str, np.ndarray] = {}

    def plane(self, net: str) -> np.ndarray:
        """Unpack (and cache) the ``uint8`` sample plane of *net* (X = ``2``)."""
        cached = self._planes.get(net)
        if cached is not None:
            return cached
        ones, zeros = self.packed[net]
        one_bits = unpack_bits(ones, self.samples)
        zero_bits = unpack_bits(zeros, self.samples)
        plane = np.where(one_bits == 1, np.uint8(1),
                         np.where(zero_bits == 1, np.uint8(0), X)).astype(np.uint8)
        self._planes[net] = plane
        return plane

    @property
    def values(self) -> Mapping:
        """Lazy ``net → uint8 plane`` mapping (decoded on access)."""
        return _LazyPlaneView(self)

    def value_of(self, net: str, sample: int) -> LogicValue:
        """Decode one net value back into the scalar LogicValue domain."""
        # Index through the byte view, not word-level shifts: the pack stage
        # defines lane order via packbits(bitorder="little") on bytes, so
        # this decode is correct regardless of host word endianness.
        byte, bit = divmod(sample, 8)
        ones, zeros = self.packed[net]
        if (int(ones.view(np.uint8)[byte]) >> bit) & 1:
            return 1
        if (int(zeros.view(np.uint8)[byte]) >> bit) & 1:
            return 0
        return None

    def sample_values(self, sample: int, nets: Sequence[str]) -> Dict[str, LogicValue]:
        """Scalar values of *nets* for one sample."""
        return {net: self.value_of(net, sample) for net in nets}


class BitpackBackend:
    """Bit-packed 64-lane levelized functional backend (``name="bitpack"``).

    Parameters
    ----------
    netlist:
        Combinational (levelizable) netlist; may contain C-elements but not
        flip-flops.
    library:
        Accepted for interface parity with the other backends; the engine
        is purely functional.
    vdd:
        Recorded for reporting; does not change functional results.
    program:
        Alternative construction from a precompiled
        :class:`~repro.sim.program.CompiledProgram`.

    The grouped kernel is fetched (and built, the first time a program is
    run) on first use, not here; :meth:`run_timed` runs the same plan.
    Each :meth:`run_arrays` call packs the stimulus into the kernel's
    stacked matrix — X fill for undriven rows, the all-ones row set, the
    scratch rows left for the kernel to write — and reads the results back
    through its ``ones``/``zeros`` plane views.
    """

    name = "bitpack"

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
        #: The program's grouped kernel, fetched on first use.
        self._kernel: Optional[FusedKernel] = None
        #: Single-slot (key, settled planes) memo of the activity baseline.
        self._rest_memo = None

    def run_arrays(
        self,
        inputs: Mapping[str, Union[int, np.ndarray, Sequence[int]]],
        baseline: Optional[Mapping[str, int]] = None,
        transitions_per_toggle: int = 2,
    ) -> PackedBatchResult:
        """Push a batch through the netlist; the workhorse entry point.

        Parameters
        ----------
        inputs:
            Primary-input net → per-sample value array (or a scalar,
            broadcast over the batch).  Unassigned primary inputs evaluate
            as X, exactly like an undriven input in the event simulator.
        baseline:
            Optional rest-state assignment.  When given, it is evaluated
            once and every cell whose batch value differs from its (known)
            baseline value contributes ``transitions_per_toggle``
            transitions per differing sample (2 models one
            spacer→valid→spacer handshake).
        """
        if self._kernel is None:
            self._kernel = fused_kernel(self.program)
        plan = self._kernel.plan
        ones, zeros, samples = self._planes(inputs)
        activity_by_cell: Dict[str, int] = {}
        activity_by_type: Dict[str, int] = {}
        if baseline is not None:
            with _trace.span("bitpack.activity"):
                rest_ones, rest_zeros = self._rest_planes(baseline)
                activity_by_cell, activity_by_type = grouped_bitpack_activity(
                    plan, ones, zeros, rest_ones, rest_zeros,
                    transitions_per_toggle,
                )
        return PackedBatchResult(
            samples=samples,
            packed=PlanePairMatrixView(ones, zeros, plan.net_index),
            activity_by_cell=activity_by_cell,
            activity_by_cell_type=activity_by_type,
        )

    def _planes(
        self,
        inputs: Mapping[str, Union[int, np.ndarray, Sequence[int]]],
    ) -> Tuple[np.ndarray, np.ndarray, int]:
        """Pack the stimulus into the plane matrices and run the level sweeps."""
        kernel = self._kernel
        plan = kernel.plan
        with _trace.span("bitpack.pack") as pack_span:
            # Normalize straight into a word-aligned stacked matrix (padding
            # lanes stay zero), so the whole stimulus packs in one
            # np.packbits call: rows are (words * 8)-byte lanes, viewable as
            # uint64 words.
            rows, stacked, samples = bulk_stimulus_matrix(
                inputs, plan.net_index, lane_align=WORD_BITS
            )
            pack_span.add(samples=samples)
            words = words_for(samples)
            # All-zero rows encode X, covering unassigned primary inputs
            # and undriven nets (the batch engine's X plane).  The level
            # sweeps overwrite every driven row, so only undriven
            # rows not in the stimulus actually need the zero fill.
            matrix = kernel.new_matrix(words)
            ones, zeros = kernel.planes(matrix)
            idle = np.setdiff1d(plan.nonoutput_rows, rows)
            ones[idle] = 0
            zeros[idle] = 0
            # All-lanes-valid mask, built word-wise (equivalent to packing
            # an all-ones plane, without materializing it).
            valid_mask = np.full(words, ~np.uint64(0), dtype=np.uint64)
            tail = samples % WORD_BITS
            if tail:
                valid_mask[-1] = np.uint64((1 << tail) - 1)
            if len(rows):
                packed = np.packbits(stacked, axis=1, bitorder="little").view(
                    np.uint64
                )
                ones[rows] = packed
                zeros[rows] = packed ^ valid_mask
            for net, constant in self._constants:
                row = plan.net_index[net]
                if constant:
                    ones[row] = valid_mask
                    zeros[row] = 0
                else:
                    ones[row] = 0
                    zeros[row] = valid_mask
        with _trace.span("bitpack.levels", cells=len(self.program.ops)):
            kernel.execute(matrix)
        return ones, zeros, samples

    def _rest_planes(
        self, baseline: Mapping[str, Union[int, np.ndarray, Sequence[int]]],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The settled rest-state plane matrices for *baseline*, memoized.

        Activity accounting needs the baseline evaluated on every call, but
        callers overwhelmingly pass the same scalar spacer word each time —
        a single-slot memo keyed on the mapping's contents
        (:func:`~repro.sim.kernels.baseline_memo_key`) skips the repeated
        level sweep.  Array-valued baselines bypass the memo.
        """
        key = baseline_memo_key(baseline)
        if key is not None and self._rest_memo is not None:
            cached_key, cached_planes = self._rest_memo
            if cached_key == key:
                return cached_planes
        rest_ones, rest_zeros, _ = self._planes(baseline)
        if key is not None:
            self._rest_memo = (key, (rest_ones, rest_zeros))
        return rest_ones, rest_zeros

    # -------------------------------------------------------------- timing
    def run_timed(
        self,
        inputs: Mapping[str, Union[int, np.ndarray, Sequence[int]]],
        spacer: Mapping[str, int],
        delay_variation: Optional[Dict[str, float]] = None,
    ):
        """Per-sample arrival times and energy — the masked-lane timed variant.

        Arrival times are per-sample ``float64`` quantities, so unlike
        values they cannot be packed 64-to-a-word; the timed engine runs
        the grouped plan over dense ``(nets, samples)`` matrices shared with
        :meth:`~repro.sim.backends.batch.BatchBackend.run_timed`.  The
        dense sweep is sized to exactly ``samples`` lanes, which is what
        masks the ragged tail: lanes past the stream length simply do not
        exist in the timing arrays, so they can never leak into latency
        percentiles or energy sums the way unmasked packed tail lanes
        could.  Results are bit-identical to the batch backend's for every
        sample count, 64-aligned or not (the equivalence tests pin 1, 63,
        64, 65 and 100).

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


register_backend("bitpack", BitpackBackend)


def _net_rows(index: Mapping[str, int], nets: Sequence[str], role: str) -> np.ndarray:
    """The plane-matrix rows of *nets*; :class:`KeyError` names an unknown one."""
    for net in nets:
        if net not in index:
            raise KeyError(f"{role} net {net!r} does not exist in the program")
    return np.array([index[net] for net in nets], dtype=np.intp)


class BoundProgram:
    """A compiled program with its constant inputs bound, run word by word.

    A serving workload evaluates one design thousands of times a second with
    only a few input nets changing per call (the feature rails), while
    hundreds of configuration nets (the clause exclude rails) carry the same
    value every time.  Construction resolves the rows of the constant, input
    and output nets once and keeps a one-word template of the kernel's
    stacked matrix, pre-filled with the program's TIE rows, the *constants*
    and the all-ones row, X elsewhere.  :meth:`run_arrays` then copies that
    template, packs the inputs with one ``np.packbits``, runs the kernel's
    AND/OR reduce steps and gathers the output planes in one call: no
    name-keyed dict, no stimulus normalization and no activity accounting
    per call.

    Constant rows fill all 64 lanes of a word.  That is exact: every kernel
    step is lane-wise, and only the first ``lanes`` columns are read.

    Parameters
    ----------
    program:
        The :class:`~repro.sim.program.CompiledProgram` to execute.
    constants:
        ``net → 0/1`` applied on every call.
    inputs:
        The nets :meth:`run_arrays` takes values for, in column order.  They
        may not overlap *constants*: an overlap almost always means the
        caller bound the wrong set, so it raises instead of picking a winner.
    outputs:
        The nets :meth:`run_arrays` returns, in row order.
    """

    def __init__(
        self,
        program: CompiledProgram,
        constants: Mapping[str, int],
        inputs: Sequence[str],
        outputs: Sequence[str],
    ) -> None:
        for net, value in constants.items():
            if int(value) not in (0, 1):
                raise BackendError(f"constant net {net!r} must be Boolean, got {value!r}")
        overlap = sorted(set(inputs) & set(constants))
        if overlap:
            raise BackendError(
                f"input nets overlap bound constants (e.g. {overlap[:3]})"
            )
        #: The compile artifact this instance executes.
        self.program = program
        self._kernel = kernel = fused_kernel(program)
        index = kernel.plan.net_index
        nets = kernel.plan.num_nets
        fixed = dict(constants)
        fixed.update(program.constants)  # TIE cells win, as in BitpackBackend
        const_rows = _net_rows(index, list(fixed), "constant")
        self._input_rows = _net_rows(index, inputs, "input")
        self._input_zero_rows = self._input_rows + nets
        output_rows = _net_rows(index, outputs, "output")
        #: The ones rows of the outputs, then their zeros rows: one gather.
        self._output_planes = np.concatenate((output_rows, output_rows + nets))
        high = np.array([int(value) == 1 for value in fixed.values()], dtype=bool)
        self._template = template = kernel.new_matrix(1)
        template[: 2 * nets] = 0
        template[const_rows[high]] = ~np.uint64(0)
        template[const_rows[~high] + nets] = ~np.uint64(0)

    def run_arrays(self, values: np.ndarray) -> np.ndarray:
        """Evaluate one batch; returns the output rows.

        *values* is a ``(lanes, len(inputs))`` ``uint8`` 0/1 matrix (it is
        not checked).  Returns ``(len(outputs), lanes)`` ``uint8`` value
        rows, 2 encoding X.
        """
        lanes = values.shape[0]
        words = words_for(lanes)
        matrix = np.repeat(self._template, words, axis=1)
        bits = np.zeros((values.shape[1], words * WORD_BITS), dtype=np.uint8)
        bits[:, :lanes] = values.T
        packed = np.packbits(bits, axis=1, bitorder="little").view(np.uint64)
        # Lanes past *lanes* read as 0 here; they are never read back.
        matrix[self._input_rows] = packed
        matrix[self._input_zero_rows] = ~packed
        self._kernel.execute(matrix)
        planes = matrix[self._output_planes].view(np.uint8)
        unpacked = np.unpackbits(planes, axis=1, bitorder="little")[:, :lanes]
        one_bits, zero_bits = np.split(unpacked, 2)
        return np.where(one_bits == 1, np.uint8(1),
                        np.where(zero_bits == 1, np.uint8(0), X))
