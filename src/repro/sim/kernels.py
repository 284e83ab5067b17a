"""Grouped-kernel execution engine of the bitpack backend.

Executing a :class:`~repro.sim.program.CompiledProgram` one cell at a time
costs a Python loop iteration, a gather, a function call and a handful of
small NumPy ops per cell.  For the bit-packed engine — where a whole
10k-sample batch is ~160 ``uint64`` words per net, and a served word is
one — that per-call overhead dominates the actual bitwise work.

This module removes it in two layers.  :func:`build_grouped_plan` buckets a
program's ops **per level and per dispatch tag** (the vocabulary of
:func:`~repro.sim.backends.base.classify_cell_type`) into contiguous
gather/scatter index arrays, memoized per program by
:func:`grouped_plan`; the timed engine (:mod:`repro.sim.backends.timed`)
runs that plan with its own per-shape arrival rules.
:class:`FusedKernel` then compiles the plan into the
**AND/OR family**: in the two-plane encoding (a ``ones`` and a ``zeros``
bit-plane per net) every output plane of a unate cell is a plain AND or OR
of input-plane rows, and an inversion, of an input or of the output, is
only a choice of row (the and-inverter-graph view of logic).

Values live in one stacked ``(rows, words)`` matrix: rows ``[0, nets)``
are the ``ones`` planes, ``[nets, 2·nets)`` the ``zeros`` planes, then an
all-ones row, an all-zeros row, and two scratch rows per inner term of a
complex gate or MAJ3.  Each level runs as table steps, one gather, one
reduce and one scatter each:

* an ``A`` (AND-reduce) step and a ``B`` (OR-reduce) step over the output
  planes of the level's cells.  AND, NAND, OR, NOR, C-elements, BUF and INV
  are one entry per output plane (AND: ``ones ← A(ones)``, ``zeros ←
  B(zeros)``; NAND reads the same rows into the swapped planes; a
  C-element is ``A`` on both planes);
* in levels holding AO/OA/AOI/OAI or MAJ3 cells, a first ``A``/``B`` pair
  writes their inner terms to scratch rows, which the outer entries then
  reduce.

Entries shorter than their step pad with the reduce identity (the all-ones
row for ``A``, the all-zeros row for ``B``).  Only XOR/XNOR, the
non-unate cells, keep a per-group evaluator.  A step's index array is laid
out ``(arity, entries)``, so its gather is ``(arity, entries, words)`` and
the reduce runs over whole contiguous ``(entries, words)`` slabs: one form
serves a one-word served request and a 10,000-lane batch alike.

The engine is **bit-identical** to the looped dense interpreter of
:class:`~repro.sim.backends.batch.BatchBackend` (and therefore to the event
simulator) for values *and* switching-activity counts — the differential
fuzzing suite (``tests/sim/test_differential_fuzz.py``) enforces this over
randomized netlists, batch shapes and X-laden stimulus.

Observability
-------------
Kernel construction (the table build, plus the plan bucketing when the
program's memoized plan is not built yet) runs under one ``kernel.build``
span (levels, groups, cells, steps).
:meth:`FusedKernel.execute` opens no span of its own, so a traced call records the same spans however
deep the program: the bitpack backend wraps it in ``bitpack.levels``
(beside ``bitpack.pack`` and ``bitpack.activity``), and the serving worker
wraps each word in ``worker.classify``.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from repro.circuits.gates import COMPLEX_GATE_SHAPES
from repro.obs import trace as _trace

from .backends.base import BackendError, classify_cell_type


# ---------------------------------------------------------------------------
# Grouped plan: per-level, per-tag gather/scatter index arrays.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OpGroup:
    """One fused dispatch unit: every same-shaped cell of one level.

    Attributes
    ----------
    tag:
        Dispatch tag from :func:`~repro.sim.backends.base.classify_cell_type`
        (``"and"``, ``"inv"``, ``"c"``, ``"aoi"``, ...).
    pin_groups:
        Per-digit pin grouping for the complex-gate tags, ``None`` otherwise.
    in_idx:
        ``(cells, arity)`` net-row indices of every member's inputs in pin
        order — the gather array.
    in_cols:
        The same indices as per-pin contiguous ``(cells,)`` columns
        (``in_cols[p][g]`` = row of member *g*'s pin *p*), for the per-pin
        rules of the timed engine and the XOR evaluator.
    out_idx:
        ``(cells,)`` net-row indices of the members' outputs — the scatter
        array.
    """

    tag: str
    pin_groups: Optional[Tuple[int, ...]]
    in_idx: np.ndarray
    in_cols: Tuple[np.ndarray, ...]
    out_idx: np.ndarray

    @property
    def cells(self) -> int:
        """Number of cells fused into this group."""
        return int(self.out_idx.shape[0])


@dataclass(frozen=True)
class GroupedPlan:
    """A compiled program re-bucketed for grouped gather/scatter execution.

    Derived deterministically from the program alone: level structure is
    reconstructed from the op list's data dependencies, so cached programs
    need no netlist.
    """

    #: ``net name -> value-matrix row`` (netlist insertion order).
    net_index: Dict[str, int]
    #: Number of rows in the value matrices (= number of nets).
    num_nets: int
    #: Per-level tuples of :class:`OpGroup`, dependency order.
    levels: Tuple[Tuple[OpGroup, ...], ...]
    #: Output row of every op, aligned with :attr:`cell_names`.
    out_idx: np.ndarray
    #: Rows no op drives (primary inputs + undriven nets).  Execution
    #: overwrites every driven row, so only these need rest-state (X)
    #: initialization — the pack stage skips zero-filling the rest.
    nonoutput_rows: np.ndarray
    #: Cell instance names in program op order (for activity dicts).
    cell_names: Tuple[str, ...]
    #: Distinct cell types, first-encounter order (activity aggregation).
    type_names: Tuple[str, ...]
    #: Per-op index into :attr:`type_names` (for one-bincount aggregation).
    type_codes: np.ndarray

    @property
    def num_groups(self) -> int:
        """Total number of fused dispatch units across all levels."""
        return sum(len(level) for level in self.levels)

    @property
    def num_cells(self) -> int:
        """Total number of ops covered by the plan."""
        return int(self.out_idx.shape[0])


def build_grouped_plan(program) -> GroupedPlan:
    """Bucket *program*'s ops into per-level, per-tag gather/scatter groups.

    Levels are reconstructed from data dependencies (an op's level is one
    past its deepest producer), which reproduces the compile-time
    levelization for any valid program; within a level, ops are grouped by
    ``(dispatch tag, pin grouping, arity)`` in first-encounter order, so
    the plan is deterministic for a given program.
    """
    net_index = {net: i for i, net in enumerate(program.net_names)}
    producer_level: Dict[str, int] = {}
    # level -> {(tag, pin_groups, arity): ([in rows], [out rows])}
    buckets: List[Dict[tuple, Tuple[List[List[int]], List[int]]]] = []
    out_rows: List[int] = []
    names: List[str] = []
    types: List[str] = []
    for op in program.ops:
        level = 0
        for net in op.in_nets:
            depth = producer_level.get(net)
            if depth is not None and depth + 1 > level:
                level = depth + 1
        producer_level[op.out_net] = level
        kind = classify_cell_type(op.cell_type)
        if kind is None:  # compile_program validated this; guard anyway
            raise BackendError(
                f"the grouped kernel cannot vectorize cell type {op.cell_type!r}"
            )
        tag, pin_groups = kind
        while len(buckets) <= level:
            buckets.append({})
        key = (tag, pin_groups, len(op.in_nets))
        bucket = buckets[level].get(key)
        if bucket is None:
            bucket = buckets[level][key] = ([], [])
        bucket[0].append([net_index[net] for net in op.in_nets])
        bucket[1].append(net_index[op.out_net])
        out_rows.append(net_index[op.out_net])
        names.append(op.cell_name)
        types.append(op.cell_type)
    def make_group(key, in_rows, out_rows_g):
        """Materialize one bucket's gather/scatter index arrays."""
        in_idx = np.asarray(in_rows, dtype=np.intp).reshape(len(in_rows), -1)
        return OpGroup(
            tag=key[0],
            pin_groups=key[1],
            in_idx=in_idx,
            in_cols=tuple(
                np.ascontiguousarray(in_idx[:, p])
                for p in range(in_idx.shape[1])
            ),
            out_idx=np.asarray(out_rows_g, dtype=np.intp),
        )

    levels = tuple(
        tuple(
            make_group(key, in_rows, out_rows_g)
            for key, (in_rows, out_rows_g) in level.items()
        )
        for level in buckets
    )
    out_idx = np.asarray(out_rows, dtype=np.intp)
    type_index: Dict[str, int] = {}
    type_codes = np.empty(len(types), dtype=np.intp)
    for i, cell_type in enumerate(types):
        code = type_index.get(cell_type)
        if code is None:
            code = type_index[cell_type] = len(type_index)
        type_codes[i] = code
    return GroupedPlan(
        net_index=net_index,
        num_nets=len(net_index),
        levels=levels,
        out_idx=out_idx,
        nonoutput_rows=np.setdiff1d(
            np.arange(len(net_index), dtype=np.intp), out_idx
        ),
        cell_names=tuple(names),
        type_names=tuple(type_index),
        type_codes=type_codes,
    )


# ---------------------------------------------------------------------------
# The AND/OR family: every unate cell plane as reduce-table entries.
# ---------------------------------------------------------------------------

#: Reduce kinds of a table step: ``A`` ANDs its gathered rows, ``B`` ORs them.
_A, _B = 0, 1
_REDUCE = (np.bitwise_and.reduce, np.bitwise_or.reduce)

#: ``tag -> ((kind, source plane) of the ones row, (kind, source plane) of
#: the zeros row)`` for the shapes that are one entry per output plane, with
#: plane 0 the inputs' ``ones`` rows and 1 their ``zeros`` rows.  An
#: inversion, of an input or of the output, is only a choice of plane.
_FAMILY = {
    "and": ((_A, 0), (_B, 1)),
    "nand": ((_B, 1), (_A, 0)),
    "or": ((_B, 0), (_A, 1)),
    "nor": ((_A, 1), (_B, 0)),
    "c": ((_A, 0), (_A, 1)),
    "buf": ((_A, 0), (_A, 1)),
    "inv": ((_A, 1), (_A, 0)),
}

#: MAJ3 as AO222 over its pin pairs (AB, AC, BC).  Majority is self-dual,
#: so the AO form's zeros plane, an AND of pair ORs, is the majority of the
#: zeros bits too: the same Boolean function of every plane bit.
_MAJ3_AS_AO222 = ([0, 1, 0, 2, 1, 2], (2, 2, 2))

#: One table step: ``(reduce, (arity, entries) source rows, (entries,) rows)``.
_Step = Tuple[Callable, np.ndarray, np.ndarray]


def _p_xor(ones, zeros, group):
    """Grouped bit-plane XOR: known only where every input is known."""
    cols = group.in_cols
    # Known lanes: every input has one of its planes set.
    known = ones[cols[0]] | zeros[cols[0]]
    acc = ones[cols[0]].copy()
    for col in cols[1:]:
        known &= ones[col] | zeros[col]
        acc ^= ones[col]
    acc &= known
    return acc, known ^ acc


def _bind_level(level: Tuple[OpGroup, ...], nets: int,
                scratch: int) -> Tuple[Tuple[_Step, ...], Tuple[OpGroup, ...], int]:
    """The reduce steps and XOR groups of one level, and the next free row.

    Each group contributes blocks of entries, ``(source rows, destination
    rows)``, to up to four steps: an ``A`` and a ``B`` step for the inner
    terms of complex gates and MAJ3 (written to scratch rows from *scratch*
    on), then an ``A`` and a ``B`` step for the output planes.  Each step's
    index arrays are preallocated and filled by slices, padding short
    entries with the reduce identity (the all-ones row for ``A``, the
    all-zeros row for ``B``), so the build costs a few NumPy calls per
    group, not per cell.
    """
    # Steps: inner A, inner B, outer A, outer B (step index = 2·phase + kind).
    blocks: Tuple[list, ...] = ([], [], [], [])
    xors: List[OpGroup] = []
    for group in level:
        tag = group.tag
        if tag in ("xor", "xnor"):
            xors.append(group)
            continue
        pins, pin_groups = group.in_idx.T, group.pin_groups
        if tag == "maj3":
            (order, pin_groups), tag = _MAJ3_AS_AO222, "ao"
            pins = pins[order]
        # planes[0] holds the members' ones rows per pin, planes[1] their
        # zeros rows; dests likewise for the outputs.
        planes = (pins, pins + nets)
        dests = (group.out_idx, group.out_idx + nets)
        cells = pins.shape[1]
        family = _FAMILY.get(tag)
        if family is not None:
            (kind_o, plane_o), (kind_z, plane_z) = family
            blocks[2 + kind_o].append((planes[plane_o], dests[0]))
            blocks[2 + kind_z].append((planes[plane_z], dests[1]))
            continue
        inner_and, inverting = COMPLEX_GATE_SHAPES[tag]
        kind_o, kind_z = (_A, _B) if inner_and else (_B, _A)
        # terms[0] holds each term's ones rows, terms[1] its zeros rows.
        terms = np.empty((2, len(pin_groups), cells), dtype=np.intp)
        lo = 0
        for t, width in enumerate(pin_groups):
            if width == 1:  # a one-pin group reads the pin's rows directly
                terms[0, t], terms[1, t] = planes[0][lo], planes[1][lo]
            else:
                terms[:, t] = np.arange(scratch, scratch + 2 * cells).reshape(2, cells)
                scratch += 2 * cells
                blocks[kind_o].append((planes[0][lo: lo + width], terms[0, t]))
                blocks[kind_z].append((planes[1][lo: lo + width], terms[1, t]))
            lo += width
        # The outer op is the inner op's dual; inverting shapes swap planes.
        if inverting:
            dests = dests[::-1]
        blocks[2 + kind_z].append((terms[0], dests[0]))
        blocks[2 + kind_o].append((terms[1], dests[1]))
    pad = (2 * nets, 2 * nets + 1)
    steps: List[_Step] = []
    for step, entries in enumerate(blocks):
        if not entries:
            continue
        kind = step & 1
        arity = max([rows.shape[0] for rows, _ in entries])
        out = np.concatenate([dest for _, dest in entries])
        idx = np.empty((arity, out.shape[0]), dtype=np.intp)
        lo = 0
        for rows, dest in entries:
            hi = lo + dest.shape[0]
            idx[: rows.shape[0], lo:hi] = rows
            if rows.shape[0] < arity:
                idx[rows.shape[0]:, lo:hi] = pad[kind]
            lo = hi
        steps.append((_REDUCE[kind], idx, out))
    return tuple(steps), tuple(xors), scratch


# ---------------------------------------------------------------------------
# Value-matrix views: net-keyed read access over the row-indexed matrices.
# ---------------------------------------------------------------------------


class PlanePairMatrixView(Mapping):
    """Read-only ``net → (ones, zeros) row views`` over the bit-plane matrices."""

    __slots__ = ("_ones", "_zeros", "_index")

    def __init__(self, ones: np.ndarray, zeros: np.ndarray,
                 index: Dict[str, int]) -> None:
        self._ones = ones
        self._zeros = zeros
        self._index = index

    def __getitem__(self, net: str) -> Tuple[np.ndarray, np.ndarray]:
        """The packed ``(ones, zeros)`` word rows of *net* (matrix views)."""
        row = self._index[net]
        return self._ones[row], self._zeros[row]

    def __iter__(self) -> Iterator[str]:
        """Iterate net names in netlist insertion order."""
        return iter(self._index)

    def __len__(self) -> int:
        """Number of nets."""
        return len(self._index)


# ---------------------------------------------------------------------------
# Bulk stimulus normalization: one stacked matrix instead of per-net planes.
# ---------------------------------------------------------------------------


def bulk_stimulus_matrix(
    inputs: Mapping, net_index: Dict[str, int], lane_align: int,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Normalize a stimulus mapping into one stacked ``uint8`` matrix.

    The grouped engine's replacement for the per-net
    ``normalize_input_planes`` loop: batch-size inference, scalar
    broadcast, the unknown-net and Boolean checks, and the fill all happen
    against a single ``(stimulus nets, width)`` matrix, so the pack stage
    downstream is one vectorized call instead of thousands of small-array
    ops.  The column width is the batch size rounded up to a multiple of
    *lane_align* (the word lane count; padding columns stay zero).  Returns
    ``(row indices into the net-order matrices, stacked matrix, samples)``.

    Error semantics match ``normalize_input_planes`` exactly:
    :class:`~repro.sim.backends.base.BackendError` for inconsistent batch
    sizes or non-Boolean values, :class:`KeyError` for unknown nets.
    """
    samples: Optional[int] = None
    for value in inputs.values():
        if isinstance(value, np.ndarray):
            if value.ndim == 0:
                continue
            n = value.shape[0]
        elif np.ndim(value) > 0:
            n = int(np.shape(value)[0])
        else:
            continue
        if samples is not None and samples != n:
            raise BackendError(
                f"inconsistent batch sizes in input arrays ({samples} vs {n})"
            )
        samples = n
    if samples is None:
        samples = 1
    width = ((samples + lane_align - 1) // lane_align) * lane_align
    # Every row's [0:samples] span is written below; only the alignment
    # tail needs explicit zeroing (tail lanes must pack to clear bits).
    stacked = np.empty((len(inputs), width), dtype=np.uint8)
    if width > samples:
        stacked[:, samples:] = 0
    row_list: List[int] = []
    for j, (net, value) in enumerate(inputs.items()):
        row = net_index.get(net)
        if row is None:
            raise KeyError(f"unknown net {net!r}")
        row_list.append(row)
        if isinstance(value, np.ndarray) and value.ndim == 1:
            stacked[j, :samples] = value
        else:
            plane = np.asarray(value, dtype=np.uint8)
            stacked[j, :samples] = int(plane) if plane.ndim == 0 else plane
    rows = np.array(row_list, dtype=np.intp)
    if stacked.max(initial=0) > 1:
        # Slow path only to name the offender in the error message.
        for j, net in enumerate(inputs):
            if stacked[j].max(initial=0) > 1:
                raise BackendError(
                    f"input plane for {net!r} contains non-Boolean values"
                )
    return rows, stacked, samples


def baseline_memo_key(baseline: Mapping) -> Optional[Tuple]:
    """A hashable identity for an all-scalar baseline mapping, else ``None``.

    Activity accounting re-evaluates the rest state on every call, yet in
    practice the baseline is the same spacer word call after call (the
    serving worker, the analysis sweeps and the benchmarks all hold one
    rest mapping per design).  The bitpack backend uses this key for a
    single-slot memo of the settled rest planes; array-valued baselines
    return ``None`` and are simply re-evaluated.
    """
    entries = []
    for net, value in baseline.items():
        if isinstance(value, (bool, int, np.integer)):
            entries.append((net, int(value)))
            continue
        if np.ndim(value) != 0:
            return None
        try:
            entries.append((net, int(value)))
        except (TypeError, ValueError):
            return None
    return tuple(sorted(entries))


# ---------------------------------------------------------------------------
# Grouped switching-activity accounting.
# ---------------------------------------------------------------------------

if hasattr(np, "bitwise_count"):  # NumPy >= 2.0

    def _popcount_rows(words: np.ndarray) -> np.ndarray:
        """Per-row set-bit totals of a ``(cells, words)`` uint64 matrix."""
        return np.bitwise_count(words).sum(axis=1)

else:  # pragma: no cover - exercised only on NumPy 1.x

    def _popcount_rows(words: np.ndarray) -> np.ndarray:
        """Per-row set-bit totals of a ``(cells, words)`` matrix (1.x fallback)."""
        if words.shape[0] == 0:
            return np.zeros(0, dtype=np.int64)
        as_bytes = np.ascontiguousarray(words).view(np.uint8)
        return np.unpackbits(as_bytes.reshape(words.shape[0], -1), axis=1).sum(
            axis=1, dtype=np.int64
        )


def grouped_bitpack_activity(
    plan: GroupedPlan,
    ones: np.ndarray,
    zeros: np.ndarray,
    rest_ones: np.ndarray,
    rest_zeros: np.ndarray,
    transitions_per_toggle: int = 2,
) -> Tuple[Dict[str, int], Dict[str, int]]:
    """Grouped popcount transition accounting: the activity dict pair.

    Against a known rest value of 1 the toggling lanes are exactly the
    ``zeros`` plane, against 0 exactly the ``ones`` plane; one stacked
    popcount covers every cell.  Unknown lanes (masked ragged tails
    included) carry no plane bits, so they drop out by construction —
    exactly the looped per-cell accounting.
    """
    out = plan.out_idx
    rest_one = (rest_ones[out, 0] & np.uint64(1)).astype(bool)
    rest_zero = (rest_zeros[out, 0] & np.uint64(1)).astype(bool)
    # Gather each output row exactly once, split by rest polarity (cells
    # with an unknown rest value are never gathered and stay at zero).
    toggles = np.zeros(out.shape[0], dtype=np.int64)
    at_one = np.nonzero(rest_one)[0]
    at_zero = np.nonzero(rest_zero & ~rest_one)[0]
    toggles[at_one] = _popcount_rows(zeros[out[at_one]])
    toggles[at_zero] = _popcount_rows(ones[out[at_zero]])
    return activity_dicts(plan, toggles, transitions_per_toggle)


def activity_dicts(
    plan: GroupedPlan, toggles: np.ndarray, transitions_per_toggle: int,
) -> Tuple[Dict[str, int], Dict[str, int]]:
    """The activity dict pair of per-op toggle counts (program op order).

    Only cells that toggled get entries (matching the looped accounting);
    the per-type aggregation is one bincount over precomputed type codes.
    """
    nz = np.nonzero(toggles)[0]
    scaled = toggles[nz] * transitions_per_toggle
    names = plan.cell_names
    by_cell = {names[i]: t for i, t in zip(nz.tolist(), scaled.tolist())}
    totals = np.bincount(
        plan.type_codes[nz], weights=scaled, minlength=len(plan.type_names)
    )
    by_type = {
        plan.type_names[t]: int(totals[t]) for t in np.nonzero(totals)[0]
    }
    return by_cell, by_type


# ---------------------------------------------------------------------------
# The executable kernel object the backend holds.
# ---------------------------------------------------------------------------


class FusedKernel:
    """The grouped plan of one program bound to AND/OR reduce tables.

    The kernel runs over one stacked ``(rows, words)`` matrix: rows
    ``[0, nets)`` are the ``ones`` planes and ``[nets, 2·nets)`` the
    ``zeros`` planes, row :attr:`one_row` is all-ones and :attr:`zero_row`
    all-zeros (the padding rows of the ``A`` and ``B`` steps), and the rest
    are scratch rows for the inner terms of complex gates and MAJ3.
    Construction runs under a ``kernel.build`` span: the table build, plus
    the plan bucketing when the program's plan (:func:`grouped_plan`) is
    not built yet.  :meth:`execute` then runs the level sweeps in place.
    """

    def __init__(self, program) -> None:
        with _trace.span("kernel.build") as span:
            self.plan = plan = grouped_plan(program)
            nets = plan.num_nets
            #: The all-ones (``A`` padding) and all-zeros (``B``) rows.
            self.one_row, self.zero_row = 2 * nets, 2 * nets + 1
            scratch = 2 * nets + 2
            levels = []
            for level in plan.levels:
                steps, xors, scratch = _bind_level(level, nets, scratch)
                levels.append((steps, xors))
            self._levels = tuple(levels)
            #: Rows of the stacked matrix :meth:`execute` runs over.
            self.num_rows = scratch
            span.add(
                levels=len(plan.levels),
                groups=plan.num_groups,
                cells=plan.num_cells,
                steps=sum(len(steps) for steps, _ in levels),
            )

    def new_matrix(self, words: int) -> np.ndarray:
        """An uninitialized stacked matrix with its two constant rows set."""
        matrix = np.empty((self.num_rows, words), dtype=np.uint64)
        matrix[self.one_row] = ~np.uint64(0)
        matrix[self.zero_row] = 0
        return matrix

    def planes(self, matrix: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The ``(ones, zeros)`` ``(nets, words)`` plane views of *matrix*."""
        nets = self.plan.num_nets
        return matrix[:nets], matrix[nets: 2 * nets]

    def execute(self, matrix: np.ndarray) -> None:
        """Run the level sweeps in place over the stacked *matrix*.

        Each level is its reduce steps, one gather, reduce and scatter each,
        then its XOR/XNOR groups through the plane views.  Rows of nets
        without drivers are left untouched (X by initialization), mirroring
        the looped interpreter; scratch rows are written before they are read.
        """
        ones, zeros = self.planes(matrix)
        for steps, xors in self._levels:
            for reduce, idx, out in steps:
                matrix[out] = reduce(matrix.take(idx, axis=0), axis=0)
            for group in xors:
                out_o, out_z = _p_xor(ones, zeros, group)
                if group.tag == "xnor":
                    out_o, out_z = out_z, out_o
                ones[group.out_idx] = out_o
                zeros[group.out_idx] = out_z


#: ``id(program) -> (weakref, value)`` memos, shared across backend
#: instances executing the same CompiledProgram object (e.g. serving
#: sessions): the grouped plan, and the kernel bound to it.
_PLAN_MEMO: Dict[int, Tuple[weakref.ref, GroupedPlan]] = {}
_KERNEL_MEMO: Dict[int, Tuple[weakref.ref, FusedKernel]] = {}


def _memoized(memo: Dict, program, build: Callable):
    """``build(program)``, memoized in *memo* per program instance.

    Entries are identity-keyed and weakly held: one drops when its program
    is collected.
    """
    key = id(program)
    entry = memo.get(key)
    if entry is not None and entry[0]() is program:
        return entry[1]
    value = build(program)
    ref = weakref.ref(program, lambda _r, _k=key: memo.pop(_k, None))
    memo[key] = (ref, value)
    return value


def grouped_plan(program) -> GroupedPlan:
    """The grouped plan of *program*, built on first request.

    The timed engine executes the plan directly and :class:`FusedKernel`
    binds its reduce tables to the same object, so a program run by both
    engines is bucketed once, and only a functional run builds tables.
    """
    return _memoized(_PLAN_MEMO, program, build_grouped_plan)


def fused_kernel(program) -> FusedKernel:
    """The grouped kernel of *program*, built on first request.

    Kernels are memoized per program instance like their plans, so every
    backend or session built on one cached program shares one kernel.
    """
    return _memoized(_KERNEL_MEMO, program, FusedKernel)
