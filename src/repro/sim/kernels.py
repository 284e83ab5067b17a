"""Grouped-kernel execution engine of the bitpack backend.

Executing a :class:`~repro.sim.program.CompiledProgram` one cell at a time
costs a Python loop iteration, a list-comprehension gather, a function call
and a handful of small NumPy ops per cell.  For the bit-packed engine —
where a whole 10k-sample batch is ~160 ``uint64`` words per net — that
per-cell interpreter overhead dominates the actual bitwise work by an
order of magnitude.

This module removes the per-cell loop.  :func:`build_grouped_plan` buckets
a program's ops **per level and per dispatch tag** (the vocabulary of
:func:`~repro.sim.backends.base.classify_cell_type`) into contiguous
gather/scatter index arrays, so one vectorized call — e.g. a single
``&`` over the gathered input planes of every AND2 in the level —
evaluates the whole group at once.  Values live in one ``(num_nets,
words)`` matrix per bit-plane instead of a ``net → array`` dict; gathers
and scatters are NumPy fancy indexing on row indices.  Execution is a
small interpreter: one Python dispatch per *group* per level, with the
per-group evaluators below doing all the math.  The timed engine
(:mod:`repro.sim.backends.timed`) runs the same plan with its own rules.

The engine is **bit-identical** to the looped dense interpreter of
:class:`~repro.sim.backends.batch.BatchBackend` (and therefore to the event
simulator) for values *and* switching-activity counts — the differential
fuzzing suite (``tests/sim/test_differential_fuzz.py``) enforces this over
randomized netlists, batch shapes and X-laden stimulus.

Observability
-------------
Plan construction runs under a ``kernel.build`` span (levels, groups,
cells); each level's grouped execution runs under a ``kernel.level_group``
span.  The backend's own ``bitpack.pack`` / ``bitpack.levels`` /
``bitpack.activity`` spans wrap them.
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
        (``in_cols[p][g]`` = row of member *g*'s pin *p*): the low-arity
        evaluators gather one pin plane at a time, which beats a stacked
        3-D gather + reduce for the 2-input gates dominating real netlists.
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
# Bit-plane group evaluators.  Each takes the two ``(nets, words)`` plane
# matrices plus the group, gathers the member rows pin by pin
# (``group.in_cols``), and returns the output ``(cells, words)`` plane
# pair; semantics match repro.sim.backends.bitpack.  Gathering one
# pin column at a time keeps every temporary at ``(cells, words)`` and the
# op count at ``arity - 1`` per plane — measurably faster than a stacked
# 3-D gather + ``ufunc.reduce`` for the 2-input gates real netlists are
# mostly made of.
# ---------------------------------------------------------------------------

_PlanePairFn = Callable[[np.ndarray, np.ndarray, OpGroup], Tuple[np.ndarray, np.ndarray]]


def _chain(op, matrix: np.ndarray, cols: Tuple[np.ndarray, ...]) -> np.ndarray:
    """Fold *op* over the gathered pin columns (one ``(cells, words)`` temp)."""
    if len(cols) == 1:
        return matrix[cols[0]]
    acc = op(matrix[cols[0]], matrix[cols[1]])
    for col in cols[2:]:
        op(acc, matrix[col], out=acc)
    return acc


def _p_and(ones, zeros, group):
    """Grouped bit-plane AND: ones = AND of ones, zeros = OR of zeros."""
    cols = group.in_cols
    return _chain(np.bitwise_and, ones, cols), _chain(np.bitwise_or, zeros, cols)


def _p_or(ones, zeros, group):
    """Grouped bit-plane OR: ones = OR of ones, zeros = AND of zeros."""
    cols = group.in_cols
    return _chain(np.bitwise_or, ones, cols), _chain(np.bitwise_and, zeros, cols)


def _p_c(ones, zeros, group):
    """Grouped bit-plane C-element: all-1 → 1, all-0 → 0, else X."""
    cols = group.in_cols
    return _chain(np.bitwise_and, ones, cols), _chain(np.bitwise_and, zeros, cols)


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


def _p_maj3(ones, zeros, group):
    """Grouped bit-plane 3-input majority (controlling 2-of-3)."""
    c0, c1, c2 = group.in_cols
    o0, o1, o2 = ones[c0], ones[c1], ones[c2]
    z0, z1, z2 = zeros[c0], zeros[c1], zeros[c2]
    return (o0 & o1) | (o0 & o2) | (o1 & o2), (z0 & z1) | (z0 & z2) | (z1 & z2)


def _p_complex_stacked(pin_groups: Tuple[int, ...], inner_and: bool,
                       inverting: bool):
    """Stacked-gather AOI/OAI/AO/OA evaluator (``fn(O, Z)`` over 3-D stacks).

    Complex gates are rare enough that the generic stacked form is kept.
    """

    def fn(ones: np.ndarray, zeros: np.ndarray):
        """Inner op per pin group, outer op across groups, optional plane swap."""
        term_ones: List[np.ndarray] = []
        term_zeros: List[np.ndarray] = []
        lo = 0
        for width in pin_groups:
            seg_o = ones[:, lo: lo + width]
            seg_z = zeros[:, lo: lo + width]
            if width == 1:
                to, tz = seg_o[:, 0], seg_z[:, 0]
            elif inner_and:
                to = np.bitwise_and.reduce(seg_o, axis=1)
                tz = np.bitwise_or.reduce(seg_z, axis=1)
            else:
                to = np.bitwise_or.reduce(seg_o, axis=1)
                tz = np.bitwise_and.reduce(seg_z, axis=1)
            term_ones.append(to)
            term_zeros.append(tz)
            lo += width
        if inner_and:
            out_o = np.bitwise_or.reduce(np.stack(term_ones, axis=1), axis=1)
            out_z = np.bitwise_and.reduce(np.stack(term_zeros, axis=1), axis=1)
        else:
            out_o = np.bitwise_and.reduce(np.stack(term_ones, axis=1), axis=1)
            out_z = np.bitwise_or.reduce(np.stack(term_zeros, axis=1), axis=1)
        return (out_z, out_o) if inverting else (out_o, out_z)

    return fn


def _group_fn(group: OpGroup) -> _PlanePairFn:
    """The plane-pair evaluator of *group* (inputs gathered in pin order)."""
    tag = group.tag
    if tag == "inv":
        return lambda ones, zeros, g: (zeros[g.in_cols[0]], ones[g.in_cols[0]])
    if tag == "buf":
        return lambda ones, zeros, g: (ones[g.in_cols[0]], zeros[g.in_cols[0]])
    if tag == "and":
        return _p_and
    if tag == "nand":
        return lambda ones, zeros, g: _p_and(ones, zeros, g)[::-1]
    if tag == "or":
        return _p_or
    if tag == "nor":
        return lambda ones, zeros, g: _p_or(ones, zeros, g)[::-1]
    if tag == "xor":
        return _p_xor
    if tag == "xnor":
        return lambda ones, zeros, g: _p_xor(ones, zeros, g)[::-1]
    if tag == "maj3":
        return _p_maj3
    if tag == "c":
        return _p_c
    inner_and, inverting = COMPLEX_GATE_SHAPES[tag]
    stacked = _p_complex_stacked(group.pin_groups, inner_and, inverting)
    return lambda ones, zeros, g: stacked(ones[g.in_idx], zeros[g.in_idx])


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
    """The grouped plan of one program with its per-group evaluators bound.

    Construction runs under a ``kernel.build`` span: plan bucketing plus
    evaluator binding.  :meth:`execute` then runs the level sweeps in place
    over the caller's bit-plane matrices.
    """

    def __init__(self, program) -> None:
        with _trace.span("kernel.build") as span:
            self.plan = plan = build_grouped_plan(program)
            self._fns = tuple(
                tuple(_group_fn(group) for group in level) for level in plan.levels
            )
            span.add(
                levels=len(plan.levels),
                groups=plan.num_groups,
                cells=plan.num_cells,
            )

    def execute(self, ones: np.ndarray, zeros: np.ndarray) -> None:
        """Run the level sweeps in place over the ``(nets, words)`` planes.

        Rows of nets without drivers are left untouched (X by
        initialization), mirroring the looped interpreter.
        """
        for level_index, level in enumerate(self.plan.levels):
            with _trace.span(
                "kernel.level_group", level=level_index, groups=len(level),
                cells=sum(group.cells for group in level),
            ):
                for group, fn in zip(level, self._fns[level_index]):
                    out_o, out_z = fn(ones, zeros, group)
                    ones[group.out_idx] = out_o
                    zeros[group.out_idx] = out_z


#: ``id(program) -> (weakref, FusedKernel)``, shared across backend
#: instances executing the same CompiledProgram object (e.g. serving
#: sessions).
_PROGRAM_MEMO: Dict[int, Tuple[weakref.ref, FusedKernel]] = {}


def fused_kernel(program) -> FusedKernel:
    """The grouped kernel of *program*, built on first request.

    Kernels are memoized per program instance (identity-keyed, weakly
    held), so every backend or session built on one cached program shares
    one plan.
    """
    key = id(program)
    entry = _PROGRAM_MEMO.get(key)
    if entry is not None and entry[0]() is program:
        return entry[1]
    kernel = FusedKernel(program)
    ref = weakref.ref(program, lambda _r, _k=key: _PROGRAM_MEMO.pop(_k, None))
    _PROGRAM_MEMO[key] = (ref, kernel)
    return kernel
