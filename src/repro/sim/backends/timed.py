"""Vectorized data-dependent timing engine on the grouped plan.

The batch/bitpack backends answer *what* every net settles to, orders of
magnitude faster than the event simulator — but every timing number in the
paper's artefacts (Table I latency columns, the Figure-3 curve, the latency
distributions, the DSE latency/energy axes) is about *when*.  This module
closes that gap: it computes **per-sample arrival times** for every net of a
compiled program with NumPy array sweeps, so a 10k-operand latency/energy
measurement costs a handful of vectorized passes instead of 10k event-driven
handshake cycles.

Measurement model
-----------------
One dual-rail handshake cycle has two monotonic phases, each computed as one
sweep over the program's :class:`~repro.sim.kernels.GroupedPlan` — the
per-level, per-shape gather/scatter plan the bitpack kernel runs:

* **spacer→valid** — inputs leave the spacer word at ``t = 0``; every net
  that changes does so exactly once (paper Requirement 2: the mapped
  netlist is unate, so settling is monotonic and glitch-free);
* **valid→spacer** — inputs return to spacer at ``t = 0`` of the reset
  phase; again every toggled net resets exactly once.

Within a phase, a net's arrival is the time of that single committed
transition, and ``0.0`` for nets that do not change.  A cell's output
arrival is its **determining input's** arrival plus the cell's delay
(:func:`repro.sim.sta.cell_output_delay` — the same load/voltage model STA
and the event simulator use):

========================  ====================================================
final output value        determining input (early propagation)
========================  ====================================================
controlling (e.g. AND→0)  the **first** input to reach the controlling value
                          (``min`` over arrivals) — the mechanism the paper's
                          comparator exploits
non-controlling           the **last** input to reach its final value
                          (``max`` over arrivals) — the worst case
MAJ3 → v                  the **second** input to reach ``v``
C-element → v             the **last** input to reach ``v`` (C waits for all)
XOR → v                   the last transitioning input (settle time; exact
                          when at most one input toggles — always true in
                          unate-mapped dual-rail netlists, which carry no
                          XOR cells at all)
========================  ====================================================

These rules reproduce the event-driven scheduler's semantics for monotonic
netlists: the event simulator commits a cell's output one delay after the
input event that flipped its evaluation, and under single-transition
settling that input is precisely the determining input above.  Arrivals are
built from the same pairwise delay additions the event queue performs, but
the event simulator accumulates *absolute* timestamps and subtracts the
phase origin afterwards, so relative measurements differ by float
re-association noise (~1e-14 relative in practice; the equivalence tests
assert ``rtol=1e-9``, and exact equality on a single gate where both
origins are zero).

Values and arrivals live in row-per-net matrices: the rest word
``(nets, 1)``, the valid phase ``(nets, samples)`` and one ``(nets,
samples)`` arrival matrix per phase.  The rules are elementwise, so each
evaluates a whole plan group's gathered ``(cells, samples)`` pin columns
in one call.  The rest word is settled first.  The forward sweep then
settles the valid values and their arrivals; the backward sweep reads both
settled matrices and writes only arrivals.  A sweep reads whether an
output changes from its settled rows, so the rules compute no start
values.  The inner terms of complex gates (AOI/OAI/AO/OA) are not nets,
so they pass their arrival on unmasked: an inner term whose start and
final values agree can still glitch within the phase, and the event
simulator commits the gate's output from that glitch.  Samples are
independent, so running them in blocks of
:data:`_BLOCK` columns (which keeps temporaries cache-sized) is exact.

Energy
------
A cell whose valid-phase value differs from its spacer rest value toggles
twice per handshake (out and back).  Per-sample switching energy is
therefore ``2 × cell_energy(type, vdd)`` summed over the toggling cells of
that sample — exactly the activity the batch backend counts and
:class:`~repro.sim.power.PowerAccountant` prices, and (because dual-rail
settling is glitch-free) exactly the event simulator's committed transition
count as well.

Entry points
------------
Construct through the vectorized backends —
:meth:`~repro.sim.backends.batch.BatchBackend.run_timed` or
:meth:`~repro.sim.backends.bitpack.BitpackBackend.run_timed` — or directly
via :class:`TimedProgram` when reusing one compiled program across stimulus
sets.  Results come back as a :class:`TimedBatchResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.circuits.gates import LogicValue
from repro.obs import trace as _trace

from ..kernels import activity_dicts, bulk_stimulus_matrix, grouped_plan
from ..program import CompiledProgram
from .base import BackendError, make_cell_type_compiler
from .batch import (
    X,
    _NOT_LUT,
    _and_arrays,
    _c_element_arrays,
    _maj3_arrays,
    _or_arrays,
    _xor_arrays,
)

#: Sentinel for "cannot determine the output" in controlling-value minima;
#: always masked out before it can reach a result (the corresponding sample
#: has no output transition).
_NEVER = np.float64(np.inf)

#: Sample columns per sweep block.
_BLOCK = 1024

#: One pin's timed state in a sweep: ``(final values, arrival times)`` over
#: a group's gathered ``(cells, samples)`` columns — ``uint8`` values (2 =
#: X; the rest word's columns are ``(cells, 1)``) and ``float64`` arrivals,
#: ``0.0`` for net samples whose value does not change this phase.  NumPy
#: broadcasting keeps the math uniform.  A rule returns its arrival
#: unmasked; the sweep masks it with the output's settled rows.
TimedPlanes = Tuple[np.ndarray, np.ndarray]


def _changed(start: np.ndarray, final: np.ndarray) -> np.ndarray:
    """Samples whose value actually transitions this phase (both values known)."""
    return (start != final) & (start != X) & (final != X)


def _last_arrival(arrivals: Sequence[np.ndarray]) -> np.ndarray:
    """Latest input arrival — the non-controlling (worst-case) rule."""
    last = arrivals[0]
    for arr in arrivals[1:]:
        last = np.maximum(last, arr)
    return last


def _first_arrival_at(
    finals: Sequence[np.ndarray], arrivals: Sequence[np.ndarray], value: int
) -> np.ndarray:
    """Earliest arrival among inputs whose final value is *value*.

    The controlling-value early-propagation rule: inputs not settling to
    *value* can never determine a controlling output and are excluded
    (:data:`_NEVER`).
    """
    first = np.where(finals[0] == value, arrivals[0], _NEVER)
    for fin, arr in zip(finals[1:], arrivals[1:]):
        first = np.minimum(first, np.where(fin == value, arr, _NEVER))
    return first


def _second_arrival_at(
    finals: Sequence[np.ndarray], arrivals: Sequence[np.ndarray], values: np.ndarray
) -> np.ndarray:
    """Second-earliest arrival among three inputs settling to *values*.

    The MAJ3 rule: the output flips to ``v`` when the second input reaches
    ``v``.  Inputs not settling to ``v`` are excluded; inputs already at
    ``v`` at phase start carry arrival ``0.0`` and count immediately.
    """
    a, b, c = (
        np.where(fin == values, arr, _NEVER) for fin, arr in zip(finals, arrivals)
    )
    return np.minimum(
        np.minimum(np.maximum(a, b), np.maximum(a, c)), np.maximum(b, c)
    )


def _timed_and(planes: Sequence[TimedPlanes]) -> TimedPlanes:
    """Timed three-valued AND: a 0 propagates early, a 1 waits for all."""
    finals, arrivals = zip(*planes)
    final = _and_arrays(finals)
    return final, np.where(
        final == 0,
        _first_arrival_at(finals, arrivals, 0),
        _last_arrival(arrivals),
    )


def _timed_or(planes: Sequence[TimedPlanes]) -> TimedPlanes:
    """Timed three-valued OR: a 1 propagates early, a 0 waits for all."""
    finals, arrivals = zip(*planes)
    final = _or_arrays(finals)
    return final, np.where(
        final == 1,
        _first_arrival_at(finals, arrivals, 1),
        _last_arrival(arrivals),
    )


def _timed_xor(planes: Sequence[TimedPlanes]) -> TimedPlanes:
    """Timed three-valued XOR: settles with its last transitioning input.

    Exact whenever at most one input toggles per phase (XOR has no
    controlling value, so two staggered input toggles would glitch the
    output — impossible in unate-mapped dual-rail netlists, which contain
    no XOR cells; the rule is the settle time for any other caller).
    """
    finals, arrivals = zip(*planes)
    return _xor_arrays(finals), _last_arrival(arrivals)


def _timed_maj3(planes: Sequence[TimedPlanes]) -> TimedPlanes:
    """Timed 3-input majority: decided by the second input to agree."""
    finals, arrivals = zip(*planes)
    final = _maj3_arrays(finals)
    return final, _second_arrival_at(finals, arrivals, final)


def _timed_c(planes: Sequence[TimedPlanes]) -> TimedPlanes:
    """Timed C-element: switches only when the *last* input agrees."""
    finals, arrivals = zip(*planes)
    return _c_element_arrays(finals), _last_arrival(arrivals)


def _timed_not(plane: TimedPlanes) -> TimedPlanes:
    """Timed inversion: values complement, the arrival is untouched."""
    final, arrival = plane
    return _NOT_LUT[final], arrival


#: Dispatch over the timed (final, arrival) rules, bound per plan
#: group, so complex AOI/OAI/AO/OA gates compose group-wise with zero
#: per-group delay (one cell, one delay).
_compile_shape = make_cell_type_compiler(
    and_fn=_timed_and,
    or_fn=_timed_or,
    xor_fn=_timed_xor,
    maj3_fn=_timed_maj3,
    c_fn=_timed_c,
    invert=_timed_not,
)


class NetRows(Mapping):
    """Read-only ``net → (samples,) row`` view over a ``(nets, samples)`` matrix."""

    __slots__ = ("matrix", "index")

    def __init__(self, matrix: np.ndarray, index: Dict[str, int]) -> None:
        matrix.flags.writeable = False
        self.matrix = matrix
        self.index = index

    def __getitem__(self, net: str) -> np.ndarray:
        return self.matrix[self.index[net]]

    def __iter__(self) -> Iterator[str]:
        return iter(self.index)

    def __len__(self) -> int:
        return len(self.index)


@dataclass
class TimedBatchResult:
    """Per-sample timing, values and energy of a batch of handshake cycles.

    The per-net fields are read-only :class:`NetRows` views over the
    engine's matrices: every row is a full ``(samples,)`` array.

    Attributes
    ----------
    samples:
        Number of operands (handshake cycles) evaluated.
    values:
        Valid-phase settled value plane per net (``uint8``; 2 encodes X) —
        identical net-for-net to the batch backend's
        :class:`~repro.sim.backends.batch.ArrayBatchResult.values`.
    spacer_values:
        Spacer-phase settled value per net (scalar — the rest state is
        sample-independent).
    arrival_valid:
        Per-sample spacer→valid arrival time (ps) of every net; ``0.0``
        for samples where the net holds its spacer value.
    arrival_reset:
        Per-sample valid→spacer arrival time (ps), measured from the
        instant the inputs return to spacer.
    energy_per_sample_fj:
        Per-sample dynamic switching energy of one full handshake cycle
        (two transitions per toggling cell, priced at the engine's supply).
    activity_by_cell / activity_by_cell_type:
        Batch-total committed transition counts — bit-identical to the
        batch backend's spacer-baseline activity accounting.
    vdd:
        Supply voltage the delays and energies were computed at.
    """

    samples: int
    values: NetRows
    spacer_values: Dict[str, LogicValue]
    arrival_valid: NetRows
    arrival_reset: NetRows
    energy_per_sample_fj: np.ndarray
    activity_by_cell: Dict[str, int] = field(default_factory=dict)
    activity_by_cell_type: Dict[str, int] = field(default_factory=dict)
    vdd: float = 0.0

    def _phase(self, phase: str) -> NetRows:
        if phase == "valid":
            return self.arrival_valid
        if phase == "reset":
            return self.arrival_reset
        raise ValueError(f"unknown phase {phase!r}; expected 'valid' or 'reset'")

    def arrival_of(self, net: str, phase: str = "valid") -> np.ndarray:
        """Arrival row of *net*: a ``(samples,)`` array."""
        return self._phase(phase)[net]

    def max_arrival(self, nets: Sequence[str], phase: str = "valid") -> np.ndarray:
        """Per-sample latest arrival over *nets* — e.g. the output rails.

        With ``phase="valid"`` and the circuit's output rails this is the
        paper's per-operand spacer→valid latency ``t(S→V)``; with
        ``phase="reset"`` it is the output reset time ``t(V→S)``.
        """
        rows = self._phase(phase)
        picked = rows.matrix[[rows.index[net] for net in nets]]
        return picked.max(axis=0, initial=0.0)

    def settle_time(self, phase: str = "valid") -> np.ndarray:
        """Per-sample time of the last transition anywhere in the netlist.

        The valid-phase settle time is when the event-driven environment
        would apply the spacer (it settles fully before moving on); the
        reset-phase settle time is the paper's internal reset time that the
        grace period ``td`` must cover.
        """
        return self._phase(phase).matrix.max(axis=0, initial=0.0)

    @property
    def transitions(self) -> int:
        """Total committed transitions across the batch (both phases)."""
        return sum(self.activity_by_cell_type.values())


def backend_run_timed(
    backend,
    inputs: Mapping[str, Union[int, np.ndarray, Sequence[int]]],
    spacer: Mapping[str, int],
    delay_variation: Optional[Dict[str, float]] = None,
) -> "TimedBatchResult":
    """Shared ``run_timed`` implementation for the vectorized backends.

    Lazily builds (and caches on *backend*, keyed by the delay-variation
    assignment) one :class:`TimedProgram` over the backend's
    :class:`~repro.sim.program.CompiledProgram`, so both the batch and
    bitpack entry points share a single cache policy.
    """
    key = tuple(sorted((delay_variation or {}).items()))
    cache = getattr(backend, "_timed_programs", None)
    if cache is None:
        cache = backend._timed_programs = {}
    program = cache.get(key)
    if program is None:
        program = cache[key] = TimedProgram(backend.program, delay_variation)
    return program.run(inputs, spacer)


class TimedProgram:
    """A compiled program bound for vectorized per-sample timing evaluation.

    Binds once (the program's memoized grouped plan, shared with the bitpack kernel,
    plus one rule and one ``(cells, 1)`` delay column per group) and then
    runs any number of stimulus batches through :meth:`run`.

    Parameters
    ----------
    program:
        A characterised :class:`~repro.sim.program.CompiledProgram`: compiled
        with a library that is functional at the program's supply, so every
        op carries its base delay and energy.  Uncharacterised programs are
        rejected, because delays without a library, or below the functional
        floor, are meaningless.  Flip-flops never reach this point:
        :func:`~repro.sim.program.compile_program` rejects clocked netlists
        (the synchronous baseline's latency is its STA clock period, not a
        data-dependent quantity).
    delay_variation:
        Optional per-instance delay multipliers applied on top of the
        program's base delays, matching the event simulator's and STA's
        parameter of the same name.
    """

    def __init__(
        self,
        program: CompiledProgram,
        delay_variation: Optional[Dict[str, float]] = None,
    ) -> None:
        if not program.characterized:
            if program.library_name is None:
                reason = "it was compiled without a cell library"
            else:
                reason = (
                    f"library {program.library_name!r} is not functional at "
                    f"{program.vdd:.2f} V"
                )
            raise BackendError(
                f"the timed engine requires a characterised program: {reason}; "
                "timed results would be meaningless"
            )
        self.vdd = program.vdd
        #: The backend-neutral compile artifact this engine executes.
        self.program = program
        self.plan = plan = grouped_plan(program)
        delay = np.zeros(plan.num_nets)  # per driven net row
        delay[plan.out_idx] = [op.delay_ps for op in program.ops]
        if delay_variation:
            delay[plan.out_idx] *= [delay_variation.get(n, 1.0) for n in plan.cell_names]
        self._energies = 2.0 * np.array([op.energy_fj for op in program.ops]).reshape(-1, 1)
        self._groups = [
            (group, _compile_shape(group.tag, group.pin_groups), delay[group.out_idx, None])
            for level in plan.levels
            for group in level
        ]
        ties = program.constants
        self._tie_rows = [plan.net_index[net] for net, _ in ties]
        self._tie_values = np.array([value for _, value in ties], dtype=np.uint8).reshape(-1, 1)

    def _value_matrix(self, inputs: Mapping) -> Tuple[np.ndarray, int]:
        """``(nets, samples)`` values: stimulus and TIE rows, X elsewhere."""
        plan = self.plan
        rows, stacked, samples = bulk_stimulus_matrix(inputs, plan.net_index, 1)
        matrix = np.full((plan.num_nets, samples), X, dtype=np.uint8)
        matrix[rows] = stacked
        matrix[self._tie_rows] = self._tie_values
        return matrix, samples

    def _settle_rest(self, rest: np.ndarray) -> None:
        """Settle the rest word ``(nets, 1)`` in place (values only)."""
        for group, rule, _delay in self._groups:
            rest[group.out_idx] = rule([(rest[col], 0.0) for col in group.in_cols])[0]

    def _sweep(self, start: np.ndarray, final: np.ndarray, arrival: np.ndarray,
               settle: bool) -> None:
        """One phase over the grouped plan from the settled *start* values.

        Writes the arrivals in place and, with *settle*, the *final* values
        too (otherwise they are already settled, and each rule derives the
        same values again).
        """
        for group, rule, delay in self._groups:
            f, t = rule([(final[col], arrival[col]) for col in group.in_cols])
            out = group.out_idx
            if settle:
                final[out] = f
            arrival[out] = np.where(_changed(start[out], f), t + delay, 0.0)

    def run(
        self,
        inputs: Mapping[str, Union[int, np.ndarray, Sequence[int]]],
        spacer: Mapping[str, int],
    ) -> TimedBatchResult:
        """Time a batch of full handshake cycles.

        Parameters
        ----------
        inputs:
            Valid-phase primary-input planes (per-sample arrays, or scalars
            broadcast over the batch) — the same stimulus shape the batch
            backend's ``run_arrays`` takes.
        spacer:
            The rest-state input word every cycle starts from and returns
            to (for dual-rail circuits,
            :func:`repro.analysis.measure.spacer_assignments`).
        """
        plan = self.plan
        with _trace.span("timed.run") as run_span:
            valid, samples = self._value_matrix(inputs)
            run_span.add(samples=samples)
            rest, _ = self._value_matrix(
                {net: int(value) for net, value in spacer.items()}
            )
            arrival_valid = np.zeros((plan.num_nets, samples), dtype=np.float64)
            arrival_reset = np.zeros((plan.num_nets, samples), dtype=np.float64)
            blocks = [slice(lo, lo + _BLOCK) for lo in range(0, samples, _BLOCK)]
            with _trace.span("timed.forward"):
                self._settle_rest(rest)
                for block in blocks:
                    self._sweep(rest, valid[:, block], arrival_valid[:, block], True)
            with _trace.span("timed.backward"):
                for block in blocks:
                    self._sweep(valid[:, block], rest, arrival_reset[:, block], False)

            out = plan.out_idx
            energy = np.zeros(samples, dtype=np.float64)
            toggles = np.zeros(plan.num_cells, dtype=np.int64)
            for block in blocks:
                toggled = _changed(rest[out], valid[out, block])
                toggles += toggled.sum(axis=1)
                if plan.num_cells:
                    # Sum in op order at every batch size: cumsum is
                    # sequential, .sum(axis=0) is pairwise at one sample.
                    spent = toggled * self._energies
                    energy[block] = np.cumsum(spent, axis=0, out=spent)[-1]
            activity_by_cell, activity_by_type = activity_dicts(plan, toggles, 2)
            spacer_values: Dict[str, LogicValue] = {
                net: None if value == int(X) else value
                for net, value in zip(plan.net_index, rest[:, 0].tolist())
            }
        return TimedBatchResult(
            samples=samples,
            values=NetRows(valid, plan.net_index),
            spacer_values=spacer_values,
            arrival_valid=NetRows(arrival_valid, plan.net_index),
            arrival_reset=NetRows(arrival_reset, plan.net_index),
            energy_per_sample_fj=energy,
            activity_by_cell=activity_by_cell,
            activity_by_cell_type=activity_by_type,
            vdd=self.vdd,
        )
