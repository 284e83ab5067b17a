"""Vectorized data-dependent timing engine on the levelized compile path.

The batch/bitpack backends answer *what* every net settles to, orders of
magnitude faster than the event simulator — but every timing number in the
paper's artefacts (Table I latency columns, the Figure-3 curve, the latency
distributions, the DSE latency/energy axes) is about *when*.  This module
closes that gap: it computes **per-sample arrival times** for every net of a
levelized netlist with NumPy array sweeps, so a 10k-operand latency/energy
measurement costs a handful of vectorized passes instead of 10k event-driven
handshake cycles.

Measurement model
-----------------
One dual-rail handshake cycle has two monotonic phases, each computed as one
levelized sweep over ``(samples,)`` arrays:

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
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.circuits.gates import LogicValue
from repro.obs import trace as _trace

from ..program import CompiledProgram
from .base import BackendError, bind_cell_ops, make_cell_type_compiler
from .batch import (
    X,
    _NOT_LUT,
    _and_arrays,
    _c_element_arrays,
    _maj3_arrays,
    _or_arrays,
    _xor_arrays,
    normalize_input_planes,
)

#: Sentinel for "cannot determine the output" in controlling-value minima;
#: always masked out before it can reach a result (the corresponding sample
#: has no output transition).
_NEVER = np.float64(np.inf)

#: A net's timed state: ``(start values, final values, arrival times)``.
#: ``start``/``final`` are ``uint8`` planes (2 = X), ``arrival`` is a
#: ``float64`` plane holding the transition time of each sample — ``0.0``
#: for samples whose value does not change this phase.  Planes may be
#: shape ``(1,)`` when constant across the batch; NumPy broadcasting keeps
#: the math uniform.
TimedPlanes = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _changed(start: np.ndarray, final: np.ndarray) -> np.ndarray:
    """Samples whose value actually transitions this phase (both values known)."""
    return (start != final) & (start != X) & (final != X)


def _mask(start: np.ndarray, final: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Zero the arrival of samples that do not transition (or are unknown)."""
    return np.where(_changed(start, final), t, 0.0)


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
    starts = [p[0] for p in planes]
    finals = [p[1] for p in planes]
    arrivals = [p[2] for p in planes]
    start = _and_arrays(starts)
    final = _and_arrays(finals)
    t = np.where(
        final == 0,
        _first_arrival_at(finals, arrivals, 0),
        _last_arrival(arrivals),
    )
    return start, final, _mask(start, final, t)


def _timed_or(planes: Sequence[TimedPlanes]) -> TimedPlanes:
    """Timed three-valued OR: a 1 propagates early, a 0 waits for all."""
    starts = [p[0] for p in planes]
    finals = [p[1] for p in planes]
    arrivals = [p[2] for p in planes]
    start = _or_arrays(starts)
    final = _or_arrays(finals)
    t = np.where(
        final == 1,
        _first_arrival_at(finals, arrivals, 1),
        _last_arrival(arrivals),
    )
    return start, final, _mask(start, final, t)


def _timed_xor(planes: Sequence[TimedPlanes]) -> TimedPlanes:
    """Timed three-valued XOR: settles with its last transitioning input.

    Exact whenever at most one input toggles per phase (XOR has no
    controlling value, so two staggered input toggles would glitch the
    output — impossible in unate-mapped dual-rail netlists, which contain
    no XOR cells; the rule is the settle time for any other caller).
    """
    starts = [p[0] for p in planes]
    finals = [p[1] for p in planes]
    arrivals = [p[2] for p in planes]
    start = _xor_arrays(starts)
    final = _xor_arrays(finals)
    return start, final, _mask(start, final, _last_arrival(arrivals))


def _timed_maj3(planes: Sequence[TimedPlanes]) -> TimedPlanes:
    """Timed 3-input majority: decided by the second input to agree."""
    starts = [p[0] for p in planes]
    finals = [p[1] for p in planes]
    arrivals = [p[2] for p in planes]
    start = _maj3_arrays(starts)
    final = _maj3_arrays(finals)
    t = _second_arrival_at(finals, arrivals, final)
    return start, final, _mask(start, final, t)


def _timed_c(planes: Sequence[TimedPlanes]) -> TimedPlanes:
    """Timed C-element: switches only when the *last* input agrees."""
    starts = [p[0] for p in planes]
    finals = [p[1] for p in planes]
    arrivals = [p[2] for p in planes]
    start = _c_element_arrays(starts)
    final = _c_element_arrays(finals)
    return start, final, _mask(start, final, _last_arrival(arrivals))


def _timed_not(plane: TimedPlanes) -> TimedPlanes:
    """Timed inversion: values complement, the arrival is untouched."""
    start, final, arrival = plane
    return _NOT_LUT[start], _NOT_LUT[final], arrival


#: Cell-type dispatch over the timed (start, final, arrival) primitives —
#: the same compiler shape the batch and bitpack backends use, so complex
#: AOI/OAI/AO/OA gates compose group-wise with zero per-group delay (one
#: cell, one delay).
_compile_cell_type = make_cell_type_compiler(
    "timed",
    and_fn=_timed_and,
    or_fn=_timed_or,
    xor_fn=_timed_xor,
    maj3_fn=_timed_maj3,
    c_fn=_timed_c,
    invert=_timed_not,
)


@dataclass
class TimedBatchResult:
    """Per-sample timing, values and energy of a batch of handshake cycles.

    All per-net planes may be shape ``(1,)`` when constant across the batch
    (NumPy broadcasting); use :meth:`arrival_of` / :meth:`max_arrival` for a
    uniform ``(samples,)`` view.

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
    values: Dict[str, np.ndarray]
    spacer_values: Dict[str, LogicValue]
    arrival_valid: Dict[str, np.ndarray]
    arrival_reset: Dict[str, np.ndarray]
    energy_per_sample_fj: np.ndarray
    activity_by_cell: Dict[str, int] = field(default_factory=dict)
    activity_by_cell_type: Dict[str, int] = field(default_factory=dict)
    vdd: float = 0.0

    def _phase(self, phase: str) -> Dict[str, np.ndarray]:
        if phase == "valid":
            return self.arrival_valid
        if phase == "reset":
            return self.arrival_reset
        raise ValueError(f"unknown phase {phase!r}; expected 'valid' or 'reset'")

    def arrival_of(self, net: str, phase: str = "valid") -> np.ndarray:
        """Arrival plane of *net*, broadcast to a full ``(samples,)`` array."""
        plane = self._phase(phase)[net]
        return np.broadcast_to(plane, (self.samples,))

    def max_arrival(self, nets: Sequence[str], phase: str = "valid") -> np.ndarray:
        """Per-sample latest arrival over *nets* — e.g. the output rails.

        With ``phase="valid"`` and the circuit's output rails this is the
        paper's per-operand spacer→valid latency ``t(S→V)``; with
        ``phase="reset"`` it is the output reset time ``t(V→S)``.
        """
        arrivals = self._phase(phase)
        worst = np.zeros(1, dtype=np.float64)
        for net in nets:
            worst = np.maximum(worst, arrivals[net])
        return np.broadcast_to(worst, (self.samples,))

    def settle_time(self, phase: str = "valid") -> np.ndarray:
        """Per-sample time of the last transition anywhere in the netlist.

        The valid-phase settle time is when the event-driven environment
        would apply the spacer (it settles fully before moving on); the
        reset-phase settle time is the paper's internal reset time that the
        grace period ``td`` must cover.
        """
        return self.max_arrival(list(self._phase(phase)), phase)

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

    Binds once (per-cell evaluators plus per-instance delays) and then runs
    any number of stimulus batches through :meth:`run`.

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
        self._constants = list(program.constants)
        self._ops = bind_cell_ops(program, _compile_cell_type)
        variation = dict(delay_variation or {})
        self._delays: List[float] = [
            op.delay_ps * variation.get(op.cell_name, 1.0) if variation
            else op.delay_ps
            for op in program.ops
        ]
        self._energies: List[float] = [2.0 * op.energy_fj for op in program.ops]

    def _phase_sweep(
        self,
        start_inputs: Dict[str, np.ndarray],
        final_inputs: Dict[str, np.ndarray],
        samples: int,
    ) -> Dict[str, TimedPlanes]:
        """One levelized sweep: (start, final, arrival) planes for every net."""
        x1 = np.full(1, X, dtype=np.uint8)
        zero1 = np.zeros(1, dtype=np.float64)
        x_triple: TimedPlanes = (x1, x1, zero1)
        planes: Dict[str, TimedPlanes] = {}
        driven = set(start_inputs) | set(final_inputs)
        for name in self.program.primary_inputs:
            driven.add(name)
        for name in driven:
            planes[name] = (
                start_inputs.get(name, x1),
                final_inputs.get(name, x1),
                zero1,
            )
        for net, constant in self._constants:
            value = np.full(1, constant, dtype=np.uint8)
            planes[net] = (value, value, zero1)
        for op, delay in zip(self._ops, self._delays):
            start, final, t = op.fn([planes.get(net, x_triple) for net in op.in_nets])
            arrival = np.where(_changed(start, final), t + delay, 0.0)
            planes[op.out_net] = (start, final, arrival)
        for net in self.program.nets:
            if net not in planes:
                planes[net] = x_triple
        return planes

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
        with _trace.span("timed.run") as run_span:
            valid_planes, samples = normalize_input_planes(self.program, inputs)
            run_span.add(samples=samples)
            spacer_planes, _ = normalize_input_planes(
                self.program, {net: np.asarray([int(v)], dtype=np.uint8)
                               for net, v in spacer.items()}
            )
            with _trace.span("timed.forward"):
                forward = self._phase_sweep(spacer_planes, valid_planes, samples)
            with _trace.span("timed.backward"):
                backward = self._phase_sweep(valid_planes, spacer_planes, samples)

            values: Dict[str, np.ndarray] = {}
            spacer_values: Dict[str, LogicValue] = {}
            arrival_valid: Dict[str, np.ndarray] = {}
            arrival_reset: Dict[str, np.ndarray] = {}
            for net in self.program.nets:
                start, final, arrival = forward[net]
                values[net] = np.ascontiguousarray(
                    np.broadcast_to(final, (samples,))
                )
                rest = int(start[0])  # spacer-side planes are always shape (1,)
                spacer_values[net] = None if rest == int(X) else rest
                arrival_valid[net] = arrival
                arrival_reset[net] = backward[net][2]

            energy = np.zeros(samples, dtype=np.float64)
            activity_by_cell: Dict[str, int] = {}
            activity_by_type: Dict[str, int] = {}
            for op, per_toggle in zip(self._ops, self._energies):
                start, final, _arrival = forward[op.out_net]
                toggled = _changed(start, final)
                toggles = int(np.count_nonzero(np.broadcast_to(toggled, (samples,))))
                if toggles:
                    transitions = 2 * toggles
                    activity_by_cell[op.cell_name] = transitions
                    activity_by_type[op.cell_type] = (
                        activity_by_type.get(op.cell_type, 0) + transitions
                    )
                    if per_toggle:
                        energy += np.where(toggled, per_toggle, 0.0)
        return TimedBatchResult(
            samples=samples,
            values=values,
            spacer_values=spacer_values,
            arrival_valid=arrival_valid,
            arrival_reset=arrival_reset,
            energy_per_sample_fj=energy,
            activity_by_cell=activity_by_cell,
            activity_by_cell_type=activity_by_type,
            vdd=self.vdd,
        )
