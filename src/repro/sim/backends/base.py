"""The pluggable simulation-backend contract.

A *backend* answers the question "what do the nets of this netlist settle to
for these primary-input assignments?" — possibly for a whole batch of input
vectors at once, and possibly with per-gate switching-activity counts on the
side.  Three implementations ship with the repo:

``"event"``
    :class:`~repro.sim.backends.event.EventBackend` — wraps the timing-
    accurate event-driven :class:`~repro.sim.simulator.GateLevelSimulator`.
    Use it whenever *when* something switches matters (latency, grace
    periods, monotonicity checking, glitch-accurate power).

``"batch"``
    :class:`~repro.sim.backends.batch.BatchBackend` — levelizes the netlist
    once and evaluates each cell, one at a time, as a vectorized NumPy
    operation over the whole sample batch.  Use it whenever only the
    *functional* outputs and cycle-level transition counts are needed
    (correctness sweeps, energy estimation, workload statistics); it is
    orders of magnitude faster than the event simulator, and it is the
    simple reference interpreter the faster engine is tested against.

``"bitpack"``
    :class:`~repro.sim.backends.bitpack.BitpackBackend` — the same levelized
    evaluation, but with 64 samples packed into each ``uint64`` word (two
    bit-planes per net for three-valued logic) and each level evaluated as
    a few AND/OR reduce steps over the stacked planes (:mod:`repro.sim.kernels`).
    The fastest functional backend; bit-identical to ``"batch"``.

Backends are looked up by name through :func:`get_backend`, so experiment
harnesses can take a ``backend="event"|"batch"|"bitpack"`` argument without
importing concrete classes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

try:  # Protocol is 3.8+; keep an import guard for exotic interpreters.
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover - typing_extensions fallback
    Protocol = object  # type: ignore[assignment]

    def runtime_checkable(cls):  # type: ignore[misc]
        """Identity decorator standing in for :func:`typing.runtime_checkable`."""
        return cls


from repro.circuits.gates import COMPLEX_GATE_SHAPES, GATE_REGISTRY, LogicValue
from repro.circuits.library import CellLibrary
from repro.circuits.netlist import Netlist


class BackendError(Exception):
    """Raised when a backend cannot simulate the given netlist or stimulus."""


@dataclass
class BatchResult:
    """Outcome of pushing a batch of input vectors through a backend.

    Attributes
    ----------
    samples:
        Number of input vectors evaluated.
    outputs:
        Per-sample settled values of the primary outputs:
        ``outputs[k][net] -> LogicValue`` for sample ``k``.
    activity_by_cell:
        Committed output-transition count per cell instance, summed over the
        batch (the quantity energy estimation needs).
    activity_by_cell_type:
        The same activity aggregated by cell type (the granularity
        :class:`~repro.sim.power.PowerAccountant` prices energy at).
    net_values:
        Optional per-net settled values for the whole batch (backends that
        keep them expose the full matrix for gate-for-gate cross-checking):
        ``net_values[net][k] -> LogicValue`` for sample ``k``.
    """

    samples: int
    outputs: List[Dict[str, LogicValue]]
    activity_by_cell: Dict[str, int] = field(default_factory=dict)
    activity_by_cell_type: Dict[str, int] = field(default_factory=dict)
    net_values: Optional[Dict[str, List[LogicValue]]] = None

    @property
    def transitions(self) -> int:
        """Total committed transitions across the batch."""
        return sum(self.activity_by_cell_type.values())


@runtime_checkable
class SimulationBackend(Protocol):
    """Structural protocol every simulation backend implements.

    Construction is ``Backend(netlist, library, vdd=None)``; afterwards the
    backend is reusable across any number of evaluations of that netlist.
    """

    #: Registry name ("event", "batch", ...).
    name: str

    def evaluate(self, assignments: Mapping[str, int]) -> Dict[str, LogicValue]:
        """Settled value of every net for one full primary-input assignment."""
        ...

    def run_batch(
        self,
        batch: Sequence[Mapping[str, int]],
        baseline: Optional[Mapping[str, int]] = None,
    ) -> BatchResult:
        """Evaluate a batch of assignments; see :class:`BatchResult`.

        ``baseline`` is the rest-state assignment transitions are counted
        against (for spacer-separated dual-rail cycles, the spacer input
        word); backends that measure transitions directly may ignore it.
        """
        ...


def classify_cell_type(cell_type: str) -> Optional[Tuple[str, Optional[Tuple[int, ...]]]]:
    """Classify *cell_type* into the levelized backends' dispatch vocabulary.

    The single definition of which cell types the vectorized engines can
    execute: ``compile_program`` validates against it at compile time and
    :func:`make_cell_type_compiler` binds evaluators from it, so a cell
    type accepted by the compiler is guaranteed bindable by every
    vectorized backend.  Returns ``(tag, groups)`` — the
    :class:`~repro.circuits.gates.GateSpec` ``tag`` and ``pin_groups``
    fields of the registry cell — or ``None`` for cell types outside the
    vocabulary (TIE constants, flip-flops, unknown names).
    """
    spec = GATE_REGISTRY.get(cell_type)
    if spec is None or spec.tag is None:
        return None
    return spec.tag, spec.pin_groups


def make_cell_type_compiler(
    and_fn: Callable,
    or_fn: Callable,
    xor_fn: Callable,
    maj3_fn: Callable,
    c_fn: Callable,
    invert: Callable,
) -> Callable[[str, Optional[Tuple[int, ...]]], Callable]:
    """Build a memoised ``(tag, pin groups) -> evaluator`` compiler.

    The batch reference (per cell) and the timed engine (per plan group)
    share one dispatch over the :func:`classify_cell_type` shapes (INV/BUF,
    AND/NAND, OR/NOR, XOR2/XNOR2, MAJ3, C-elements, and the AOI/OAI/AO/OA
    complex gates with per-digit pin groups); only the primitives differ —
    the batch backend's operate on ``uint8`` sample arrays, the timed
    engine's on ``(final, arrival)`` pairs.  Each ``*_fn`` takes
    the cell's input values in pin order and returns the output value;
    *invert* maps an output value to its logical complement.
    """

    def grouped(groups: Tuple[int, ...], inner: Callable, outer: Callable,
                inverting: bool) -> Callable:
        """Complex-gate evaluator: *inner* per pin group, *outer* across groups."""

        def fn(values: List) -> object:
            """Evaluate one complex gate over grouped pin values."""
            terms: List = []
            idx = 0
            for width in groups:
                terms.append(values[idx] if width == 1 else inner(values[idx: idx + width]))
                idx += width
            out = outer(terms)
            return invert(out) if inverting else out

        return fn

    @functools.lru_cache(maxsize=None)
    def compile_shape(tag: str, groups: Optional[Tuple[int, ...]]) -> Callable:
        """Return the evaluator of dispatch shape ``(tag, groups)`` (pin order)."""
        if tag == "inv":
            return lambda values: invert(values[0])
        if tag == "buf":
            return lambda values: values[0]
        if tag == "maj3":
            return maj3_fn
        if tag == "xor":
            return xor_fn
        if tag == "xnor":
            return lambda values: invert(xor_fn(values))
        if tag == "and":
            return and_fn
        if tag == "nand":
            return lambda values: invert(and_fn(values))
        if tag == "or":
            return or_fn
        if tag == "nor":
            return lambda values: invert(or_fn(values))
        if tag == "c":
            return c_fn
        inner_and, inverting = COMPLEX_GATE_SHAPES[tag]
        inner, outer = (and_fn, or_fn) if inner_and else (or_fn, and_fn)
        return grouped(groups, inner, outer, inverting)

    return compile_shape


#: name -> factory(netlist, library, vdd) for the built-in backends.
_REGISTRY: Dict[str, Callable[..., SimulationBackend]] = {}


def register_backend(name: str, factory: Callable[..., SimulationBackend]) -> None:
    """Register a backend factory under *name* (last registration wins)."""
    _REGISTRY[name] = factory


def available_backends() -> List[str]:
    """Names of all registered backends, sorted."""
    return sorted(_REGISTRY)


def get_backend(
    name: str,
    netlist: Optional[Netlist] = None,
    library: Optional[CellLibrary] = None,
    vdd: Optional[float] = None,
    program=None,
    cache=None,
) -> SimulationBackend:
    """Instantiate the backend registered as *name*.

    The documented construction API takes **exactly one** of:

    ``netlist=``
        Compile the netlist for this backend (the seed behaviour).  With
        ``cache=`` (a directory path or a
        :class:`~repro.sim.program_cache.ProgramCache`) the compile goes
        through the on-disk program cache: a warm entry skips the netlist
        walk entirely, a cold one compiles and stores.  The event backend
        executes the netlist directly and ignores *cache*.

    ``program=``
        Execute a precompiled
        :class:`~repro.sim.program.CompiledProgram` (e.g. loaded from a
        :class:`~repro.sim.program_cache.ProgramCache` in a worker
        process).  Only the vectorized backends accept programs; the event
        backend raises :class:`BackendError`.
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise BackendError(
            f"unknown simulation backend {name!r}; available: {available_backends()}"
        ) from None
    if (netlist is None) == (program is None):
        raise BackendError(
            "get_backend takes exactly one of netlist= and program= "
            f"(got netlist={'set' if netlist is not None else 'None'}, "
            f"program={'set' if program is not None else 'None'})"
        )
    if name == "event":
        if program is not None:
            raise BackendError(
                "the event backend executes the netlist directly and cannot "
                "run a CompiledProgram; construct it with netlist="
            )
        return factory(netlist, library, vdd=vdd)
    if cache is not None and program is None:
        from repro.sim.program_cache import ProgramCache

        store = cache if isinstance(cache, ProgramCache) else ProgramCache(cache)
        program = store.load_or_compile(netlist, library, vdd=vdd)
    if program is not None:
        return factory(netlist, library, vdd=vdd, program=program)
    return factory(netlist, library, vdd=vdd)
