"""The single compiled IR every levelized consumer executes.

Before this module existed, each vectorized backend instance re-walked the
netlist on construction, the timed engine resolved per-cell delays on its
own, and worker processes (``run_parallel`` chunks,
serving pools) repeated all of it per process.  :func:`compile_program`
factors that work into one **serializable, backend-neutral artifact**:

:class:`CompiledProgram`
    A levelized straight-line op list with *cell dispatch tags* (the
    vocabulary of :func:`repro.sim.backends.base.classify_cell_type`),
    the ``TIE0``/``TIE1`` constants, the net table, the per-cell
    load/delay/energy model resolved through the one shared STA formula
    (:func:`repro.sim.sta.output_load` /
    :func:`repro.sim.sta.cell_output_delay`), the library fingerprint it
    was characterised against, and a compiler version stamp.

The artifact is deliberately free of callables: engines bind their own
evaluators from the cell-type tags, per cell (the batch reference) or per
group of same-shaped cells (:func:`repro.sim.kernels.build_grouped_plan`,
which the bitpack kernel and the timed engine run).  One program, possibly
loaded from the on-disk :mod:`repro.sim.program_cache`, therefore serves the
batch, bitpack and timed engines alike, and round-trips exactly through JSON
(:meth:`CompiledProgram.to_dict` / :meth:`CompiledProgram.from_dict`).

Content addressing
------------------
:func:`netlist_fingerprint` digests the full netlist structure (cells, pin
connections, net insertion order, PI/PO lists — insertion order is part of
the repo's determinism contract, so it is part of the hash) and
:meth:`CompiledProgram.program_hash` digests the whole artifact.  Together
with :func:`repro.circuits.library.library_fingerprint`, the resolved
supply point and :data:`PROGRAM_COMPILER_VERSION` they form the cache key
(see :func:`repro.sim.program_cache.program_cache_key`).
"""

from __future__ import annotations

import hashlib
import json
import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.circuits.gates import gate_spec
from repro.circuits.levelize import levelize
from repro.circuits.library import CellLibrary, library_fingerprint
from repro.circuits.netlist import Netlist, NetlistError
from repro.obs import trace as _trace

from .backends.base import BackendError, classify_cell_type
from .sta import output_load

#: Version stamp of the program compiler.  Bump whenever the op layout,
#: the delay/energy resolution or the serialization format changes in a
#: way that makes previously cached programs stale.
PROGRAM_COMPILER_VERSION = 1


#: Identity-keyed fingerprint memo.  Netlists in this repo are built once
#: by their circuit builders and read-only afterwards; the (cell count,
#: net count) guard invalidates the common grow-after-fingerprint case so
#: repeated backend constructions from the same netlist skip the canonical
#: JSON walk.
_netlist_fingerprint_memo = weakref.WeakKeyDictionary()


def netlist_fingerprint(netlist: Netlist) -> str:
    """Deterministic digest of a netlist's full structure.

    Covers every cell (type and pin→net connections in pin order), the net
    table in insertion order, and the primary input/output lists — the
    repo's determinism contract makes insertion order part of the netlist
    API, so two netlists with the same fingerprint compile to byte-identical
    programs.  This is the netlist ingredient of the program cache key.
    Memoized per netlist instance (netlists are build-once objects); adding
    cells or nets invalidates the memo.
    """
    shape = (len(netlist.cells), len(netlist.nets))
    cached = _netlist_fingerprint_memo.get(netlist)
    if cached is not None and cached[0] == shape:
        return cached[1]
    payload = {
        "nets": list(netlist.nets),
        "primary_inputs": list(netlist.primary_inputs),
        "primary_outputs": list(netlist.primary_outputs),
        "cells": [
            [
                cell.name,
                cell.cell_type,
                sorted(cell.inputs.items()),
                sorted(cell.outputs.items()),
            ]
            for cell in netlist.iter_cells()
        ],
    }
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canon.encode("utf-8")).hexdigest()
    _netlist_fingerprint_memo[netlist] = (shape, digest)
    return digest


def resolve_vdd(library: Optional[CellLibrary], vdd: Optional[float]) -> Optional[float]:
    """The supply point a compile is characterised at.

    ``None`` stays ``None`` without a library (purely functional program);
    with one, it resolves to the library nominal — the same defaulting the
    timed engine and the event simulator apply, so cache keys computed
    before and after resolution agree.
    """
    if vdd is not None:
        return float(vdd)
    if library is not None:
        return library.voltage_model.nominal_vdd
    return None


class NetTable(tuple):
    """Ordered net-name table with set-speed membership tests.

    Iterates in netlist insertion order (the determinism contract) while
    ``net in table`` costs O(1) — the two access patterns the vectorized
    backends mix on every call.
    """

    def __new__(cls, names) -> "NetTable":
        obj = super().__new__(cls, tuple(names))
        obj._members = frozenset(obj)
        return obj

    def __contains__(self, item) -> bool:
        return item in self._members

    def __getnewargs__(self):
        return (tuple(self),)


@dataclass(frozen=True)
class ProgramOp:
    """One levelized cell of a :class:`CompiledProgram` (backend-neutral).

    Attributes
    ----------
    cell_name / cell_type:
        Instance name and the library cell type — the *dispatch tag*
        backends bind their evaluator from.
    in_nets:
        Input nets in the cell type's pin order.
    out_net:
        The single output net.
    load_ff:
        Capacitive load on *out_net* per the shared STA load model
        (``0.0`` for uncharacterised programs).
    delay_ps:
        Base switching delay at the program's supply point, **without**
        per-instance variation — the timed engine applies its
        ``delay_variation`` multipliers on top (``0.0`` when
        uncharacterised).
    energy_fj:
        Switching energy of one output transition at the program's supply
        (``0.0`` when uncharacterised or the cell is unpriced).
    """

    cell_name: str
    cell_type: str
    in_nets: Tuple[str, ...]
    out_net: str
    load_ff: float = 0.0
    delay_ps: float = 0.0
    energy_fj: float = 0.0


@dataclass
class CompiledProgram:
    """A serializable levelized compile artifact shared by every backend.

    Produced by :func:`compile_program`; executed by the batch, bitpack and
    timed engines, which bind their own evaluators from the ops' cell types.
    Carries no callables or netlist references, so it pickles/JSON-serializes
    cheaply across worker processes and caches on disk
    (:class:`~repro.sim.program_cache.ProgramCache`).

    Attributes
    ----------
    netlist_hash:
        :func:`netlist_fingerprint` of the source netlist.
    library_name / library_digest:
        Name and :func:`~repro.circuits.library.library_fingerprint` of the
        characterising library (``None`` for purely functional compiles).
    vdd:
        Resolved supply point delays/energies were computed at (``None``
        without a library).
    characterized:
        Whether per-op delays/energies were resolved — requires a library
        whose voltage model is functional at *vdd*; functional-only
        consumers work either way, the timed engine requires ``True``.
    compiler_version:
        :data:`PROGRAM_COMPILER_VERSION` at compile time.
    num_levels:
        Depth of the levelized schedule (ops are stored flat, level order).
    primary_inputs / primary_outputs / net_names:
        The interface and net table of the source netlist, insertion order.
    constants:
        ``(net, value)`` pairs peeled off ``TIE0``/``TIE1`` cells.
    ops:
        The straight-line :class:`ProgramOp` list in level order.
    """

    netlist_hash: str
    library_name: Optional[str]
    library_digest: Optional[str]
    vdd: Optional[float]
    characterized: bool
    compiler_version: int
    num_levels: int
    primary_inputs: Tuple[str, ...]
    primary_outputs: Tuple[str, ...]
    net_names: NetTable
    constants: Tuple[Tuple[str, int], ...]
    ops: Tuple[ProgramOp, ...]
    _hash: Optional[str] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not isinstance(self.net_names, NetTable):
            self.net_names = NetTable(self.net_names)
        self.primary_inputs = tuple(self.primary_inputs)
        self.primary_outputs = tuple(self.primary_outputs)
        self.constants = tuple((net, int(v)) for net, v in self.constants)
        self.ops = tuple(self.ops)

    # ----------------------------------------------------------- net table
    @property
    def nets(self) -> NetTable:
        """The net universe (ordered, O(1) membership) backends validate
        stimulus against — the program-world stand-in for ``netlist.nets``."""
        return self.net_names

    # ------------------------------------------------------- serialization
    def to_dict(self) -> Dict:
        """JSON-serializable form; exact round-trip via :meth:`from_dict`."""
        return {
            "netlist_hash": self.netlist_hash,
            "library_name": self.library_name,
            "library_digest": self.library_digest,
            "vdd": self.vdd,
            "characterized": self.characterized,
            "compiler_version": self.compiler_version,
            "num_levels": self.num_levels,
            "primary_inputs": list(self.primary_inputs),
            "primary_outputs": list(self.primary_outputs),
            "nets": list(self.net_names),
            "constants": [[net, value] for net, value in self.constants],
            "ops": [
                [
                    op.cell_name, op.cell_type, list(op.in_nets), op.out_net,
                    op.load_ff, op.delay_ps, op.energy_fj,
                ]
                for op in self.ops
            ],
        }

    @classmethod
    def from_dict(cls, record: Dict) -> "CompiledProgram":
        """Rebuild a program from :meth:`to_dict` output (e.g. a cache entry)."""
        return cls(
            netlist_hash=record["netlist_hash"],
            library_name=record["library_name"],
            library_digest=record["library_digest"],
            vdd=record["vdd"],
            characterized=bool(record["characterized"]),
            compiler_version=int(record["compiler_version"]),
            num_levels=int(record["num_levels"]),
            primary_inputs=tuple(record["primary_inputs"]),
            primary_outputs=tuple(record["primary_outputs"]),
            net_names=NetTable(record["nets"]),
            constants=tuple((net, int(v)) for net, v in record["constants"]),
            ops=tuple(
                ProgramOp(
                    cell_name=raw[0], cell_type=raw[1], in_nets=tuple(raw[2]),
                    out_net=raw[3], load_ff=float(raw[4]), delay_ps=float(raw[5]),
                    energy_fj=float(raw[6]),
                )
                for raw in record["ops"]
            ),
        )

    @property
    def program_hash(self) -> str:
        """Content hash of the whole artifact (cached after first use).

        Two programs with equal hashes are byte-identical artifacts; the
        hash is what ``run_parallel`` workers and serving pools exchange
        instead of pickled compiled state.
        """
        if self._hash is None:
            canon = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
            self._hash = hashlib.sha256(canon.encode("utf-8")).hexdigest()
        return self._hash


def compile_program(
    netlist: Netlist,
    library: Optional[CellLibrary] = None,
    vdd: Optional[float] = None,
) -> CompiledProgram:
    """Compile *netlist* into the :class:`CompiledProgram` every backend runs.

    The one public compile entry point: rejects clocked netlists
    (flip-flops have no single-pass functional meaning), topologically
    levelizes, peels ``TIE0``/``TIE1`` cells into constants, validates every
    remaining (single-output) cell against the shared dispatch vocabulary,
    and — when *library* is given and functional at the resolved *vdd* —
    resolves each op's load, base delay and per-transition energy through
    the shared STA model, making the artifact sufficient for the timed
    engine with no further netlist access.

    Raises
    ------
    BackendError
        For clocked or non-levelizable (cyclic) netlists, multi-output
        cells, or cell types outside the vectorizable vocabulary.
    """
    with _trace.span("backend.compile", backend="program") as compile_span:
        for cell in netlist.iter_cells():
            if cell.cell_type == "DFF":
                raise BackendError(
                    "the levelized backends do not support clocked netlists "
                    "(DFF found); use the event backend for the synchronous baseline"
                )
        try:
            levels = levelize(netlist)
        except NetlistError as err:
            raise BackendError(
                f"compile_program requires a levelizable netlist: {err}; "
                "use the event backend for cyclic designs"
            ) from err
        supply = resolve_vdd(library, vdd)
        characterized = (
            library is not None and library.voltage_model.is_functional(supply)
        )
        constants: List[Tuple[str, int]] = []
        ops: List[ProgramOp] = []
        for level in levels:
            for cell in level:
                if cell.cell_type in ("TIE0", "TIE1"):
                    value = 1 if cell.cell_type == "TIE1" else 0
                    for net in cell.outputs.values():
                        constants.append((net, value))
                    continue
                spec = gate_spec(cell.cell_type)
                if len(spec.output_pins) != 1:
                    raise BackendError(
                        "the levelized backends expect single-output cells, "
                        f"got {cell.cell_type!r}"
                    )
                if classify_cell_type(cell.cell_type) is None:
                    raise BackendError(
                        f"compile_program cannot vectorize cell type "
                        f"{cell.cell_type!r}"
                    )
                out_net = cell.outputs[spec.output_pins[0]]
                load = delay = energy = 0.0
                if characterized:
                    # One output_load per cell; cell_delay at that load is
                    # exactly sta.cell_output_delay with no variation map.
                    load = output_load(netlist, library, out_net)
                    delay = library.cell_delay(cell.cell_type, load, vdd=supply)
                    if library.has_cell(cell.cell_type):
                        energy = library.cell_energy(cell.cell_type, vdd=supply)
                ops.append(
                    ProgramOp(
                        cell_name=cell.name,
                        cell_type=cell.cell_type,
                        in_nets=tuple(cell.inputs[pin] for pin in spec.input_pins),
                        out_net=out_net,
                        load_ff=load,
                        delay_ps=delay,
                        energy_fj=energy,
                    )
                )
        program = CompiledProgram(
            netlist_hash=netlist_fingerprint(netlist),
            library_name=library.name if library is not None else None,
            library_digest=(
                library_fingerprint(library) if library is not None else None
            ),
            vdd=supply,
            characterized=characterized,
            compiler_version=PROGRAM_COMPILER_VERSION,
            num_levels=len(levels),
            primary_inputs=tuple(netlist.primary_inputs),
            primary_outputs=tuple(netlist.primary_outputs),
            net_names=NetTable(netlist.nets),
            constants=tuple(constants),
            ops=tuple(ops),
        )
        compile_span.add(
            levels=program.num_levels,
            cells=len(program.ops),
            characterized=characterized,
        )
    return program
