"""Design-rule checks for single-rail and dual-rail netlists.

The paper states six requirements for correct operation of the self-timed
circuit (Section III).  The ones that are *structural* properties of the
netlist are checked here:

* Requirement 2 (monotonic switching within the circuit) requires the
  dual-rail netlist to be built solely from unate gates —
  :func:`check_unate_only`.
* Completion detection / latching structure: every dual-rail primary input
  pair should be latched by C-elements when the datapath provides its own
  input latches — :func:`find_c_elements`.
* General structural sanity (no floating nets, no multiply-driven nets) —
  :func:`check_structure`.

The *dynamic* requirements (spacer/valid alternation on the primary inputs,
grace periods) are monitored during simulation by
:mod:`repro.sim.monitors`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from .gates import gate_spec, is_sequential, is_unate
from .library import CellLibrary
from .netlist import Netlist


@dataclass
class ValidationReport:
    """Aggregated result of the structural design-rule checks.

    Attributes
    ----------
    errors:
        Rule violations that make the circuit incorrect.
    warnings:
        Suspicious constructs that do not necessarily break correctness.
    """

    errors: List[str] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """``True`` when no errors were found."""
        return not self.errors

    def extend(self, other: "ValidationReport") -> None:
        """Merge another report into this one."""
        self.errors.extend(other.errors)
        self.warnings.extend(other.warnings)


def check_structure(netlist: Netlist) -> ValidationReport:
    """Check for floating nets and undriven primary outputs."""
    report = ValidationReport()
    report.errors.extend(netlist.check_structure())
    return report


def check_connectivity(netlist: Netlist) -> ValidationReport:
    """Reject dangling and multiply-driven nets with actionable messages.

    Checks performed (beyond :func:`check_structure`):

    * **dangling nets** — a net with neither driver nor sinks that is not a
      primary input or output serves no purpose and usually indicates a
      generator bug (a signal built but never connected); such netlists
      previously reached the simulator silently and now fail validation and
      HDL export;
    * **multiply-driven nets** — every net must be driven by at most one
      cell output pin.  :meth:`~repro.circuits.netlist.Netlist.add_cell`
      enforces this during construction, but netlists assembled or mutated
      by hand (or parsed from external sources) can violate it;
    * **driver bookkeeping** — each net's recorded ``driver`` must agree
      with the cell that actually lists the net on an output pin, so stale
      manual edits are caught instead of confusing the simulator.
    """
    report = ValidationReport()
    io = set(netlist.primary_inputs) | set(netlist.primary_outputs)
    for net in netlist.iter_nets():
        if net.driver is None and not net.sinks and net.name not in io:
            report.errors.append(
                f"net {net.name!r} is dangling (no driver, no sinks, not a port); "
                "remove it or connect it before simulation/export"
            )
    drivers: Dict[str, List[str]] = {}
    for cell in netlist.iter_cells():
        for pin, net_name in cell.outputs.items():
            drivers.setdefault(net_name, []).append(f"{cell.name}.{pin}")
    for net_name, pins in drivers.items():
        if len(pins) > 1:
            report.errors.append(
                f"net {net_name!r} is multiply driven by {pins}; "
                "a net must have exactly one driver"
            )
    for net in netlist.iter_nets():
        recorded = net.driver
        actual = drivers.get(net.name, [])
        if recorded is not None:
            expected = f"{recorded[0]}.{recorded[1]}"
            if expected not in actual:
                report.errors.append(
                    f"net {net.name!r} records driver {expected} but no cell "
                    "drives it from that pin; the netlist was mutated inconsistently"
                )
        elif actual and net.name not in netlist.primary_inputs:
            report.errors.append(
                f"net {net.name!r} is driven by {actual[0]} but its driver "
                "field is unset; rebuild the net via Netlist.add_cell"
            )
    return report


def check_unate_only(netlist: Netlist) -> ValidationReport:
    """Check Requirement 2: the netlist contains no non-unate cells.

    Non-unate gates (XOR/XNOR) can glitch on monotonic input transitions,
    which would break the indication properties of the dual-rail encoding.
    """
    report = ValidationReport()
    for cell in netlist.iter_cells():
        if not is_unate(cell.cell_type):
            report.errors.append(
                f"cell {cell.name!r} ({cell.cell_type}) is non-unate; "
                "dual-rail netlists must use unate gates only (Requirement 2)"
            )
    return report


def check_library_mappable(netlist: Netlist, library: CellLibrary) -> ValidationReport:
    """Check that every cell type used by *netlist* exists in *library*.

    The FULL DIFFUSION library, for instance, has no AOI32 cell: netlists
    targeting it must have been decomposed by
    :func:`repro.synth.mapping.map_to_library` first.
    """
    report = ValidationReport()
    for cell in netlist.iter_cells():
        if not library.has_cell(cell.cell_type):
            report.errors.append(
                f"cell {cell.name!r} uses type {cell.cell_type!r} which is not "
                f"available in library {library.name!r}"
            )
    return report


def find_c_elements(netlist: Netlist) -> List[str]:
    """Return the instance names of all C-element cells (dual-rail latches)."""
    return [c.name for c in netlist.iter_cells() if gate_spec(c.cell_type).tag == "c"]


def find_flip_flops(netlist: Netlist) -> List[str]:
    """Return the instance names of all flip-flops (single-rail registers)."""
    return [c.name for c in netlist.iter_cells() if c.cell_type == "DFF"]


def check_no_combinational_loops(netlist: Netlist) -> ValidationReport:
    """Detect combinational feedback loops (excluding sequential cells).

    Loops through C-elements or flip-flops are legal (they are the state
    elements); loops through purely combinational gates are reported as
    errors because neither the simulator's delta-cycle model nor static
    timing analysis can give them a meaningful interpretation.
    """
    report = ValidationReport()
    # Build a graph over combinational cells only.
    adj: Dict[str, List[str]] = {}
    for cell in netlist.iter_cells():
        if is_sequential(cell.cell_type):
            continue
        adj.setdefault(cell.name, [])
        for net_name in cell.outputs.values():
            for sink in netlist.fanout_cells(net_name):
                if not is_sequential(sink.cell_type):
                    adj[cell.name].append(sink.name)

    WHITE, GREY, BLACK = 0, 1, 2
    colour = {name: WHITE for name in adj}

    def dfs(start: str) -> bool:
        stack = [(start, iter(adj[start]))]
        colour[start] = GREY
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if nxt not in colour:
                    continue
                if colour[nxt] == GREY:
                    return True
                if colour[nxt] == WHITE:
                    colour[nxt] = GREY
                    stack.append((nxt, iter(adj[nxt])))
                    advanced = True
                    break
            if not advanced:
                colour[node] = BLACK
                stack.pop()
        return False

    for name in adj:
        if colour[name] == WHITE:
            if dfs(name):
                report.errors.append(
                    f"combinational feedback loop detected involving cell {name!r}"
                )
                break
    return report


def validate_dual_rail_netlist(netlist: Netlist, library: CellLibrary = None) -> ValidationReport:
    """Run every structural check relevant to a dual-rail netlist."""
    report = ValidationReport()
    report.extend(check_structure(netlist))
    report.extend(check_connectivity(netlist))
    report.extend(check_unate_only(netlist))
    report.extend(check_no_combinational_loops(netlist))
    if library is not None:
        report.extend(check_library_mappable(netlist, library))
    return report


def validate_single_rail_netlist(netlist: Netlist, library: CellLibrary = None) -> ValidationReport:
    """Run the structural checks relevant to the synchronous baseline."""
    report = ValidationReport()
    report.extend(check_structure(netlist))
    report.extend(check_connectivity(netlist))
    report.extend(check_no_combinational_loops(netlist))
    if library is not None:
        report.extend(check_library_mappable(netlist, library))
    return report
