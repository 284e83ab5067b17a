"""Completion detection, full and reduced (the paper's core optimisation).

Full completion detection (CD) acknowledges both spacer→valid and
valid→spacer at the primary outputs, and requires internal CD to guarantee
that every internal net has also reset before new inputs are applied.  It is
expensive: one validity detector per output pair plus a tree of C-elements.

The paper's **reduced CD scheme** (Section III-A):

1. only spacer→valid is *indicated* at the primary outputs, so the
   aggregation tree can use plain AND gates instead of C-elements;
2. internal CD is omitted entirely; instead the environment (or a delay
   built into the falling edge of ``done``) guarantees a *grace period*
   between returning the inputs to spacer and applying the next valid
   codeword.  The grace period is derived from static timing analysis:

   ``td = t_int − t_io``   and   ``t_done(1→0) = t_io + td``

   where ``t_int`` is the maximum internal valid→spacer (reset) time —
   false paths included — and ``t_io`` the maximum input-to-output reset
   time.

This module builds both CD styles onto a :class:`~repro.core.dual_rail.DualRailCircuit`
and computes the grace-period numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.circuits.builder import LogicBuilder
from repro.circuits.library import CellLibrary

from .dual_rail import DualRailCircuit, DualRailSignal, OneOfNSignal, SpacerPolarity

if TYPE_CHECKING:  # repro.sim imports this package
    from repro.sim.sta import TimingReport


@dataclass
class CompletionInfo:
    """Description of the completion-detection network added to a circuit.

    Attributes
    ----------
    done_net:
        Name of the completion (done) output net.
    scheme:
        ``"reduced"`` or ``"full"``.
    detector_cells:
        Number of cells added for per-output validity detection.
    aggregator_cells:
        Number of cells added to combine the validity signals.
    delay_cells:
        Number of cells added to implement the asymmetric done-fall delay
        (reduced scheme only).
    """

    done_net: str
    scheme: str
    detector_cells: int
    aggregator_cells: int
    delay_cells: int

    @property
    def total_cells(self) -> int:
        """Total cell overhead of the CD network."""
        return self.detector_cells + self.aggregator_cells + self.delay_cells


@dataclass
class GracePeriod:
    """Timing-assumption numbers of the reduced CD scheme (Section III-A)."""

    t_int: float
    t_io: float
    vdd: float

    @property
    def td(self) -> float:
        """Extra delay required on the falling edge of done: ``max(0, t_int − t_io)``."""
        return max(0.0, self.t_int - self.t_io)

    @property
    def t_done_fall(self) -> float:
        """Time of the 1→0 transition of done after inputs return to spacer."""
        return self.t_io + self.td


def _validity_nets(
    builder: LogicBuilder,
    outputs: Sequence[DualRailSignal],
    one_of_n_outputs: Sequence[OneOfNSignal],
) -> Tuple[List[str], int]:
    """Create one "this output is valid" net per output port.

    For an all-zero-spacer pair, validity is ``OR(p, n)``; for an
    all-one-spacer pair it is ``NAND(p, n)`` (one rail has dropped).  1-of-n
    ports are handled analogously over all of their rails.  Every detector
    output is active-high.
    """
    nets: List[str] = []
    cells = 0
    for sig in outputs:
        if sig.polarity is SpacerPolarity.ALL_ZERO:
            net = builder.or_(sig.pos, sig.neg)
        else:
            net = builder.nand(sig.pos, sig.neg)
        cells += 1
        nets.append(net)
    for sig in one_of_n_outputs:
        rails = list(sig.rails)
        if sig.polarity is SpacerPolarity.ALL_ZERO:
            net = builder.or_tree(rails) if len(rails) > 1 else rails[0]
        else:
            inverted = [builder.not_(r) for r in rails]
            cells += len(inverted)
            net = builder.or_tree(inverted) if len(inverted) > 1 else inverted[0]
        # or_tree adds ceil(n/arity)-ish cells; count them by diffing later.
        nets.append(net)
    return nets, cells


def add_completion_detection(
    circuit: DualRailCircuit,
    scheme: str = "reduced",
    done_name: str = "done",
    done_fall_delay: float = 0.0,
    library: Optional[CellLibrary] = None,
) -> CompletionInfo:
    """Add a completion-detection network to *circuit* (in place).

    Parameters
    ----------
    circuit:
        The dual-rail circuit to extend.  Its netlist gains a ``done``
        primary output and the CD cells; ``circuit.done_net`` is updated.
    scheme:
        ``"reduced"`` — validity detectors on the primary outputs + AND-tree
        aggregation (indicates spacer→valid only), the paper's proposal; or
        ``"full"`` — the conventional scheme: validity detectors on **every
        interface pair, primary inputs included**, combined through a
        C-element tree, indicating both spacer→valid and valid→spacer.
        Watching the inputs is what makes full CD pay cells proportional to
        the interface width — the overhead the reduced scheme eliminates.
    done_fall_delay:
        For the reduced scheme, the extra delay ``td`` (in ps) to build into
        the falling edge of done so the environment need not be adapted.
        The delay is realised as a buffer chain feeding an OR gate, which
        postpones only the 1→0 transition.  Requires *library* to size the
        chain.
    library:
        Needed only when ``done_fall_delay`` is non-zero.
    """
    if scheme not in ("reduced", "full"):
        raise ValueError(f"unknown completion scheme {scheme!r}")
    netlist = circuit.netlist
    builder = LogicBuilder(netlist.name, netlist=netlist, prefix="cd_")
    cells_before = netlist.cell_count()

    watched = list(circuit.outputs)
    if scheme == "full":
        # Conventional full CD acknowledges the whole interface: the input
        # pairs join the validity set, so done indicates that inputs *and*
        # outputs completed each phase.  (Input validity leads output
        # validity through the datapath, so done's edges are still
        # output-determined — the cost is structural: detectors and tree
        # stages proportional to the interface width.)
        watched = list(circuit.inputs) + watched
    validity, detector_cells = _validity_nets(builder, watched, circuit.one_of_n_outputs)
    detector_cells = netlist.cell_count() - cells_before

    cells_before_agg = netlist.cell_count()
    if len(validity) == 1:
        aggregated = validity[0]
    elif scheme == "reduced":
        aggregated = builder.and_tree(validity)
    else:
        aggregated = builder.c_tree(validity)
    aggregator_cells = netlist.cell_count() - cells_before_agg

    cells_before_delay = netlist.cell_count()
    done_driver = aggregated
    if scheme == "reduced" and done_fall_delay > 0.0:
        if library is None:
            raise ValueError("a cell library is required to size the done-fall delay chain")
        buf_delay = library.cell_delay("BUF", library.cell("BUF").input_cap)
        stages = max(1, math.ceil(done_fall_delay / buf_delay))
        delayed = aggregated
        for _ in range(stages):
            delayed = builder.buf(delayed)
        # OR keeps done high until the delayed copy has also fallen, delaying
        # only the falling edge; the rising edge still follows `aggregated`.
        done_driver = builder.or_(aggregated, delayed)
    delay_cells = netlist.cell_count() - cells_before_delay

    for cell_name in list(netlist.cells):
        cell = netlist.cells[cell_name]
        if cell_name.startswith("cd_") or cell.name.startswith("cd_"):
            cell.attrs.setdefault("role", "completion-detect")
    builder.output(done_name, done_driver)
    # Mark every cell added by this builder as CD overhead for area reports.
    for cell in netlist.iter_cells():
        out_nets = list(cell.outputs.values())
        if any(n.startswith("cd_") for n in out_nets) or any(
            n.startswith("cd_") for n in cell.inputs.values()
        ):
            cell.attrs.setdefault("role", "completion-detect")

    circuit.done_net = done_name
    info = CompletionInfo(
        done_net=done_name,
        scheme=scheme,
        detector_cells=detector_cells,
        aggregator_cells=aggregator_cells,
        delay_cells=delay_cells,
    )
    circuit.metadata["completion"] = info
    return info


def compute_grace_period(
    circuit: DualRailCircuit,
    library: CellLibrary,
    vdd: Optional[float] = None,
) -> GracePeriod:
    """Derive the reduced-CD timing assumption from static timing analysis.

    ``t_int`` is the worst-case arrival (false paths included) on any
    internal net; ``t_io`` the worst-case arrival on any primary-output rail.
    Both the forward (spacer→valid) and reset (valid→spacer) wavefronts
    traverse the same gates in a dual-rail circuit, so the same topological
    analysis bounds both.
    """
    from repro.sim.sta import static_timing_analysis

    return grace_period_from_report(
        circuit, static_timing_analysis(circuit.netlist, library, vdd=vdd)
    )


def grace_period_from_report(
    circuit: DualRailCircuit, report: "TimingReport"
) -> GracePeriod:
    """The grace period of :func:`compute_grace_period` from an existing STA.

    *report* must be the non-sequential analysis of ``circuit.netlist``
    (what :func:`~repro.synth.flow.synthesize` records for a dual-rail
    netlist), so a mapped design needs one timing analysis, not two.
    """
    output_rails = set(circuit.all_output_rails())
    if circuit.done_net is not None:
        output_rails.add(circuit.done_net)
    t_io = max((report.arrival.get(n, 0.0) for n in output_rails), default=0.0)
    internal = [n for n in circuit.netlist.nets if n not in output_rails]
    t_int = max((report.arrival.get(n, 0.0) for n in internal), default=0.0)
    return GracePeriod(t_int=t_int, t_io=t_io, vdd=report.vdd)


def completion_overhead_area(circuit: DualRailCircuit, library: CellLibrary) -> float:
    """Total area (µm²) of the cells added for completion detection."""
    total = 0.0
    for cell in circuit.netlist.iter_cells():
        if cell.attrs.get("role") == "completion-detect" and library.has_cell(cell.cell_type):
            total += library.cell(cell.cell_type).area
    return total
