"""Static timing analysis (STA) over mapped netlists.

The reduced completion-detection scheme of the paper rests on a timing
assumption derived from STA (Section III-A):

* ``t_int`` — the maximum possible valid→spacer (reset) time on **any**
  internal node, *including false paths*;
* ``t_io`` — the maximum valid→spacer time from the primary inputs to the
  primary outputs;
* the grace period that must elapse before new primary inputs may be applied
  is ``td = t_int − t_io``, and the done signal's falling edge happens at
  ``t_done(1→0) = t_io + td``.

Classic topological STA is exactly the right tool because it is oblivious to
logical sensitisation — every structural path is counted, which is the
"must include false paths" requirement.  The same machinery also provides
the clock period of the synchronous single-rail baseline (its critical
path plus sequencing overhead) and the maximum spacer→valid latency used to
bound the dual-rail worst case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.circuits.library import CellLibrary
from repro.circuits.netlist import Netlist

from .simulator import WIRE_CAP_PER_FANOUT_FF


@dataclass
class TimingReport:
    """Result of a topological STA pass.

    Attributes
    ----------
    arrival:
        Worst-case arrival time (ps) of every net, measured from the instant
        the primary inputs change.
    max_over_outputs:
        Maximum arrival over the primary outputs (``t_io`` in the paper's
        notation; also the combinational critical path of the baseline).
    max_over_internal:
        Maximum arrival over internal (non-PO) nets, false paths included
        (``t_int``).
    critical_path:
        Net names along the longest register-free path, input first.
    vdd:
        Supply voltage the delays were computed at.
    """

    arrival: Dict[str, float]
    max_over_outputs: float
    max_over_internal: float
    critical_path: List[str]
    vdd: float

    @property
    def critical_delay(self) -> float:
        """Longest path delay to any net (ps)."""
        return max(self.max_over_outputs, self.max_over_internal)


def output_load(netlist: Netlist, library: CellLibrary, net_name: str) -> float:
    """Estimated capacitive load on *net_name* in fF.

    Fanout input-pin capacitances plus the per-fanout wire estimate — the
    *same* load model :class:`~repro.sim.simulator.GateLevelSimulator` uses,
    so STA worst-case arrivals, event-driven switching times and the
    vectorized timing engine (:mod:`repro.sim.backends.timed`) all price a
    net's load identically.  This shared formula is what makes the
    "per-sample latency ≤ STA critical delay" property hold exactly.
    """
    net = netlist.nets[net_name]
    load = WIRE_CAP_PER_FANOUT_FF * max(1, net.fanout)
    for sink_name, _pin in net.sinks:
        sink = netlist.cells[sink_name]
        if library.has_cell(sink.cell_type):
            load += library.cell(sink.cell_type).input_cap
    return load


def cell_output_delay(
    netlist: Netlist,
    library: CellLibrary,
    cell_type: str,
    cell_name: str,
    out_net: str,
    vdd: float,
    delay_variation: Optional[Dict[str, float]] = None,
) -> float:
    """Switching delay (ps) of one cell instance driving *out_net* at *vdd*.

    The single source of per-instance delays shared by STA, the event-driven
    simulator's cache and the vectorized timing engine: library pin-to-output
    delay at the net's actual load, scaled by the voltage model and the
    optional per-instance variation factor.
    """
    load = output_load(netlist, library, out_net)
    delay = library.cell_delay(cell_type, load, vdd=vdd)
    if delay_variation:
        delay *= delay_variation.get(cell_name, 1.0)
    return delay


def static_timing_analysis(
    netlist: Netlist,
    library: CellLibrary,
    vdd: Optional[float] = None,
    delay_variation: Optional[Dict[str, float]] = None,
    break_at_sequential: bool = False,
) -> TimingReport:
    """Run topological worst-case STA on *netlist*.

    Parameters
    ----------
    netlist:
        The mapped design.
    library:
        Cell library supplying pin-to-pin delays.
    vdd:
        Supply voltage (defaults to the library nominal).
    delay_variation:
        Optional per-instance delay multipliers, as accepted by the
        simulator, so that STA and simulation stay consistent in
        variation experiments.
    break_at_sequential:
        When ``True``, sequential cells (flip-flops) are treated as path
        start/end points: their outputs restart at their clock-to-output
        delay.  Used for the synchronous baseline, where the clock period is
        set by the longest register-to-register / input-to-register path.
        C-elements in the dual-rail datapath are *not* broken — they are
        transparent during a S→V wavefront.
    """
    vdd = library.voltage_model.nominal_vdd if vdd is None else float(vdd)
    variation = dict(delay_variation or {})
    arrival: Dict[str, float] = {}
    predecessor: Dict[str, Optional[str]] = {}

    for pi in netlist.primary_inputs:
        arrival[pi] = 0.0
        predecessor[pi] = None

    for cell in netlist.topological_order():
        is_ff = cell.cell_type == "DFF"
        for pin, out_net in cell.outputs.items():
            delay = cell_output_delay(
                netlist, library, cell.cell_type, cell.name, out_net, vdd,
                delay_variation=variation,
            )
            if is_ff and break_at_sequential:
                # Clock-to-output delay with the real output load: the path
                # restarts here, but the launch delay must match what the
                # event-driven simulator will actually apply.
                candidate = delay
                best_input = None
            else:
                best_input = None
                best_arrival = 0.0
                for in_pin, in_net in cell.inputs.items():
                    if is_ff and in_pin == "CK":
                        continue
                    t = arrival.get(in_net, 0.0)
                    if best_input is None or t > best_arrival:
                        best_input, best_arrival = in_net, t
                candidate = best_arrival + delay
            if candidate > arrival.get(out_net, float("-inf")):
                arrival[out_net] = candidate
                predecessor[out_net] = best_input

    for net in netlist.nets:
        arrival.setdefault(net, 0.0)
        predecessor.setdefault(net, None)

    outputs = [n for n in netlist.primary_outputs]
    internal = netlist.internal_nets()
    max_out = max((arrival[n] for n in outputs), default=0.0)
    max_int = max((arrival[n] for n in internal), default=0.0)

    # Trace the critical path back from the latest net anywhere in the design.
    all_nets = list(arrival)
    end_net = max(all_nets, key=lambda n: arrival[n]) if all_nets else None
    path: List[str] = []
    cursor = end_net
    seen = set()
    while cursor is not None and cursor not in seen:
        seen.add(cursor)
        path.append(cursor)
        cursor = predecessor.get(cursor)
    path.reverse()

    return TimingReport(
        arrival=arrival,
        max_over_outputs=max_out,
        max_over_internal=max_int,
        critical_path=path,
        vdd=vdd,
    )


def clock_period_from_critical(
    critical_delay: float,
    setup_margin: float = 0.10,
    clock_uncertainty: float = 60.0,
) -> float:
    """Clock period (ps) of a synchronous design whose critical path is *critical_delay*.

    The critical path plus the flip-flop setup time approximation and a
    fixed clock-uncertainty margin.  ``setup_margin`` is expressed as a
    fraction of the critical path (a simple but adequate stand-in for
    per-cell setup data).  The uncertainty does not scale with the supply,
    so a period at another supply comes from the critical delay there, not
    from scaling a period.
    """
    return critical_delay * (1.0 + setup_margin) + clock_uncertainty


def register_to_register_period(
    netlist: Netlist,
    library: CellLibrary,
    vdd: Optional[float] = None,
    setup_margin: float = 0.10,
    clock_uncertainty: float = 60.0,
) -> float:
    """Minimum clock period (ps) of a synchronous netlist.

    The period is the worst launch-to-capture path (input or register output
    through combinational logic to a register input or primary output),
    margined by :func:`clock_period_from_critical`.
    """
    report = static_timing_analysis(
        netlist, library, vdd=vdd, break_at_sequential=True
    )
    return clock_period_from_critical(
        report.critical_delay, setup_margin, clock_uncertainty
    )


def arrival_of_nets(report: TimingReport, nets: Iterable[str]) -> float:
    """Maximum arrival time over *nets* (0.0 for unknown nets)."""
    return max((report.arrival.get(n, 0.0) for n in nets), default=0.0)
