"""Direct mapping of single-rail netlists into dual-rail netlists.

The paper derives its dual-rail circuits "by performing direct mapping of a
single-rail circuit, and along with negative gate optimization" (Section
IV-A, following Sokolov's direct-mapping methodology).  This module
implements that flow generically: given any single-rail combinational
netlist built from the supported cell types, :func:`expand_to_dual_rail`
produces the equivalent dual-rail netlist, tracking spacer polarity through
every gate and inserting spacer inverters automatically wherever
reconvergent paths would otherwise disagree.

The expansion rules (for inputs of matching polarity):

=============  =======================================================
single-rail    dual-rail implementation
=============  =======================================================
``INV``        rail swap (no cells)
``BUF``        pass-through (no cells)
``AND``/``OR`` negative-gate pair (NOR+NAND / NAND+NOR) or positive
               pair (AND+OR / OR+AND), per the *negative_gates* option
``NAND``       AND expansion followed by a rail swap
``NOR``        OR expansion followed by a rail swap
``AOI``/``OAI``  corresponding AND/OR network, then rail swap
``XOR``        two AO22/AOI22 complex gates (each rail is a unate cell)
``XNOR``       XOR expansion followed by a rail swap
=============  =======================================================

The headline datapaths in :mod:`repro.datapath` are built directly at the
dual-rail level (mirroring the paper's hand-crafted Figure 2); the expansion
is used for the generic-methodology experiments, for equivalence checking
against the hand-built circuits, and for the completion-detection ablation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.circuits.gates import COMPLEX_GATE_SHAPES, gate_spec
from repro.circuits.netlist import Netlist

from .dual_rail import DualRailBuilder, DualRailCircuit, DualRailSignal, SpacerPolarity


class ExpansionError(Exception):
    """Raised when a single-rail construct has no dual-rail mapping."""


def _align(builder: DualRailBuilder, signals: Sequence[DualRailSignal]) -> List[DualRailSignal]:
    """Bring *signals* to a common spacer polarity (majority wins)."""
    zeros = sum(1 for s in signals if s.polarity is SpacerPolarity.ALL_ZERO)
    ones = len(signals) - zeros
    target = SpacerPolarity.ALL_ZERO if zeros >= ones else SpacerPolarity.ALL_ONE
    return [builder.align_polarity(s, target) for s in signals]


def _reduce(builder: DualRailBuilder, op, signals: Sequence[DualRailSignal]) -> DualRailSignal:
    """Left-to-right reduction with polarity alignment before each step."""
    result = signals[0]
    for nxt in signals[1:]:
        a, b = _align(builder, [result, nxt])
        result = op(a, b)
    return result


def expand_to_dual_rail(
    netlist: Netlist,
    negative_gates: bool = True,
    input_polarity: SpacerPolarity = SpacerPolarity.ALL_ZERO,
    name: Optional[str] = None,
) -> DualRailCircuit:
    """Expand a single-rail combinational *netlist* into a dual-rail circuit.

    Parameters
    ----------
    netlist:
        Single-rail design.  Sequential cells (DFF) are rejected — the
        dual-rail datapath replaces registers with C-element latches, which
        is a architectural decision the caller makes explicitly.
    negative_gates:
        Use the area-saving negative-gate mapping (default, as in the paper).
    input_polarity:
        Spacer polarity presented at the expanded primary inputs.
    name:
        Name of the produced netlist (defaults to ``<original>_dual_rail``).
    """
    builder = DualRailBuilder(
        name or f"{netlist.name}_dual_rail", negative_gates=negative_gates
    )
    signals: Dict[str, DualRailSignal] = {}

    for pi in netlist.primary_inputs:
        signals[pi] = builder.input_bit(pi, polarity=input_polarity)

    for cell in netlist.topological_order():
        ctype = cell.cell_type
        spec = gate_spec(ctype)
        if spec.sequential:
            raise ExpansionError(
                f"cell {cell.name!r} ({ctype}) is sequential; direct mapping only "
                "expands combinational logic"
            )
        out_net = next(iter(cell.outputs.values()))
        ins = [signals[n] for n in cell.inputs.values() if n in signals]
        if len(ins) != len(cell.inputs):
            missing = [n for n in cell.inputs.values() if n not in signals]
            raise ExpansionError(
                f"cell {cell.name!r} reads nets with no dual-rail expansion: {missing}"
            )

        tag = spec.tag
        if ctype in ("TIE0", "TIE1"):
            signals[out_net] = builder.constant(1 if ctype == "TIE1" else 0, input_polarity)
            continue
        if tag in ("inv", "buf"):
            value = ins[0]
        elif tag in ("and", "nand"):
            value = _reduce(builder, builder.and_, ins)
        elif tag in ("or", "nor"):
            value = _reduce(builder, builder.or_, ins)
        elif tag in ("xor", "xnor"):
            value = builder.xor(*_align(builder, ins), name=out_net)
        elif tag in COMPLEX_GATE_SHAPES:
            inner_and = COMPLEX_GATE_SHAPES[tag][0]
            inner, outer = (
                (builder.and_, builder.or_) if inner_and else (builder.or_, builder.and_)
            )
            value = _two_level_network(builder, ins, spec.pin_groups, inner, outer)
        elif tag == "maj3":
            a, b, c = ins
            ab = builder.and_(*_align(builder, [a, b]))
            ac = builder.and_(*_align(builder, [a, c]))
            bc = builder.and_(*_align(builder, [b, c]))
            value = _reduce(builder, builder.or_, [ab, ac, bc])
        else:
            raise ExpansionError(f"no dual-rail expansion rule for cell type {ctype!r}")
        if spec.inverting:
            value = builder.not_(value, name=out_net)
        elif tag == "buf":
            value = DualRailSignal(
                name=out_net, pos=value.pos, neg=value.neg, polarity=value.polarity
            )
        signals[out_net] = value

    circuit_outputs: List[str] = list(netlist.primary_outputs)
    for po in circuit_outputs:
        if po not in signals:
            if po in netlist.primary_inputs:
                signals[po] = signals[po]
            else:
                raise ExpansionError(f"primary output {po!r} was never driven during expansion")
        builder.output_bit(po, signals[po])

    circuit = builder.build(metadata={"expanded_from": netlist.name,
                                      "negative_gates": negative_gates})
    return circuit


def _two_level_network(builder: DualRailBuilder, ins: Sequence[DualRailSignal],
                       groups: Sequence[int], inner, outer) -> DualRailSignal:
    """Dual-rail *outer* over per-leg *inner* reductions (the AOI/OAI/AO/OA core).

    *groups* are the cell's ``GateSpec.pin_groups``: the width of each leg in
    pin order; a one-pin leg feeds the outer operator directly.
    """
    legs: List[DualRailSignal] = []
    idx = 0
    for width in groups:
        legs.append(_reduce(builder, inner, ins[idx: idx + width]))
        idx += width
    return _reduce(builder, outer, legs)
