"""Behavioral Verilog models for every cell in the gate registry.

The structural emitter (:mod:`repro.hdl.verilog`) instantiates library cells
by name (``NAND2``, ``AO22``, ``C2`` ...).  For the emitted design to be
simulatable or synthesizable, every instantiated cell type needs a Verilog
module definition.  This module generates those definitions directly from
:data:`repro.circuits.gates.GATE_REGISTRY`, so the behavioral models are
pin-compatible with — and semantically derived from — the same specs the
Python simulators use:

* combinational cells become a single ``assign`` of the obvious Boolean
  expression, built from the spec's dispatch tag and complex-gate pin
  groups — the same fields the vectorized simulation engines dispatch on;
* Muller C-elements become a level-sensitive hold process (drive only when
  all inputs agree — the standard behavioral C-element idiom);
* the D flip-flop becomes a positive-edge process;
* TIE cells become constant drivers.

The emission is deterministic: the same cell set always produces the same
bytes (cells are emitted in sorted name order), which the golden-file tests
rely on.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro.circuits.gates import COMPLEX_GATE_SHAPES, GATE_REGISTRY, GateSpec, gate_spec
from repro.circuits.netlist import Netlist

__all__ = [
    "primitive_module",
    "emit_primitives",
    "primitives_for_netlist",
]


def _join(op: str, terms: Sequence[str]) -> str:
    return f" {op} ".join(terms)


#: Pin-joining operator and output inversion of the single-level tags.
_JOIN_OPS = {
    "and": ("&", False), "nand": ("&", True),
    "or": ("|", False), "nor": ("|", True),
    "xor": ("^", False), "xnor": ("^", True),
}


def _combinational_expr(spec: GateSpec) -> Optional[str]:
    """The right-hand side of ``assign Y = ...`` for a combinational cell."""
    pins = list(spec.input_pins)
    tag = spec.tag
    if not pins:  # TIE0 / TIE1: the constant the cell drives
        return f"1'b{spec.evaluate({}, None)[spec.output_pins[0]]}"
    if tag == "inv":
        return f"~{pins[0]}"
    if tag == "buf":
        return pins[0]
    if tag == "maj3":
        a, b, c = pins
        return f"({a} & {b}) | ({a} & {c}) | ({b} & {c})"
    if tag in _JOIN_OPS:
        op, invert = _JOIN_OPS[tag]
        expr = _join(op, pins)
    elif tag in COMPLEX_GATE_SHAPES:
        inner_and, invert = COMPLEX_GATE_SHAPES[tag]
        inner, outer = ("&", "|") if inner_and else ("|", "&")
        terms: List[str] = []
        idx = 0
        for width in spec.pin_groups:
            leg = pins[idx: idx + width]
            terms.append(leg[0] if width == 1 else f"({_join(inner, leg)})")
            idx += width
        expr = _join(outer, terms)
    else:
        return None
    return f"~({expr})" if invert else expr


def primitive_module(cell_type: str) -> str:
    """Return the behavioral Verilog module definition for *cell_type*.

    Raises
    ------
    KeyError
        If the cell type is not in the gate registry.
    ValueError
        If no behavioral model can be derived (should not happen for
        registry cells; guards against future additions going unmodelled).
    """
    spec = gate_spec(cell_type)
    out = spec.output_pins[0]
    if spec.sequential and spec.tag is None:  # the D flip-flop
        return (
            f"module {cell_type} (input D, input CK, output reg {out});\n"
            f"  initial {out} = 1'bx;\n"
            f"  always @(posedge CK) {out} <= D;\n"
            f"endmodule\n"
        )
    if spec.tag == "c":
        pins = list(spec.input_pins)
        ports = ", ".join(f"input {p}" for p in pins)
        all_high = _join("&", pins)
        all_low = _join("|", pins)
        return (
            f"module {cell_type} ({ports}, output reg {out});\n"
            f"  // Muller C-element: drive only when all inputs agree, else hold.\n"
            f"  initial {out} = 1'bx;\n"
            f"  always @* begin\n"
            f"    if ({all_high}) {out} = 1'b1;\n"
            f"    else if (~({all_low})) {out} = 1'b0;\n"
            f"  end\n"
            f"endmodule\n"
        )
    expr = _combinational_expr(spec)
    if expr is None:
        raise ValueError(f"no behavioral Verilog model for cell type {cell_type!r}")
    ports = ", ".join(f"input {p}" for p in spec.input_pins)
    ports = f"{ports}, output {out}" if ports else f"output {out}"
    return (
        f"module {cell_type} ({ports});\n"
        f"  assign {out} = {expr};\n"
        f"endmodule\n"
    )


def emit_primitives(cell_types: Optional[Iterable[str]] = None) -> str:
    """Emit behavioral models for *cell_types* (default: the whole registry).

    Cell types are de-duplicated and emitted in sorted order, so the output
    is byte-stable for a given cell set.
    """
    if cell_types is None:
        cell_types = GATE_REGISTRY.keys()
    wanted = sorted(set(cell_types))
    header = (
        "// Behavioral primitive models emitted by repro.hdl.primitives.\n"
        "// Pin-compatible with the structural netlist emitted alongside.\n"
        "`timescale 1ns/1ps\n"
    )
    return header + "\n" + "\n".join(primitive_module(ct) for ct in wanted)


def primitives_for_netlist(netlist: Netlist) -> str:
    """Emit behavioral models for exactly the cell types *netlist* uses."""
    return emit_primitives(sorted({cell.cell_type for cell in netlist.iter_cells()}))
