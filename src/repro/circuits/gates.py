"""Behavioural models of the standard-cell gates used by the datapaths.

Every cell type that can appear in a netlist has a :class:`GateSpec`
describing

* its pin names,
* its Boolean behaviour under three-valued logic (``0``, ``1`` and ``None``
  for unknown/``X``),
* whether it is *unate* (required inside dual-rail logic to guarantee
  monotonic switching, Requirement 2 of the paper),
* whether it is logically *inverting* (negative gate), which is what flips
  the spacer polarity of a dual-rail signal path, and
* whether it is *state holding* (the Muller C-element used as the dual-rail
  latch, and the D flip-flop used by the synchronous baseline), and
* its *dispatch shape*: a tag naming the Boolean function family
  (``"and"``, ``"aoi"``, ``"c"``, ...) plus, for the complex gates, the
  per-leg pin widths.  The vectorized simulation engines
  (:func:`repro.sim.backends.base.classify_cell_type`) and the Verilog
  primitive emitter (:mod:`repro.hdl.primitives`) both read the shape from
  here instead of parsing cell-type names.

Three-valued evaluation is pessimistic but exact for controlling values: an
AND gate with one input at ``0`` outputs ``0`` even if the other input is
unknown.  This is what allows the simulator to model *early propagation*
faithfully — a dual-rail OR-rail can become valid while its sibling inputs
are still at spacer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

LogicValue = Optional[int]  # 0, 1, or None for unknown (X)


def _and(values: Sequence[LogicValue]) -> LogicValue:
    """Three-valued AND: 0 dominates, all-1 gives 1, otherwise unknown."""
    if any(v == 0 for v in values):
        return 0
    if all(v == 1 for v in values):
        return 1
    return None


def _or(values: Sequence[LogicValue]) -> LogicValue:
    """Three-valued OR: 1 dominates, all-0 gives 0, otherwise unknown."""
    if any(v == 1 for v in values):
        return 1
    if all(v == 0 for v in values):
        return 0
    return None


def _not(value: LogicValue) -> LogicValue:
    """Three-valued NOT."""
    if value is None:
        return None
    return 1 - value


def _xor(values: Sequence[LogicValue]) -> LogicValue:
    """Three-valued XOR: unknown if any input is unknown."""
    if any(v is None for v in values):
        return None
    acc = 0
    for v in values:
        acc ^= int(v)
    return acc


def _maj3(values: Sequence[LogicValue]) -> LogicValue:
    """Three-valued 3-input majority with controlling-value optimisation."""
    ones = sum(1 for v in values if v == 1)
    zeros = sum(1 for v in values if v == 0)
    if ones >= 2:
        return 1
    if zeros >= 2:
        return 0
    return None


#: Complex-gate shapes by dispatch tag: ``(inner op is AND, output
#: inverted)``.  AOI is NOT(OR of ANDs), OAI is NOT(AND of ORs); AO and OA
#: are their non-inverting twins.
COMPLEX_GATE_SHAPES: Dict[str, Tuple[bool, bool]] = {
    "aoi": (True, True),
    "oai": (False, True),
    "ao": (True, False),
    "oa": (False, False),
}


@dataclass(frozen=True)
class GateSpec:
    """Static description of a library cell's behaviour.

    Attributes
    ----------
    name:
        Cell type name as used in netlists and libraries.
    input_pins / output_pins:
        Ordered pin names.
    unate:
        ``True`` when the cell is unate in every input (monotonic).  Dual-rail
        netlists must use unate cells only (paper Requirement 2).
    inverting:
        ``True`` for negative gates (INV, NAND, NOR, AOI, OAI).  Used by the
        spacer-polarity analysis: an odd number of inversions on a dual-rail
        path flips the spacer from all-zero to all-one.
    sequential:
        ``True`` for state-holding cells (C-elements, flip-flops).
    evaluate:
        ``evaluate(inputs, state) -> outputs`` where *inputs* maps pin name to
        :data:`LogicValue`, *state* is the previous output value for
        sequential cells (``None`` otherwise), and the result maps output pin
        name to :data:`LogicValue`.
    tag:
        Dispatch tag of the cell's function family: ``"inv" | "buf" |
        "and" | "nand" | "or" | "nor" | "xor" | "xnor" | "maj3" | "c" |
        "aoi" | "oai" | "ao" | "oa"``; ``None`` for cells outside that
        vocabulary (TIE constants, the D flip-flop).
    pin_groups:
        Width of each leg of a complex gate, in pin order (AOI21 has
        ``(2, 1)``: legs ``A1, A2`` and ``B``); ``None`` for every other
        tag.
    """

    name: str
    input_pins: Tuple[str, ...]
    output_pins: Tuple[str, ...]
    unate: bool
    inverting: bool
    sequential: bool
    evaluate: Callable[[Dict[str, LogicValue], LogicValue], Dict[str, LogicValue]]
    tag: Optional[str] = None
    pin_groups: Optional[Tuple[int, ...]] = None

    @property
    def num_inputs(self) -> int:
        return len(self.input_pins)


def _simple(name: str, pins: Sequence[str], func, unate: bool, inverting: bool,
            tag: str, pin_groups: Optional[Tuple[int, ...]] = None) -> GateSpec:
    """Build a combinational single-output :class:`GateSpec` from *func*."""

    pins = tuple(pins)

    def evaluate(inputs: Dict[str, LogicValue], state: LogicValue) -> Dict[str, LogicValue]:
        values = [inputs.get(p) for p in pins]
        return {"Y": func(values)}

    return GateSpec(
        name=name,
        input_pins=pins,
        output_pins=("Y",),
        unate=unate,
        inverting=inverting,
        sequential=False,
        evaluate=evaluate,
        tag=tag,
        pin_groups=pin_groups,
    )


def _input_names(n: int) -> List[str]:
    return [chr(ord("A") + i) for i in range(n)]


def _make_and(n: int) -> GateSpec:
    return _simple(f"AND{n}", _input_names(n), _and, unate=True, inverting=False, tag="and")


def _make_or(n: int) -> GateSpec:
    return _simple(f"OR{n}", _input_names(n), _or, unate=True, inverting=False, tag="or")


def _make_nand(n: int) -> GateSpec:
    return _simple(f"NAND{n}", _input_names(n), lambda v: _not(_and(v)), unate=True,
                   inverting=True, tag="nand")


def _make_nor(n: int) -> GateSpec:
    return _simple(f"NOR{n}", _input_names(n), lambda v: _not(_or(v)), unate=True,
                   inverting=True, tag="nor")


def _make_complex(tag: str, groups: Sequence[int]) -> GateSpec:
    """An AOI/OAI/AO/OA cell, e.g. ``("aoi", (2, 2))`` is AOI22.

    ``groups`` lists the width of each leg; a width of 1 is a direct input
    of the outer operator (AOI21 has groups ``(2, 1)``:
    Y = NOT((A1&A2) | B)).  The non-inverting AO/OA cells are what the
    paper's dual-rail half-adder sum rails map onto (two complex gates per
    half-adder, no spacer inversion).
    """
    inner_and, inverting = COMPLEX_GATE_SHAPES[tag]
    inner, outer = (_and, _or) if inner_and else (_or, _and)
    pins: List[str] = []
    for gi, width in enumerate(groups):
        letter = chr(ord("A") + gi)
        if width == 1:
            pins.append(letter)
        else:
            pins.extend(f"{letter}{k + 1}" for k in range(width))
    name = tag.upper() + "".join(str(w) for w in groups)

    def func(values: Sequence[LogicValue]) -> LogicValue:
        terms: List[LogicValue] = []
        idx = 0
        for width in groups:
            terms.append(inner(values[idx: idx + width]))
            idx += width
        out = outer(terms)
        return _not(out) if inverting else out

    return _simple(name, pins, func, unate=True, inverting=inverting, tag=tag,
                   pin_groups=tuple(groups))


def _make_c_element(n: int) -> GateSpec:
    """Muller C-element with *n* inputs.

    The output goes high only when all inputs are high, low only when all
    inputs are low, and otherwise holds its previous value.  The dual-rail
    datapath uses C-elements as its input latches (the paper counts their
    area as "sequential area" for the dual-rail design).
    """
    pins = tuple(_input_names(n))

    def evaluate(inputs: Dict[str, LogicValue], state: LogicValue) -> Dict[str, LogicValue]:
        values = [inputs.get(p) for p in pins]
        if all(v == 1 for v in values):
            return {"Y": 1}
        if all(v == 0 for v in values):
            return {"Y": 0}
        return {"Y": state}

    return GateSpec(
        name=f"C{n}",
        input_pins=pins,
        output_pins=("Y",),
        unate=True,
        inverting=False,
        sequential=True,
        evaluate=evaluate,
        tag="c",
    )


def _make_dff() -> GateSpec:
    """Positive-edge D flip-flop used by the synchronous single-rail baseline.

    The event-driven simulator treats flip-flops specially (it samples D on
    the rising edge of CK); the behavioural function here implements the
    level view used by combinational evaluation between edges (output holds
    state).
    """
    def evaluate(inputs: Dict[str, LogicValue], state: LogicValue) -> Dict[str, LogicValue]:
        return {"Q": state}

    return GateSpec(
        name="DFF",
        input_pins=("D", "CK"),
        output_pins=("Q",),
        unate=True,
        inverting=False,
        sequential=True,
        evaluate=evaluate,
    )


def _make_tie(value: int) -> GateSpec:
    def evaluate(inputs: Dict[str, LogicValue], state: LogicValue) -> Dict[str, LogicValue]:
        return {"Y": value}

    return GateSpec(
        name=f"TIE{value}",
        input_pins=(),
        output_pins=("Y",),
        unate=True,
        inverting=False,
        sequential=False,
        evaluate=evaluate,
    )


def _build_registry() -> Dict[str, GateSpec]:
    specs: List[GateSpec] = [
        _simple("INV", ["A"], lambda v: _not(v[0]), unate=True, inverting=True, tag="inv"),
        _simple("BUF", ["A"], lambda v: v[0], unate=True, inverting=False, tag="buf"),
        _make_tie(0),
        _make_tie(1),
        _make_dff(),
    ]
    for n in (2, 3, 4, 8):
        specs.append(_make_and(n))
        specs.append(_make_or(n))
    for n in (2, 3, 4):
        specs.append(_make_nand(n))
        specs.append(_make_nor(n))
    for tag, groups in (
        ("aoi", (2, 1)), ("aoi", (2, 2)), ("aoi", (3, 2)),
        ("oai", (2, 1)), ("oai", (2, 2)), ("oai", (3, 2)),
        ("ao", (2, 1)), ("ao", (2, 2)),
        ("oa", (2, 1)), ("oa", (2, 2)),
    ):
        specs.append(_make_complex(tag, groups))
    specs.append(_simple("MAJ3", _input_names(3), _maj3, unate=True, inverting=False,
                         tag="maj3"))
    # Non-unate cells: permitted only in the single-rail baseline library
    # (paper Section III excludes them from the dual-rail netlist).
    specs.append(_simple("XOR2", _input_names(2), _xor, unate=False, inverting=False,
                         tag="xor"))
    specs.append(_simple("XNOR2", _input_names(2), lambda v: _not(_xor(v)), unate=False,
                         inverting=True, tag="xnor"))
    for n in (2, 3):
        specs.append(_make_c_element(n))
    return {spec.name: spec for spec in specs}


#: Registry of every supported cell type, keyed by cell-type name.
GATE_REGISTRY: Dict[str, GateSpec] = _build_registry()


def gate_spec(cell_type: str) -> GateSpec:
    """Return the :class:`GateSpec` for *cell_type*.

    Raises
    ------
    KeyError
        If the cell type is not in :data:`GATE_REGISTRY`.
    """
    try:
        return GATE_REGISTRY[cell_type]
    except KeyError:
        raise KeyError(f"unknown cell type {cell_type!r}; known: {sorted(GATE_REGISTRY)}")


def is_unate(cell_type: str) -> bool:
    """``True`` when *cell_type* is a unate (monotonic) cell."""
    return gate_spec(cell_type).unate


def is_inverting(cell_type: str) -> bool:
    """``True`` when *cell_type* is a negative (inverting) gate."""
    return gate_spec(cell_type).inverting


def is_sequential(cell_type: str) -> bool:
    """``True`` when *cell_type* is a state-holding cell (C-element, DFF)."""
    return gate_spec(cell_type).sequential


def evaluate_gate(
    cell_type: str, inputs: Dict[str, LogicValue], state: LogicValue = None
) -> Dict[str, LogicValue]:
    """Evaluate a gate's behaviour.

    Convenience wrapper around ``gate_spec(cell_type).evaluate``.
    """
    return gate_spec(cell_type).evaluate(inputs, state)
