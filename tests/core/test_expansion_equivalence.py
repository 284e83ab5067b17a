"""Direct-mapping expansion: functional equivalence against single-rail circuits."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import LogicBuilder, Netlist, check_unate_only, umc_ll_library
from repro.circuits.gates import GATE_REGISTRY, gate_spec
from repro.core import ExpansionError, expand_to_dual_rail
from repro.sim.backends import BatchBackend
from tests.conftest import run_dual_rail_operands, simulate_combinational


def _expand_and_compare(builder: LogicBuilder, input_names, output_names, patterns,
                        negative_gates=True):
    """Check single-rail vs expanded dual-rail results for the given patterns."""
    library = umc_ll_library()
    dual = expand_to_dual_rail(builder.netlist, negative_gates=negative_gates)
    report = check_unate_only(dual.netlist)
    assert report.ok, report.errors
    operands = [dict(zip(input_names, pattern)) for pattern in patterns]
    dual_results = run_dual_rail_operands(dual, library, operands)
    for operand, dual_result in zip(operands, dual_results):
        single = simulate_combinational(builder.netlist, library, operand, output_names)
        for out in output_names:
            assert dual_result.outputs[out] == single[out], (operand, out)


def test_expand_simple_and_or_network():
    builder = LogicBuilder("net1")
    a, b, c = builder.inputs(["a", "b", "c"])
    builder.output("y", builder.and_(builder.or_(a, b), c))
    _expand_and_compare(builder, ["a", "b", "c"], ["y"],
                        itertools.product([0, 1], repeat=3))


def test_expand_nand_nor_inverter_network():
    builder = LogicBuilder("net2")
    a, b, c = builder.inputs(["a", "b", "c"])
    builder.output("y", builder.nor(builder.nand(a, b), builder.not_(c)))
    _expand_and_compare(builder, ["a", "b", "c"], ["y"],
                        itertools.product([0, 1], repeat=3))


def test_expand_xor_network_uses_unate_cells_only():
    builder = LogicBuilder("net3")
    a, b = builder.inputs(["a", "b"])
    builder.output("y", builder.xor(a, b))
    builder.output("z", builder.xnor(a, b))
    _expand_and_compare(builder, ["a", "b"], ["y", "z"],
                        itertools.product([0, 1], repeat=2))


def test_expand_complex_gates():
    builder = LogicBuilder("net4")
    a, b, c, d = builder.inputs(["a", "b", "c", "d"])
    builder.output("y", builder.aoi22(a, b, c, d))
    builder.output("z", builder.oai21(a, b, c))
    _expand_and_compare(builder, ["a", "b", "c", "d"], ["y", "z"],
                        itertools.product([0, 1], repeat=4))


def test_expand_positive_gate_option():
    builder = LogicBuilder("net5")
    a, b = builder.inputs(["a", "b"])
    builder.output("y", builder.and_(a, b))
    _expand_and_compare(builder, ["a", "b"], ["y"],
                        itertools.product([0, 1], repeat=2), negative_gates=False)


def test_expansion_rejects_sequential_cells():
    builder = LogicBuilder("seq")
    d, clk = builder.inputs(["d", "clk"])
    builder.output("q", builder.dff(d, clk))
    with pytest.raises(ExpansionError):
        expand_to_dual_rail(builder.netlist)


@settings(max_examples=15, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=1), min_size=4, max_size=4))
def test_expand_majority_gate_property(bits):
    builder = LogicBuilder("maj")
    a, b, c, d = builder.inputs(["a", "b", "c", "d"])
    builder.output("y", builder.or_(builder.maj3(a, b, c), d))
    library = umc_ll_library()
    dual = expand_to_dual_rail(builder.netlist)
    operand = dict(zip(["a", "b", "c", "d"], bits))
    dual_result = run_dual_rail_operands(dual, library, [operand])[0]
    expected = int((bits[0] + bits[1] + bits[2]) >= 2) | bits[3]
    assert dual_result.outputs["y"] == expected


#: Every registry cell the expansion accepts: all combinational dispatch tags.
COMBINATIONAL_CELLS = sorted(
    name for name, spec in GATE_REGISTRY.items()
    if spec.tag is not None and not spec.sequential
)


@pytest.mark.parametrize("negative_gates", [True, False])
def test_every_combinational_cell_expands_exactly(negative_gates):
    """One-cell netlists of every shape, every input vector, both gate styles.

    The expanded rails are evaluated on the batch reference interpreter and
    compared with the cell's own three-valued ``GateSpec.evaluate``.
    """
    assert len(COMBINATIONAL_CELLS) == 29
    for cell_type in COMBINATIONAL_CELLS:
        spec = gate_spec(cell_type)
        netlist = Netlist(f"one_{cell_type}")
        for pin in spec.input_pins:
            netlist.add_input(pin.lower())
        netlist.add_output("y")
        netlist.add_cell(cell_type, inputs={pin: pin.lower() for pin in spec.input_pins},
                         outputs={"Y": "y"}, name="u0")
        dual = expand_to_dual_rail(netlist, negative_gates=negative_gates)
        assert check_unate_only(dual.netlist).ok, cell_type
        vectors = np.array(list(itertools.product((0, 1), repeat=spec.num_inputs)),
                           dtype=np.uint8)
        planes = {}
        for column, pin in enumerate(spec.input_pins):
            rail = dual.input_by_name(pin.lower())
            planes[rail.pos] = vectors[:, column]
            planes[rail.neg] = 1 - vectors[:, column]
        values = BatchBackend(dual.netlist).run_arrays(planes).values
        expected = np.array([
            spec.evaluate(dict(zip(spec.input_pins, map(int, row))), None)["Y"]
            for row in vectors
        ], dtype=np.uint8)
        out = dual.output_by_name("y")
        np.testing.assert_array_equal(values[out.pos], expected, err_msg=cell_type)
        np.testing.assert_array_equal(values[out.neg], 1 - expected, err_msg=cell_type)
