"""Contract tests for :class:`repro.sim.backends.bitpack.BoundProgram`.

A bound program is the serving worker's per-word engine: its constant input
nets are fixed once and each call passes only the varying inputs as a
``(lanes, inputs)`` matrix.  Its value rows must equal what the engines it
replaced compute on the merged stimulus — ``BitpackBackend.run_arrays`` and
the ``BatchBackend`` reference interpreter — X included, at every lane
count around the 64-lane word.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.measure import resolve_library
from repro.circuits.netlist import Netlist
from repro.datapath.datapath import DatapathConfig, DualRailDatapath
from repro.sim import compile_program
from repro.sim.backends import BackendError, BatchBackend, BitpackBackend, BoundProgram

from test_differential_fuzz import FUZZ_SEEDS, _fuzz_case

#: Lane counts around the word boundary (one lane, word-1, one word,
#: word+1, several ragged words).
LANES = (1, 63, 64, 65, 200)


def _served_model_circuit():
    """The paper-scale served model (4 features, 8 clauses per polarity)."""
    return DualRailDatapath(
        DatapathConfig(num_features=4, clauses_per_polarity=8)
    ).circuit


def _tie_netlist():
    """TIE cells feed gates; the program keeps them as constants, not ops."""
    netlist = Netlist("ties")
    for net in ("a", "b", "c", "d"):
        netlist.add_input(net)
    netlist.add_cell("TIE0", {}, {"Y": "lo"}, name="t0")
    netlist.add_cell("TIE1", {}, {"Y": "hi"}, name="t1")
    netlist.add_cell("AND2", {"A": "a", "B": "hi"}, {"Y": "y0"}, name="g0")
    netlist.add_cell("OR2", {"A": "b", "B": "lo"}, {"Y": "y1"}, name="g1")
    netlist.add_cell("AO22", {"A1": "c", "A2": "hi", "B1": "d", "B2": "lo"},
                     {"Y": "y2"}, name="g2")
    for net in ("y0", "y1", "y2", "hi", "lo"):
        netlist.add_output(net)
    return netlist


def _case(name):
    """``(rng, netlist, output nets, library)`` of a named test case."""
    if name == "served":
        circuit = _served_model_circuit()
        return (np.random.default_rng(2021), circuit.netlist,
                circuit.all_output_rails(), resolve_library(None))
    if name == "ties":
        netlist = _tie_netlist()
        return np.random.default_rng(7), netlist, netlist.primary_outputs, None
    rng, circuit, library = _fuzz_case(int(name.split("-")[1]))
    return rng, circuit.netlist, circuit.all_output_rails(), library


def _split_inputs(rng, netlist):
    """Random constants, varying inputs and unbound (X) nets over the inputs."""
    nets = list(netlist.primary_inputs)
    role = rng.integers(0, 3, size=len(nets))  # 0 constant, 1 input, 2 unbound
    constants = {
        net: int(rng.integers(0, 2)) for net, r in zip(nets, role) if r == 0
    }
    inputs = [net for net, r in zip(nets, role) if r == 1]
    return constants, inputs


@pytest.mark.parametrize(
    "case", [f"fuzz-{seed}" for seed in FUZZ_SEEDS] + ["served", "ties"]
)
def test_value_rows_match_both_engines_on_the_merged_stimulus(case):
    """Every output rail equals bitpack and the batch reference, X included."""
    rng, netlist, outputs, library = _case(case)
    program = compile_program(netlist, library)
    constants, inputs = _split_inputs(rng, netlist)
    bound = BoundProgram(program, constants, inputs, outputs)
    engines = (BitpackBackend(program=program), BatchBackend(program=program))
    unknown = 0
    for lanes in LANES:
        values = rng.integers(0, 2, size=(lanes, len(inputs)), dtype=np.uint8)
        rows = bound.run_arrays(values)
        assert rows.shape == (len(outputs), lanes) and rows.dtype == np.uint8
        stimulus = dict(constants)
        stimulus.update(zip(inputs, values.T))
        for engine in engines:
            result = engine.run_arrays(stimulus)
            expected = np.stack([result.values[net] for net in outputs])
            assert np.array_equal(rows, expected), f"{case}: {engine.name} at {lanes} lanes"
        unknown += int((rows == 2).sum())
    if case == "served":
        assert unknown > 0, "the unbound inputs never reached an output as X"


@pytest.fixture(scope="module")
def served_program():
    circuit = _served_model_circuit()
    return circuit, compile_program(circuit.netlist, resolve_library(None))


def test_unknown_nets_raise_key_error(served_program):
    circuit, program = served_program
    net = circuit.netlist.primary_inputs[0]
    rail = circuit.all_output_rails()[0]
    with pytest.raises(KeyError, match="constant net 'no_such_net' does not exist"):
        BoundProgram(program, {"no_such_net": 1}, [net], [rail])
    with pytest.raises(KeyError, match="input net 'no_such_net' does not exist"):
        BoundProgram(program, {}, ["no_such_net"], [rail])
    with pytest.raises(KeyError, match="output net 'no_such_net' does not exist"):
        BoundProgram(program, {}, [net], ["no_such_net"])


def test_non_boolean_constant_raises(served_program):
    circuit, program = served_program
    net = circuit.netlist.primary_inputs[0]
    with pytest.raises(BackendError, match="must be Boolean"):
        BoundProgram(program, {net: 2}, [], circuit.all_output_rails())


def test_input_overlapping_a_constant_raises(served_program):
    circuit, program = served_program
    first, second = circuit.netlist.primary_inputs[:2]
    with pytest.raises(BackendError, match="overlap bound constants"):
        BoundProgram(program, {first: 1}, [first, second], circuit.all_output_rails())
