"""Contract tests for the compiled-IR artifact (:mod:`repro.sim.program`).

The load-bearing properties: ``compile_program`` is the one compile entry
point every vectorized backend executes; the artifact is backend-neutral,
serializes exactly (JSON and pickle), and a backend built from a program is
bit-identical to one built from the netlist it came from.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.analysis import random_workload
from repro.circuits.library import library_fingerprint
from repro.datapath.datapath import DualRailDatapath
from repro.sim.backends import BackendError, get_backend
from repro.sim.program import (
    PROGRAM_COMPILER_VERSION,
    CompiledProgram,
    NetTable,
    compile_program,
    netlist_fingerprint,
    resolve_vdd,
)


@pytest.fixture(scope="module")
def workload():
    return random_workload(
        num_features=3, clauses_per_polarity=4, num_operands=6, seed=23
    )


@pytest.fixture(scope="module")
def datapath(workload):
    return DualRailDatapath(workload.config)


def _planes(datapath, workload):
    """Per-rail uint8 input planes for the whole operand stream."""
    circuit = datapath.circuit
    per_operand = [
        datapath.operand_assignments(features, workload.exclude)
        for features in workload.feature_vectors
    ]
    planes = {}
    for sig in circuit.inputs:
        bits = np.asarray([int(op[sig.name]) for op in per_operand], dtype=np.uint8)
        planes[sig.pos] = bits
        planes[sig.neg] = (1 - bits).astype(np.uint8)
    return planes


def _spacer(circuit):
    spacer = {}
    for sig in circuit.inputs:
        value = sig.polarity.spacer_rail_value
        spacer[sig.pos] = value
        spacer[sig.neg] = value
    return spacer


def test_compile_program_structure(datapath, umc):
    netlist = datapath.circuit.netlist
    program = compile_program(netlist, umc)
    assert program.compiler_version == PROGRAM_COMPILER_VERSION
    assert program.netlist_hash == netlist_fingerprint(netlist)
    assert program.library_name == umc.name
    assert program.library_digest == library_fingerprint(umc)
    assert program.vdd == umc.voltage_model.nominal_vdd
    assert program.characterized
    assert program.num_levels > 0
    assert len(program.ops) > 0
    assert program.primary_inputs == tuple(netlist.primary_inputs)
    assert program.primary_outputs == tuple(netlist.primary_outputs)
    assert tuple(program.nets) == tuple(netlist.nets)
    # every op resolved its load/delay through the shared STA model
    assert all(op.delay_ps > 0.0 for op in program.ops)
    assert all(op.load_ff >= 0.0 for op in program.ops)
    # level order: an op's inputs are PIs, constants or earlier outputs
    produced = {net for net, _ in program.constants}
    produced.update(program.primary_inputs)
    for op in program.ops:
        assert set(op.in_nets) <= produced
        produced.add(op.out_net)


def test_compile_without_library_is_uncharacterized(datapath):
    program = compile_program(datapath.circuit.netlist)
    assert not program.characterized
    assert program.library_name is None
    assert program.library_digest is None
    assert program.vdd is None
    assert all(op.delay_ps == 0.0 for op in program.ops)
    assert all(op.energy_fj == 0.0 for op in program.ops)


def test_resolve_vdd_defaults(umc):
    assert resolve_vdd(None, None) is None
    assert resolve_vdd(umc, None) == umc.voltage_model.nominal_vdd
    assert resolve_vdd(umc, 0.7) == 0.7
    assert resolve_vdd(None, 0.9) == 0.9


def test_json_round_trip_is_exact(datapath, umc):
    program = compile_program(datapath.circuit.netlist, umc)
    clone = CompiledProgram.from_dict(program.to_dict())
    assert clone == program
    assert clone.program_hash == program.program_hash
    # floats survive the text form bit for bit
    assert [op.delay_ps for op in clone.ops] == [op.delay_ps for op in program.ops]
    assert [op.energy_fj for op in clone.ops] == [op.energy_fj for op in program.ops]


def test_pickle_round_trip(datapath, umc):
    program = compile_program(datapath.circuit.netlist, umc)
    clone = pickle.loads(pickle.dumps(program))
    assert clone == program
    assert isinstance(clone.net_names, NetTable)
    assert clone.nets[0] in clone.nets  # O(1) membership survives pickling


def test_netlist_fingerprint_is_stable_and_sensitive(workload, datapath):
    again = DualRailDatapath(workload.config)
    assert netlist_fingerprint(again.circuit.netlist) == netlist_fingerprint(
        datapath.circuit.netlist
    )
    other = random_workload(
        num_features=2, clauses_per_polarity=2, num_operands=2, seed=7
    )
    other_netlist = DualRailDatapath(other.config).circuit.netlist
    assert netlist_fingerprint(other_netlist) != netlist_fingerprint(
        datapath.circuit.netlist
    )


def test_get_backend_takes_exactly_one_of_netlist_and_program(datapath, umc):
    netlist = datapath.circuit.netlist
    program = compile_program(netlist, umc)
    with pytest.raises(BackendError, match="exactly one"):
        get_backend("batch")
    with pytest.raises(BackendError, match="exactly one"):
        get_backend("batch", netlist, umc, program=program)
    with pytest.raises(BackendError, match="event backend"):
        get_backend("event", program=program)


@pytest.mark.parametrize("name", ["batch", "bitpack"])
def test_program_built_backend_bit_identical(datapath, workload, umc, name):
    netlist = datapath.circuit.netlist
    program = compile_program(netlist, umc)
    seeded = get_backend(name, netlist, umc)
    from_program = get_backend(name, program=program)
    planes = _planes(datapath, workload)
    baseline = _spacer(datapath.circuit)
    a = seeded.run_arrays(planes, baseline=baseline)
    b = from_program.run_arrays(planes, baseline=baseline)
    for net in netlist.nets:
        assert np.array_equal(np.asarray(a.values[net]), np.asarray(b.values[net]))
    assert a.activity_by_cell == b.activity_by_cell


@pytest.mark.parametrize("name", ["batch", "bitpack"])
def test_program_built_timed_engine_bit_identical(datapath, workload, umc, name):
    netlist = datapath.circuit.netlist
    program = compile_program(netlist, umc)
    seeded = get_backend(name, netlist, umc)
    from_program = get_backend(name, program=program)
    planes = _planes(datapath, workload)
    spacer = _spacer(datapath.circuit)
    a = seeded.run_timed(planes, spacer)
    b = from_program.run_timed(planes, spacer)
    rails = datapath.circuit.all_output_rails()
    assert list(a.max_arrival(rails, "valid")) == list(b.max_arrival(rails, "valid"))
    assert list(a.energy_per_sample_fj) == list(b.energy_per_sample_fj)


def test_compile_program_emits_the_compile_span(datapath, umc):
    from repro.obs import trace

    with trace.capture() as captured:
        compile_program(datapath.circuit.netlist, umc)
    by_name = {r.name: r for r in captured.records}
    assert "backend.compile" in by_name
    span = by_name["backend.compile"]
    assert span.attrs["backend"] == "program"
    assert span.attrs["cells"] > 0
    assert span.attrs["characterized"] is True
