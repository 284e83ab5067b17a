"""Edge-case and contract tests for the bit-packed 64-lane backend.

The batch backend is the reference here (it is itself pinned to the event
simulator gate for gate): the bitpack backend must agree with it net for
net and transition for transition at every awkward sample count — below,
at, and just past the 64-lane word boundary — including the masked ragged
tail, all-spacer inputs, X propagation, and ``jobs=1`` vs ``jobs=N``
bit-identity through :func:`repro.analysis.runner.run_parallel`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import random_workload, run_parallel, workload_input_planes
from repro.analysis.measure import spacer_assignments
from repro.circuits.netlist import Netlist
from repro.datapath.datapath import DualRailDatapath
from repro.sim import compile_program
from repro.sim.backends import BackendError, BatchBackend, BitpackBackend
from repro.sim.backends.bitpack import unpack_bits, words_for


def _workload_setup(num_operands, seed=17, num_features=3, clauses_per_polarity=4):
    workload = random_workload(
        num_features=num_features,
        clauses_per_polarity=clauses_per_polarity,
        num_operands=num_operands,
        seed=seed,
    )
    datapath = DualRailDatapath(workload.config)
    planes = workload_input_planes(datapath.circuit, datapath, workload)
    return workload, datapath, planes


# ----------------------------------------------------------------- packing


def _packed_wire(bits):
    """The packed planes of *bits* after the pack stage (input wired to output)."""
    net = Netlist("wire")
    net.add_input("a")
    net.add_output("a")
    result = BitpackBackend(program=compile_program(net)).run_arrays({"a": bits})
    return result.packed["a"]


def _set_bits(words):
    return int(np.unpackbits(words.view(np.uint8)).sum())


@pytest.mark.parametrize("samples", [0, 1, 63, 64, 65, 130, 1000])
def test_pack_unpack_roundtrip(samples):
    """The pack stage lays lanes out LSB-first; unpack_bits inverts it."""
    rng = np.random.default_rng(samples)
    bits = (rng.random(samples) < 0.5).astype(np.uint8)
    ones, zeros = _packed_wire(bits)
    assert ones.dtype == np.uint64
    assert len(ones) == words_for(samples)
    assert np.array_equal(unpack_bits(ones, samples), bits)
    assert np.array_equal(unpack_bits(zeros, samples), 1 - bits)
    assert _set_bits(ones) == int(bits.sum())


def test_pack_tail_lanes_stay_clear():
    """Lanes past the sample count never acquire bits (the masked tail)."""
    ones, zeros = _packed_wire(np.ones(65, dtype=np.uint8))
    assert _set_bits(ones) == 65  # not 128: tail lanes of word 1 are clear
    assert _set_bits(zeros) == 0
    full = np.unpackbits(ones.view(np.uint8), bitorder="little")
    assert not full[65:].any()


# ------------------------------------------------- gate-for-gate vs batch


@pytest.mark.parametrize("samples", [1, 63, 64, 65, 1000])
def test_matches_batch_gate_for_gate_at_word_boundaries(umc, samples):
    """Every net plane and every activity count agrees with the batch backend."""
    workload, datapath, planes = _workload_setup(samples)
    spacer = spacer_assignments(datapath.circuit)
    netlist = datapath.circuit.netlist
    batch = BatchBackend(netlist, umc).run_arrays(planes, baseline=spacer)
    packed = BitpackBackend(netlist, umc).run_arrays(planes, baseline=spacer)
    assert packed.samples == batch.samples == samples
    for net in netlist.nets:
        assert np.array_equal(packed.values[net], batch.values[net]), net
    assert packed.activity_by_cell == batch.activity_by_cell
    assert packed.activity_by_cell_type == batch.activity_by_cell_type


def test_masked_tail_does_not_leak_into_activity(umc):
    """65 samples count exactly 65 lanes of activity, not 128.

    The toggle count of a stream must be invariant to how much word padding
    the final word carries: evaluating the same 65 operands as one ragged
    batch or as 65 single-sample batches gives identical totals.
    """
    workload, datapath, planes = _workload_setup(65, seed=29)
    spacer = spacer_assignments(datapath.circuit)
    backend = BitpackBackend(datapath.circuit.netlist, umc)
    whole = backend.run_arrays(planes, baseline=spacer)
    summed: dict = {}
    for k in range(65):
        single = backend.run_arrays(
            {net: plane[k: k + 1] for net, plane in planes.items()}, baseline=spacer
        )
        for cell, transitions in single.activity_by_cell.items():
            summed[cell] = summed.get(cell, 0) + transitions
    assert whole.activity_by_cell == summed


def test_all_spacer_inputs_settle_to_spacer_with_zero_activity(umc):
    """The all-spacer word settles every output to spacer and toggles nothing."""
    workload, datapath, _ = _workload_setup(4, seed=31)
    circuit = datapath.circuit
    spacer = spacer_assignments(circuit)
    backend = BitpackBackend(circuit.netlist, umc)
    result = backend.run_arrays(spacer, baseline=spacer)
    assert result.activity_by_cell == {}
    assert result.activity_by_cell_type == {}
    for sig in circuit.one_of_n_outputs:
        for rail in sig.rails:
            assert result.value_of(rail, 0) == sig.polarity.spacer_rail_value


def test_unassigned_inputs_propagate_unknown(umc):
    """An undriven primary input behaves like the event simulator's X."""
    from repro.circuits import Netlist

    net = Netlist("x")
    net.add_input("a")
    net.add_input("b")
    net.add_cell("AND2", {"A": "a", "B": "b"}, {"Y": "y"}, name="g")
    net.add_output("y")
    backend = BitpackBackend(net, None)
    result = backend.run_arrays({"a": np.array([0, 1])})
    assert result.value_of("y", 0) == 0  # 0 AND X = 0 (controlling value)
    assert result.value_of("y", 1) is None  # 1 AND X = X
    assert list(result.values["y"]) == [0, 2]


def test_rejects_clocked_and_cyclic_netlists(umc):
    from repro.circuits import Netlist

    clocked = Netlist("clocked")
    clocked.add_input("d")
    clocked.add_input("ck")
    clocked.add_cell("DFF", {"D": "d", "CK": "ck"}, {"Q": "q"}, name="ff")
    with pytest.raises(BackendError, match="DFF"):
        BitpackBackend(clocked, umc)

    loop = Netlist("loop")
    loop.add_input("a")
    loop.add_cell("OR2", {"A": "a", "B": "fb"}, {"Y": "n1"}, name="g0")
    loop.add_cell("INV", {"A": "n1"}, {"Y": "fb"}, name="g1")
    with pytest.raises(BackendError, match="levelizable"):
        BitpackBackend(loop, umc)


def test_scalar_broadcast_and_input_validation(umc):
    from repro.circuits import Netlist

    net = Netlist("and")
    net.add_input("a")
    net.add_input("b")
    net.add_cell("AND2", {"A": "a", "B": "b"}, {"Y": "y"}, name="g")
    net.add_output("y")
    backend = BitpackBackend(net, umc)
    result = backend.run_arrays({"a": np.array([0, 1, 1, 0]), "b": 1})
    assert list(result.values["y"]) == [0, 1, 1, 0]
    with pytest.raises(BackendError, match="inconsistent batch"):
        backend.run_arrays({"a": np.array([0, 1]), "b": np.array([1, 0, 1])})
    with pytest.raises(BackendError, match="non-Boolean"):
        backend.run_arrays({"a": np.array([0, 2])})


def test_run_batch_protocol_interface(umc):
    """run_batch boxes per-sample outputs/net_values like the batch backend."""
    from repro.core.dual_rail import encode_bit

    workload, datapath, _ = _workload_setup(5, seed=41)
    circuit = datapath.circuit
    batch = []
    for features in workload.feature_vectors:
        operand = datapath.operand_assignments(features, workload.exclude)
        assignments = {}
        for sig in circuit.inputs:
            pos, neg = encode_bit(operand[sig.name])
            assignments[sig.pos] = pos
            assignments[sig.neg] = neg
        batch.append(assignments)
    reference = BatchBackend(circuit.netlist, umc).run_batch(
        batch, baseline=spacer_assignments(circuit)
    )
    result = BitpackBackend(circuit.netlist, umc).run_batch(
        batch, baseline=spacer_assignments(circuit)
    )
    assert result.samples == 5
    assert result.outputs == reference.outputs
    assert result.net_values == reference.net_values
    assert result.activity_by_cell == reference.activity_by_cell
    assert result.transitions == reference.transitions


# ----------------------------------------------------- parallel determinism


def _chunk_worker(item):
    """Evaluate one feature chunk through the bitpack backend (pool-safe)."""
    num_features, clauses_per_polarity, seed, chunk, exclude = item
    workload = random_workload(
        num_features=num_features,
        clauses_per_polarity=clauses_per_polarity,
        num_operands=1,
        seed=seed,
    )
    datapath = DualRailDatapath(workload.config)
    import dataclasses

    sub = dataclasses.replace(workload, feature_vectors=chunk, exclude=exclude)
    planes = workload_input_planes(datapath.circuit, datapath, sub)
    backend = BitpackBackend(datapath.circuit.netlist, None)
    result = backend.run_arrays(planes, baseline=spacer_assignments(datapath.circuit))
    verdict = datapath.circuit.one_of_n_outputs[0]
    rails = sorted(verdict.rails)
    return (
        {rail: result.values[rail].tolist() for rail in rails},
        dict(sorted(result.activity_by_cell_type.items())),
    )


@pytest.mark.parametrize("jobs", [1, 3])
def test_jobs_invariance_through_run_parallel(jobs):
    """jobs=1 and jobs=N produce bit-identical chunk results.

    (Compared against a fixed serial reference, so the two parametrized
    runs must both match it — hence each other.)
    """
    workload = random_workload(
        num_features=3, clauses_per_polarity=4, num_operands=24, seed=53
    )
    chunks = [workload.feature_vectors[k: k + 8] for k in range(0, 24, 8)]
    items = [(3, 4, 53, chunk, workload.exclude) for chunk in chunks]
    reference = [_chunk_worker(item) for item in items]
    parallel = run_parallel(_chunk_worker, items, jobs=jobs)
    assert parallel == reference
