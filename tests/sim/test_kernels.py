"""Unit tests for the grouped-kernel engine (:mod:`repro.sim.kernels`).

The differential fuzz suite proves bit-identity on real datapath netlists;
this file covers what those netlists never reach: every combinational cell
type under every 0/1/X input combination in one mixed level (MAJ3,
XOR2/XNOR2, the AOI/OAI/AO/OA complex gates and the reduce steps' padding
rows), the error surfaces, the bulk stimulus pack's edge inputs, the
rest-state memo key, and when the plan and the kernel are built.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.measure import (
    build_mapped_dual_rail,
    random_workload,
    spacer_assignments,
    workload_input_planes,
)
from repro.circuits.gates import GATE_REGISTRY
from repro.circuits.netlist import Netlist
from repro.sim import compile_program, kernels
from repro.sim.backends import BackendError
from repro.sim.backends.batch import BatchBackend
from repro.sim.backends.bitpack import BitpackBackend, BoundProgram
from repro.sim.kernels import baseline_memo_key, build_grouped_plan, bulk_stimulus_matrix

#: Ternary sources of the every-shape netlist (AND8/OR8 read all of them).
TERNARY_SOURCES = 8

#: Input pair per ternary digit: a C2 of the pair settles 0, 1 or X.
TERNARY_PAIRS = np.array([[0, 0], [1, 1], [0, 1]], dtype=np.uint8)


def _all_tags_netlist() -> Netlist:
    """One cell of every dispatch tag, plus a second level off the AND."""
    net = Netlist("all-tags")
    for name in ("a", "b", "c"):
        net.add_input(name)
    net.add_cell("INV", {"A": "a"}, {"Y": "n_inv"}, name="g_inv")
    net.add_cell("BUF", {"A": "b"}, {"Y": "n_buf"}, name="g_buf")
    net.add_cell("AND2", {"A": "a", "B": "b"}, {"Y": "n_and"}, name="g_and")
    net.add_cell("NAND3", {"A": "a", "B": "b", "C": "c"}, {"Y": "n_nand"}, name="g_nand")
    net.add_cell("OR2", {"A": "a", "B": "c"}, {"Y": "n_or"}, name="g_or")
    net.add_cell("NOR2", {"A": "b", "B": "c"}, {"Y": "n_nor"}, name="g_nor")
    net.add_cell("XOR2", {"A": "a", "B": "b"}, {"Y": "n_xor"}, name="g_xor")
    net.add_cell("XNOR2", {"A": "a", "B": "c"}, {"Y": "n_xnor"}, name="g_xnor")
    net.add_cell("MAJ3", {"A": "a", "B": "b", "C": "c"}, {"Y": "n_maj"}, name="g_maj")
    net.add_cell("C2", {"A": "a", "B": "b"}, {"Y": "n_c"}, name="g_c")
    net.add_cell(
        "AOI21", {"A1": "a", "A2": "b", "B": "c"}, {"Y": "n_aoi"}, name="g_aoi"
    )
    net.add_cell(
        "OAI21", {"A1": "a", "A2": "c", "B": "b"}, {"Y": "n_oai"}, name="g_oai"
    )
    net.add_cell(
        "AO22", {"A1": "a", "A2": "b", "B1": "b", "B2": "c"}, {"Y": "n_ao"},
        name="g_ao",
    )
    net.add_cell(
        "OA22", {"A1": "a", "A2": "b", "B1": "a", "B2": "c"}, {"Y": "n_oa"},
        name="g_oa",
    )
    # A second level, so the per-level sweep runs more than once.
    net.add_cell("INV", {"A": "n_and"}, {"Y": "n_and_n"}, name="g_inv2")
    for name in net.nets:
        if name not in ("a", "b", "c"):
            net.add_output(name)
    return net


@pytest.fixture(scope="module")
def all_tags_program():
    return compile_program(_all_tags_netlist())


@pytest.mark.parametrize("samples", [5, 130])
def test_every_dispatch_tag_matches_looped(all_tags_program, samples):
    """The grouped bitpack engine agrees with the looped batch reference.

    Covers every cell shape at one partial word (5 samples) and across a
    ragged word boundary (130 samples).
    """
    program = all_tags_program
    rng = np.random.default_rng(7)
    stimulus = {
        "a": rng.integers(0, 2, size=samples, dtype=np.uint8),
        "b": rng.integers(0, 2, size=samples, dtype=np.uint8),
        # "c" left unassigned: X pushes through the non-unate and complex
        # evaluators' known-masks, not just the Boolean fast paths.
    }
    baseline = {"a": 0, "b": 0, "c": 0}
    looped = BatchBackend(program=program).run_arrays(stimulus, baseline=baseline)
    grouped = BitpackBackend(program=program).run_arrays(stimulus, baseline=baseline)
    for net in program.nets:
        assert np.array_equal(looped.values[net], grouped.values[net]), net
    assert grouped.activity_by_cell == looped.activity_by_cell
    assert grouped.activity_by_cell_type == looped.activity_by_cell_type
    # The plane view quacks like the dict the looped path returns.
    assert set(grouped.values) == set(looped.values)
    assert len(grouped.values) == len(looped.values)
    assert "n_maj" in grouped.values and "nope" not in grouped.values


def _every_shape_netlist() -> Netlist:
    """One cell of every combinational registry type over ternary sources.

    Source *s* is a C2 of the primary inputs ``p{s}a``/``p{s}b``, so it
    carries 0, 1 or X per lane; the cell of type *T* reads the first
    ``arity(T)`` sources, which puts every cell in the same level.
    """
    net = Netlist("every-shape")
    sources = []
    for s in range(TERNARY_SOURCES):
        pair = (f"p{s}a", f"p{s}b")
        for name in pair:
            net.add_input(name)
        net.add_cell("C2", dict(zip("AB", pair)), {"Y": f"s{s}"}, name=f"src{s}")
        sources.append(f"s{s}")
    for cell_type, spec in GATE_REGISTRY.items():
        if spec.tag is None:  # TIE constants and the flip-flop
            continue
        net.add_cell(cell_type, dict(zip(spec.input_pins, sources)),
                     {"Y": f"y_{cell_type}"}, name=f"g_{cell_type}")
        net.add_output(f"y_{cell_type}")
    return net


def _ternary_stimulus(digits: np.ndarray, inputs) -> np.ndarray:
    """``(lanes, inputs)`` 0/1 matrix whose C2 sources carry *digits* (2 = X)."""
    return TERNARY_PAIRS[digits].reshape(digits.shape[0], len(inputs))


def test_every_cell_shape_under_every_ternary_input():
    """All 3**8 source combinations through one cell of every type.

    The cells share one level mixing kinds and arities, so the reduce
    steps pad short entries; values, activity and bound-program rows must
    equal the batch reference interpreter lane for lane.
    """
    netlist = _every_shape_netlist()
    program = compile_program(netlist)
    kernel = kernels.FusedKernel(program)
    plan = kernel.plan
    inputs, outputs = list(netlist.primary_inputs), list(netlist.primary_outputs)
    level = plan.levels[1]
    assert sorted(row for group in level for row in group.out_idx.tolist()) == sorted(
        plan.net_index[net] for net in outputs
    )
    assert {group.tag for group in level} == {
        "inv", "buf", "and", "or", "nand", "nor", "aoi", "oai", "ao", "oa",
        "maj3", "xor", "xnor", "c",
    }
    assert {group.in_idx.shape[1] for group in level} == {1, 2, 3, 4, 5, 8}
    level_steps, _ = kernel._levels[1]
    padding = {int(row) for _, idx, _ in level_steps for row in np.unique(idx)}
    assert {kernel.one_row, kernel.zero_row} <= padding

    lanes = 3 ** TERNARY_SOURCES
    digits = (np.arange(lanes)[:, None] // 3 ** np.arange(TERNARY_SOURCES)) % 3
    values = _ternary_stimulus(digits, inputs)
    stimulus = dict(zip(inputs, values.T))
    # A rest word whose sources settle to 0, 1 and X.
    rest_digits = np.arange(TERNARY_SOURCES)[None, :] % 3
    baseline = dict(zip(inputs, _ternary_stimulus(rest_digits, inputs)[0].tolist()))
    reference = BatchBackend(program=program).run_arrays(stimulus, baseline=baseline)
    for s in range(TERNARY_SOURCES):
        assert set(reference.values[f"s{s}"].tolist()) == {0, 1, 2}
    packed = BitpackBackend(program=program).run_arrays(stimulus, baseline=baseline)
    for net in program.nets:
        assert np.array_equal(packed.values[net], reference.values[net]), net
    assert packed.activity_by_cell == reference.activity_by_cell
    assert packed.activity_by_cell_type == reference.activity_by_cell_type
    assert packed.activity_by_cell  # the baseline makes cells toggle

    rows = BoundProgram(program, {}, inputs, outputs).run_arrays(values)
    assert np.array_equal(rows, np.stack([reference.values[net] for net in outputs]))


def test_unvectorizable_cell_type_is_rejected():
    """A program op outside the dispatch vocabulary fails plan building."""
    net = Netlist("tiny")
    net.add_input("a")
    net.add_cell("INV", {"A": "a"}, {"Y": "y"}, name="g")
    net.add_output("y")
    record = compile_program(net).to_dict()
    record["ops"][0][1] = "WEIRD9"  # cell_type field of the serialized op
    from repro.sim.program import CompiledProgram

    with pytest.raises(BackendError, match="cannot vectorize cell type"):
        build_grouped_plan(CompiledProgram.from_dict(record))


def test_cell_free_program_runs_on_both_engines():
    """A program with no ops has an empty plan and passes inputs through."""
    net = Netlist("wires-only")
    net.add_input("a")
    net.add_output("a")
    program = compile_program(net)
    assert build_grouped_plan(program).levels == ()
    stimulus = {"a": np.asarray([1, 0, 1], dtype=np.uint8)}
    for cls in (BatchBackend, BitpackBackend):
        result = cls(program=program).run_arrays(stimulus)
        assert result.values["a"].tolist() == [1, 0, 1]


def test_bulk_stimulus_matrix_edge_inputs(all_tags_program):
    net_index = build_grouped_plan(all_tags_program).net_index
    # 0-d arrays and Python lists are both valid plane spellings.
    rows, stacked, samples = bulk_stimulus_matrix(
        {"a": np.uint8(1), "b": [0, 1, 0], "c": 0}, net_index, lane_align=64
    )
    assert samples == 3
    assert stacked.shape == (3, 64)
    assert stacked[list(rows).index(net_index["b"])][:samples].tolist() == [0, 1, 0]
    assert not stacked[:, samples:].any()  # word padding packs to clear bits
    with pytest.raises(KeyError, match="unknown net"):
        bulk_stimulus_matrix({"zz": 1}, net_index, lane_align=64)
    with pytest.raises(BackendError, match="inconsistent batch sizes"):
        bulk_stimulus_matrix({"a": [0, 1], "b": [0, 1, 0]}, net_index, lane_align=64)
    with pytest.raises(BackendError, match="non-Boolean"):
        bulk_stimulus_matrix({"a": [0, 2]}, net_index, lane_align=64)


def test_baseline_memo_key_hashable_or_none():
    assert baseline_memo_key({"b": 1, "a": 0}) == (("a", 0), ("b", 1))
    assert baseline_memo_key({"a": np.uint8(1)}) == (("a", 1),)
    # Array-valued and non-integral baselines cannot be memoized.
    assert baseline_memo_key({"a": np.asarray([0, 1])}) is None
    assert baseline_memo_key({"a": float("nan")}) is None


def test_kernel_is_built_on_first_run_arrays_not_in_the_constructor(monkeypatch):
    """Construction builds no plan; the first functional call builds one,
    which every later backend on the same program object shares."""
    program = compile_program(_all_tags_netlist())
    calls = []
    original = kernels.build_grouped_plan

    def counting(prog):
        calls.append(prog)
        return original(prog)

    monkeypatch.setattr(kernels, "build_grouped_plan", counting)
    backend = BitpackBackend(program=program)
    assert calls == []
    backend.run_arrays({"a": 1, "b": 0})
    backend.run_arrays({"a": 0, "b": 1})
    BitpackBackend(program=program).run_arrays({"a": 1})
    assert calls == [program]


def test_timed_engine_builds_the_plan_but_no_kernel(umc, monkeypatch):
    """The timed engine runs the memoized plan alone: no reduce tables are
    built until a functional run needs them, and both engines share the
    one plan."""
    workload = random_workload(num_features=2, clauses_per_polarity=2,
                               num_operands=4, seed=3)
    mapped = build_mapped_dual_rail(workload.config, umc)
    plans, tables = [], []
    build_plan, build_tables = kernels.build_grouped_plan, kernels.FusedKernel.__init__

    def counting_plan(prog):
        plans.append(prog)
        return build_plan(prog)

    def counting_tables(self, prog):
        tables.append(prog)
        build_tables(self, prog)

    monkeypatch.setattr(kernels, "build_grouped_plan", counting_plan)
    monkeypatch.setattr(kernels.FusedKernel, "__init__", counting_tables)
    backend = BitpackBackend(mapped.circuit.netlist, umc)
    planes = workload_input_planes(mapped.circuit, mapped.datapath, workload)
    spacer = spacer_assignments(mapped.circuit)
    backend.run_timed(planes, spacer)
    program = backend.program
    assert plans == [program] and tables == []
    backend.run_arrays(planes, baseline=spacer)
    backend.run_timed(planes, spacer)
    assert plans == [program] and tables == [program]
    assert kernels.fused_kernel(program).plan is kernels.grouped_plan(program)
