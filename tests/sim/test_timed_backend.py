"""Equivalence suite for the vectorized data-dependent timing engine.

The contract (documented in docs/guides/timing-and-energy-model.md):

* per-sample spacer→valid latency, reset time and internal-reset time match
  the event-driven handshake environment within float re-association
  accuracy (the engines perform the same pairwise delay additions, but the
  event simulator accumulates absolute timestamps before subtracting the
  phase origin), on **both** libraries and at **multiple** supply points;
* per-sample switching energy and activity counts are bit-identical to the
  batch backend's spacer-baseline accounting and match the event
  simulator's transition log (dual-rail settling is glitch-free);
* the bitpack entry point is bit-identical to the batch entry point for
  every sample count, 64-aligned or ragged;
* no per-sample latency ever exceeds the STA critical delay (false paths
  included) — STA and the timed engine share one delay model.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.measure import (
    build_mapped_dual_rail,
    default_workload,
    make_dual_rail_environment,
    random_workload,
    spacer_assignments,
    truncate_workload,
    workload_input_planes,
)
from repro.sim.backends import BackendError, BatchBackend, BitpackBackend
from repro.sim.power import PowerAccountant
from repro.sim.sta import static_timing_analysis

#: The engines perform identical delay sums; the only divergence is float
#: re-association in the event simulator's absolute time base (measured at
#: ~1e-14 relative).  1e-9 is the documented equivalence tolerance.
RTOL = 1e-9


@pytest.fixture(scope="module")
def workload():
    return default_workload(num_features=4, clauses_per_polarity=8, num_operands=10)


def _event_results(mapped, workload):
    bench = make_dual_rail_environment(mapped)
    return bench, [
        bench.environment.infer(
            mapped.datapath.operand_assignments(f, workload.exclude)
        )
        for f in workload.feature_vectors
    ]


def _timed(mapped, workload, backend_cls=BatchBackend):
    backend = backend_cls(mapped.circuit.netlist, mapped.library, vdd=mapped.vdd)
    planes = workload_input_planes(mapped.circuit, mapped.datapath, workload)
    return backend.run_timed(planes, spacer_assignments(mapped.circuit))


@pytest.mark.parametrize("library_name", ["umc", "full_diffusion"])
@pytest.mark.parametrize("vdd", [None, 0.8])
def test_per_sample_latency_and_reset_match_event(
    library_name, vdd, workload, request
):
    """Latency/reset equivalence vs the event oracle on both libraries, 2 vdds."""
    library = request.getfixturevalue(library_name)
    mapped = build_mapped_dual_rail(workload.config, library, vdd=vdd)
    _bench, results = _event_results(mapped, workload)
    timed = _timed(mapped, workload)
    rails = mapped.circuit.all_output_rails()

    np.testing.assert_allclose(
        timed.max_arrival(rails, "valid"),
        [r.t_s_to_v for r in results], rtol=RTOL,
    )
    np.testing.assert_allclose(
        timed.max_arrival(rails, "reset"),
        [r.t_v_to_s for r in results], rtol=RTOL,
    )
    np.testing.assert_allclose(
        timed.settle_time("reset"),
        [r.t_internal_reset for r in results], rtol=RTOL,
    )
    done = mapped.circuit.done_net
    np.testing.assert_allclose(
        timed.arrival_of(done, "valid"),
        [r.done_rise - r.t_start for r in results], rtol=RTOL,
    )


def test_per_sample_energy_matches_event_window(umc, workload):
    """Timed per-cycle energy equals the event transition log, priced identically."""
    mapped = build_mapped_dual_rail(workload.config, umc)
    bench, results = _event_results(mapped, workload)
    timed = _timed(mapped, workload)
    accountant = PowerAccountant(mapped.circuit.netlist, umc)

    # Whole-window total: the event log over all operands vs the timed sum.
    window_energy = accountant.energy_of_window(
        bench.simulator, results[0].t_start, bench.simulator.time
    )
    assert timed.energy_per_sample_fj.sum() == pytest.approx(
        window_energy.total_fj, rel=RTOL
    )

    # Per-operand: each event cycle window prices to that sample's energy.
    boundaries = [r.t_start for r in results] + [bench.simulator.time]
    for k in range(len(results)):
        cycle = accountant.energy_of_window(
            bench.simulator, boundaries[k], boundaries[k + 1]
        )
        assert timed.energy_per_sample_fj[k] == pytest.approx(
            cycle.total_fj, rel=RTOL
        )


def test_activity_counts_are_bit_identical_to_batch(umc, workload):
    """Timed activity is the batch backend's spacer-baseline count, exactly."""
    mapped = build_mapped_dual_rail(workload.config, umc)
    timed = _timed(mapped, workload)
    backend = BatchBackend(mapped.circuit.netlist, umc)
    planes = workload_input_planes(mapped.circuit, mapped.datapath, workload)
    functional = backend.run_arrays(planes, baseline=spacer_assignments(mapped.circuit))
    assert timed.activity_by_cell == functional.activity_by_cell
    assert timed.activity_by_cell_type == functional.activity_by_cell_type


def test_timed_values_match_functional_planes(umc, workload):
    """The timed pass settles every net to the batch backend's values."""
    mapped = build_mapped_dual_rail(workload.config, umc)
    timed = _timed(mapped, workload)
    backend = BatchBackend(mapped.circuit.netlist, umc)
    planes = workload_input_planes(mapped.circuit, mapped.datapath, workload)
    functional = backend.run_arrays(planes)
    for net in mapped.circuit.netlist.nets:
        assert np.array_equal(timed.values[net], functional.values[net]), net


@pytest.mark.parametrize("samples", [1, 63, 64, 65, 100])
def test_bitpack_timed_is_bit_identical_to_batch(umc, samples):
    """Ragged-tail masking: bitpack timing equals batch timing at any length.

    The packed functional planes carry X tail lanes past the stream length;
    the timed pass runs on exactly ``samples`` dense lanes, so no tail lane
    can leak into arrivals or energy — pinned here across word-aligned and
    ragged sample counts.
    """
    workload = random_workload(
        num_features=4, clauses_per_polarity=4, num_operands=samples, seed=9
    )
    mapped = build_mapped_dual_rail(workload.config, umc)
    via_batch = _timed(mapped, workload, BatchBackend)
    via_bitpack = _timed(mapped, workload, BitpackBackend)
    assert via_batch.samples == via_bitpack.samples == samples
    for net in mapped.circuit.netlist.nets:
        assert np.array_equal(
            via_batch.arrival_of(net, "valid"), via_bitpack.arrival_of(net, "valid")
        )
        assert np.array_equal(
            via_batch.arrival_of(net, "reset"), via_bitpack.arrival_of(net, "reset")
        )
    assert np.array_equal(
        via_batch.energy_per_sample_fj, via_bitpack.energy_per_sample_fj
    )
    assert via_batch.activity_by_cell == via_bitpack.activity_by_cell


@pytest.mark.parametrize("library_name", ["umc", "full_diffusion"])
@pytest.mark.parametrize("vdd", [None, 0.9])
def test_no_sample_exceeds_sta_critical_delay(library_name, vdd, request):
    """Property: per-sample arrivals are bounded by topological STA.

    STA counts every structural path, false paths included, with the same
    per-instance delays; a logically sensitised (timed) arrival can reach
    but never exceed it.  Checked net-for-net for both phases, and for the
    headline latency against the STA critical delay.
    """
    library = request.getfixturevalue(library_name)
    workload = random_workload(
        num_features=4, clauses_per_polarity=8, num_operands=24, seed=13
    )
    mapped = build_mapped_dual_rail(workload.config, library, vdd=vdd)
    timed = _timed(mapped, workload)
    report = static_timing_analysis(mapped.circuit.netlist, library, vdd=vdd)
    eps = 1e-6
    for net, bound in report.arrival.items():
        assert float(timed.arrival_of(net, "valid").max()) <= bound + eps, net
        assert float(timed.arrival_of(net, "reset").max()) <= bound + eps, net
    rails = mapped.circuit.all_output_rails()
    assert float(timed.max_arrival(rails, "valid").max()) <= report.critical_delay + eps
    assert float(timed.settle_time("reset").max()) <= report.critical_delay + eps


def test_worst_case_operand_can_reach_sta_on_a_simple_gate(umc):
    """On a single AND2 the all-switching operand hits the STA arrival exactly."""
    from repro.circuits.netlist import Netlist

    netlist = Netlist("and2_only")
    netlist.add_input("a")
    netlist.add_input("b")
    netlist.add_output("y")
    netlist.add_cell("AND2", inputs={"A": "a", "B": "b"}, outputs={"Y": "y"}, name="u1")
    backend = BatchBackend(netlist, umc)
    timed = backend.run_timed({"a": [1, 1, 0], "b": [1, 0, 1]}, {"a": 0, "b": 0})
    report = static_timing_analysis(netlist, umc)
    # Sample 0 switches the output: arrival equals the STA bound exactly.
    assert timed.arrival_of("y", "valid")[0] == report.arrival["y"]
    # Samples 1-2 leave the output at its spacer value: no transition.
    assert timed.arrival_of("y", "valid")[1] == 0.0
    assert timed.arrival_of("y", "valid")[2] == 0.0


def test_early_propagation_beats_worst_case(umc):
    """An OR2's controlling input determines its arrival (early propagation)."""
    from repro.circuits.netlist import Netlist

    netlist = Netlist("or_after_chain")
    netlist.add_input("a")
    netlist.add_input("b")
    netlist.add_output("y")
    # b goes through two inverters (slow path); a hits the OR directly.
    netlist.add_cell("INV", inputs={"A": "b"}, outputs={"Y": "inv1"}, name="u1")
    netlist.add_cell("INV", inputs={"A": "inv1"}, outputs={"Y": "inv2"}, name="u2")
    netlist.add_cell("OR2", inputs={"A": "a", "B": "inv2"}, outputs={"Y": "y"}, name="u3")
    backend = BatchBackend(netlist, umc)
    timed = backend.run_timed({"a": [1, 0], "b": [1, 1]}, {"a": 0, "b": 0})
    fast = float(timed.arrival_of("y", "valid")[0])   # a=1 controls immediately
    slow = float(timed.arrival_of("y", "valid")[1])   # must wait for the chain
    assert 0.0 < fast < slow
    report = static_timing_analysis(netlist, umc)
    assert slow <= report.arrival["y"] + 1e-9


@pytest.mark.parametrize("rest", [0, 1])
def test_every_dispatch_shape_matches_event_simulator(umc, rest):
    """Each cell shape's timed rule reproduces the event simulator's arrivals.

    Datapath netlists never reach MAJ3, XOR2/XNOR2 or most complex gates;
    this netlist has one cell of each shape, driven straight from the
    inputs, swept over all eight input words from an all-*rest* spacer.
    All inputs switch at ``t = 0``, so no cell sees staggered input events
    and even the XOR rule is exact.
    """
    from repro.sim.simulator import GateLevelSimulator
    from test_kernels import _all_tags_netlist

    netlist = _all_tags_netlist()
    words = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    spacer = {"a": rest, "b": rest, "c": rest}
    timed = BatchBackend(netlist, umc).run_timed(
        {net: [word[i] for word in words] for i, net in enumerate("abc")}, spacer
    )

    sim = GateLevelSimulator(netlist, umc)
    sim.set_inputs(spacer)
    sim.settle()
    arrivals = {
        phase: {net: np.zeros(len(words)) for net in netlist.nets}
        for phase in ("valid", "reset")
    }
    committed = {}
    for k, word in enumerate(words):
        for phase, assignment in (("valid", dict(zip("abc", word))), ("reset", spacer)):
            origin = sim.time
            sim.set_inputs(assignment)
            sim.settle()
            for record in sim.transitions_between(origin, sim.time):
                arrivals[phase][record.net][k] = record.time - origin
                committed[record.cell] = committed.get(record.cell, 0) + 1
    for phase, by_net in arrivals.items():
        for net, expected in by_net.items():
            np.testing.assert_allclose(
                timed.arrival_of(net, phase), expected, rtol=RTOL,
                err_msg=f"{phase} arrival of {net}",
            )
    assert timed.activity_by_cell == committed


def test_glitching_inner_term_times_its_complex_gate(umc):
    """A complex gate's inner term is timed even when it ends where it started.

    ``d`` falls late through three inverters, so the AO22's ``c & d`` term
    rises at once and falls with ``d``: it holds ``y`` high until then.
    The term starts and ends at 0, and masking its arrival to 0 for that
    reason timed ``y`` from ``a`` alone (43.26 ps instead of 104.94 ps).
    """
    from repro.circuits.netlist import Netlist
    from repro.sim.simulator import GateLevelSimulator

    netlist = Netlist("ao22_glitch")
    for net in "abce":
        netlist.add_input(net)
    netlist.add_output("y")
    netlist.add_cell("INV", inputs={"A": "e"}, outputs={"Y": "e1"}, name="u1")
    netlist.add_cell("INV", inputs={"A": "e1"}, outputs={"Y": "e2"}, name="u2")
    netlist.add_cell("INV", inputs={"A": "e2"}, outputs={"Y": "d"}, name="u3")
    netlist.add_cell("AO22", inputs={"A1": "a", "A2": "b", "B1": "c", "B2": "d"},
                     outputs={"Y": "y"}, name="u4")
    spacer = {"a": 1, "b": 1, "c": 0, "e": 0}
    valid = {"a": 0, "b": 1, "c": 1, "e": 1}
    timed = BatchBackend(netlist, umc).run_timed(
        {net: [value] for net, value in valid.items()}, spacer
    )

    sim = GateLevelSimulator(netlist, umc)
    sim.set_inputs(spacer)
    sim.settle()
    for phase, assignment in (("valid", valid), ("reset", spacer)):
        origin = sim.time
        sim.set_inputs(assignment)
        sim.settle()
        (edge,) = [r for r in sim.transitions_between(origin, sim.time) if r.net == "y"]
        np.testing.assert_allclose(
            timed.arrival_of("y", phase), [edge.time - origin], rtol=RTOL,
            err_msg=f"{phase} arrival of y",
        )
    assert timed.arrival_of("y", "valid")[0] == pytest.approx(104.94, rel=RTOL)


def test_timed_requires_library_and_functional_supply(umc):
    """The timed engine refuses meaningless configurations."""
    workload = random_workload(num_features=3, clauses_per_polarity=2,
                               num_operands=2, seed=3)
    mapped = build_mapped_dual_rail(workload.config, umc)
    netlist = mapped.circuit.netlist
    with pytest.raises(BackendError):
        BatchBackend(netlist, library=None).run_timed({}, {})
    with pytest.raises(BackendError):
        BatchBackend(netlist, umc, vdd=0.3).run_timed({}, {})  # below floor


def test_timed_program_is_cached_per_backend(umc):
    """Repeated run_timed calls reuse one compiled program."""
    workload = random_workload(num_features=3, clauses_per_polarity=2,
                               num_operands=4, seed=3)
    mapped = build_mapped_dual_rail(workload.config, umc)
    backend = BatchBackend(mapped.circuit.netlist, umc)
    planes = workload_input_planes(mapped.circuit, mapped.datapath, workload)
    spacer = spacer_assignments(mapped.circuit)
    backend.run_timed(planes, spacer)
    program = backend._timed_programs[()]
    backend.run_timed(planes, spacer)
    assert backend._timed_programs[()] is program


def test_delay_variation_matches_event_simulator(umc):
    """Per-instance delay variation flows through identically to the event sim."""
    workload = truncate_workload(
        default_workload(num_features=4, clauses_per_polarity=4, num_operands=4), 4
    )
    mapped = build_mapped_dual_rail(workload.config, umc)
    variation = {
        cell.name: 1.0 + 0.05 * (i % 7)
        for i, cell in enumerate(mapped.circuit.netlist.iter_cells())
    }
    from repro.core.completion import compute_grace_period
    from repro.sim.handshake import DualRailEnvironment
    from repro.sim.simulator import GateLevelSimulator

    sim = GateLevelSimulator(mapped.circuit.netlist, umc, delay_variation=variation)
    grace = compute_grace_period(mapped.circuit, umc).td
    env = DualRailEnvironment(mapped.circuit, sim, grace_period=grace)
    env.reset()
    results = [
        env.infer(mapped.datapath.operand_assignments(f, workload.exclude))
        for f in workload.feature_vectors
    ]
    backend = BatchBackend(mapped.circuit.netlist, umc)
    timed = backend.run_timed(
        workload_input_planes(mapped.circuit, mapped.datapath, workload),
        spacer_assignments(mapped.circuit),
        delay_variation=variation,
    )
    rails = mapped.circuit.all_output_rails()
    np.testing.assert_allclose(
        timed.max_arrival(rails, "valid"), [r.t_s_to_v for r in results], rtol=RTOL
    )
