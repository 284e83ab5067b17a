"""Cross-backend differential fuzzing over randomized mapped netlists.

The contract this suite enforces mechanically: the bitpack backend's
grouped kernel engine (:mod:`repro.sim.kernels`) is **bit-identical** to the
batch backend's looped reference interpreter — settled net values *and*
switching-activity counts — and both agree with the event-driven reference
on settled values.  (Event-simulator activity is glitch-inclusive by
design, so functional transition counts are cross-checked between the
vectorized engines only; see :meth:`repro.sim.backends.event.EventBackend.run_batch`.)

The timed engine (``run_timed``) is held to the event simulator itself on
the mapped variants of the same shapes: per-operand latencies, reset times
and cycle energies at ``rtol=1e-9``, committed transitions per cell
exactly (hazard freedom: a monotonic dual-rail netlist toggles each cell at
most once per phase), and every arrival within its STA bound, with and
without per-instance delay variation.

Each seed deterministically derives a datapath shape (width, clause count,
completion scheme, gate style, library, mapped or structural netlist) and a
stimulus matrix spanning the lane-packing edge cases — 1/63/64/65/1000
samples, all-spacer rest words, and X-laden partial assignments.  Failures
print the offending seed and the ``program_hash`` so a case can be replayed
(and shrunk) in isolation.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import numpy as np
import pytest

from repro.analysis.measure import (
    build_mapped_dual_rail,
    random_workload,
    spacer_assignments,
    workload_input_planes,
)
from repro.circuits import full_diffusion_library, umc_ll_library
from repro.core.completion import GracePeriod
from repro.datapath.datapath import DatapathConfig, DualRailDatapath
from repro.sim import compile_program
from repro.sim.backends import EventBackend
from repro.sim.backends.batch import BatchBackend
from repro.sim.backends.bitpack import BitpackBackend
from repro.sim.handshake import DualRailEnvironment
from repro.sim.power import PowerAccountant
from repro.sim.simulator import GateLevelSimulator
from repro.sim.sta import static_timing_analysis

#: The fixed seed matrix CI replays (kernel-smoke job).  Each seed is an
#: independent random netlist + stimulus; extend the list to widen the net.
FUZZ_SEEDS = [101, 202, 303, 404]

#: Seeds whose mapped netlists the timed engine is replayed on against the
#: event simulator.  Together they span both libraries, all three
#: completion schemes, ``negative_gates`` on and off, and latched and
#: unlatched inputs (pinned by ``test_timed_fuzz_seeds_span_the_shape_space``).
TIMED_FUZZ_SEEDS = [101, 202, 303, 404, 505, 707]

#: Operands per timed case (each is one full event-driven handshake).
TIMED_OPERANDS = 6

#: Timed-vs-event tolerance: both engines add the same delays, but the event
#: simulator accumulates absolute timestamps (float re-association noise).
TIMED_RTOL = 1e-9

#: Batch sizes covering the bitpack lane boundaries (1 word, word-1,
#: exactly one word, word+1, many ragged words).
BATCH_SIZES = (1, 63, 64, 65, 1000)

_LIBRARIES = {
    "umc": umc_ll_library,
    "full_diffusion": full_diffusion_library,
}


def _fuzz_shape(seed):
    """The datapath configuration and library *seed* draws (plus its rng)."""
    rng = np.random.default_rng(seed)
    config = DatapathConfig(
        num_features=int(rng.integers(2, 5)),
        clauses_per_polarity=int(rng.integers(1, 4)),
        latch_inputs=bool(rng.integers(0, 2)),
        negative_gates=bool(rng.integers(0, 2)),
        completion=[None, "reduced", "full"][int(rng.integers(0, 3))],
    )
    library_name = ["umc", "full_diffusion"][int(rng.integers(0, 2))]
    return rng, config, _LIBRARIES[library_name]()


def _fuzz_case(seed):
    """Deterministically derive one random netlist + stimulus from *seed*."""
    rng, config, library = _fuzz_shape(seed)
    if rng.integers(0, 2):
        # Technology-mapped variant (synthesized, interface re-bound).
        circuit = build_mapped_dual_rail(config, library).circuit
    else:
        # Structural datapath netlist straight out of the generator.
        circuit = DualRailDatapath(config, library=library).circuit
    return rng, circuit, library


def _random_stimulus(rng, circuit, samples):
    """Random Boolean planes for a random subset of the primary inputs.

    Leaving some inputs unassigned is the X-laden part of the matrix:
    unassigned rails must propagate unknowns identically in every engine.
    """
    nets = list(circuit.netlist.primary_inputs)
    keep = max(1, int(rng.integers(len(nets) // 2, len(nets) + 1)))
    chosen = list(rng.choice(nets, size=keep, replace=False))
    return {
        net: rng.integers(0, 2, size=samples, dtype=np.uint8)
        for net in chosen
    }


def _context(seed, program, detail):
    """Shrinking-friendly failure message: seed + program hash + detail."""
    return (
        f"differential fuzz mismatch (seed={seed}, "
        f"program_hash={program.program_hash}): {detail}"
    )


def _engines(circuit, library):
    """The reference and the fast engine, both on one compiled program."""
    netlist = circuit.netlist
    program = compile_program(netlist, library)
    return (
        program,
        BatchBackend(netlist, library, program=program),
        BitpackBackend(netlist, library, program=program),
    )


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_fused_paths_bit_identical_across_batch_shapes(seed):
    """Bitpack vs the batch reference: values and activity, every lane shape."""
    rng, circuit, library = _fuzz_case(seed)
    program, reference_engine, bitpack = _engines(circuit, library)
    spacer = spacer_assignments(circuit)
    for samples in BATCH_SIZES:
        stimulus = _random_stimulus(rng, circuit, samples)
        reference = reference_engine.run_arrays(stimulus, baseline=spacer)
        result = bitpack.run_arrays(stimulus, baseline=spacer)
        assert result.samples == reference.samples == samples, _context(
            seed, program, f"samples at {samples}"
        )
        for net in program.nets:
            assert np.array_equal(reference.values[net], result.values[net]), (
                _context(seed, program, f"values of {net!r} at {samples} samples")
            )
        assert result.activity_by_cell == reference.activity_by_cell, _context(
            seed, program, f"per-cell activity at {samples} samples"
        )
        assert (
            result.activity_by_cell_type == reference.activity_by_cell_type
        ), _context(seed, program, f"per-type activity at {samples} samples")


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_all_spacer_rest_word_identical(seed):
    """The all-spacer stimulus settles identically on both engines."""
    _, circuit, library = _fuzz_case(seed)
    program, reference_engine, bitpack = _engines(circuit, library)
    spacer = spacer_assignments(circuit)
    reference = reference_engine.run_arrays(spacer, baseline=spacer)
    result = bitpack.run_arrays(spacer, baseline=spacer)
    for net in program.nets:
        assert np.array_equal(reference.values[net], result.values[net]), (
            _context(seed, program, f"spacer value of {net!r}")
        )
    # Rest against rest: nothing toggles on either engine.
    assert result.activity_by_cell == reference.activity_by_cell == {}


@pytest.mark.parametrize("seed", FUZZ_SEEDS[:2])
def test_event_reference_agrees_on_settled_values(seed):
    """Both engines' settled values match the event-driven simulator.

    The event reference settles one sample at a time, so only a small
    X-laden sample subset is replayed through it.
    """
    rng, circuit, library = _fuzz_case(seed)
    program, reference_engine, bitpack = _engines(circuit, library)
    event = EventBackend(circuit.netlist, library)
    stimulus = _random_stimulus(rng, circuit, 3)
    for k in range(3):
        assignments = {net: int(plane[k]) for net, plane in stimulus.items()}
        expected = event.evaluate(assignments)
        for engine in (reference_engine, bitpack):
            assert engine.evaluate(assignments) == expected, _context(
                seed, program, f"event vs {engine.name} on sample {k}"
            )


# ---------------------------------------------------------------------------
# The timed engine against the event simulator.
# ---------------------------------------------------------------------------


def test_timed_fuzz_seeds_span_the_shape_space():
    """The timed seed list covers every library, scheme and gate style."""
    shapes = [_fuzz_shape(seed)[1:] for seed in TIMED_FUZZ_SEEDS]
    assert {library.name for _, library in shapes} == {"UMC LL", "FULL DIFFUSION"}
    assert {config.completion for config, _ in shapes} == {None, "reduced", "full"}
    assert {config.negative_gates for config, _ in shapes} == {False, True}
    assert {config.latch_inputs for config, _ in shapes} == {False, True}


def _timed_workload(seed, config):
    """*seed*'s operand stream of ``TIMED_OPERANDS`` operands for *config*."""
    return dataclasses.replace(
        random_workload(
            config.num_features, config.clauses_per_polarity,
            num_operands=TIMED_OPERANDS, seed=seed,
        ),
        config=config,
    )


def _delay_variation(seed, netlist):
    """*seed*'s per-instance delay multipliers, uniform in [0.8, 1.25]."""
    spread = np.random.default_rng(seed + 1)
    return {
        cell.name: float(spread.uniform(0.8, 1.25)) for cell in netlist.iter_cells()
    }


def _event_run(mapped, workload, variation):
    """Drive *workload* through the event environment; ``(sim, results)``."""
    simulator = GateLevelSimulator(
        mapped.circuit.netlist, mapped.library, vdd=mapped.vdd,
        delay_variation=variation,
    )
    environment = DualRailEnvironment(
        mapped.circuit, simulator, grace_period=mapped.grace.td
    )
    environment.reset()
    results = [
        environment.infer(
            mapped.datapath.operand_assignments(features, workload.exclude)
        )
        for features in workload.feature_vectors
    ]
    return simulator, results


def _reduced_cd_bound(circuit, report):
    """``t_io + td`` of the reduced completion scheme under *report*'s delays."""
    io = set(circuit.all_output_rails()) | {circuit.done_net} - {None}
    t_io = max((report.arrival.get(n, 0.0) for n in io), default=0.0)
    t_int = max(
        (report.arrival.get(n, 0.0) for n in circuit.netlist.nets if n not in io),
        default=0.0,
    )
    return GracePeriod(t_int=t_int, t_io=t_io, vdd=report.vdd).t_done_fall


@pytest.mark.parametrize("varied", [False, True], ids=["nominal", "variation"])
@pytest.mark.parametrize("seed", TIMED_FUZZ_SEEDS)
def test_timed_engine_matches_event_simulator(seed, varied):
    """``run_timed`` ≡ the event environment on a random mapped datapath."""
    _, config, library = _fuzz_shape(seed)
    mapped = build_mapped_dual_rail(config, library)
    circuit = mapped.circuit
    netlist = circuit.netlist
    workload = _timed_workload(seed, config)
    variation = _delay_variation(seed, netlist) if varied else None
    simulator, results = _event_run(mapped, workload, variation)
    backend = BitpackBackend(netlist, library, vdd=mapped.vdd)
    timed = backend.run_timed(
        workload_input_planes(circuit, mapped.datapath, workload),
        spacer_assignments(circuit),
        delay_variation=variation,
    )
    program = backend.program

    def check(actual, expected, what):
        np.testing.assert_allclose(
            actual, expected, rtol=TIMED_RTOL,
            err_msg=_context(seed, program, f"{what} (variation={varied})"),
        )

    rails = circuit.all_output_rails()
    check(timed.max_arrival(rails, "valid"), [r.t_s_to_v for r in results],
          "t(S->V)")
    check(timed.max_arrival(rails, "reset"), [r.t_v_to_s for r in results],
          "t(V->S)")
    check(timed.settle_time("reset"), [r.t_internal_reset for r in results],
          "internal reset")
    if circuit.done_net is not None:
        check(timed.arrival_of(circuit.done_net, "valid"),
              [r.done_rise - r.t_start for r in results], "done rise")

    accountant = PowerAccountant(netlist, library, vdd=mapped.vdd)
    bounds = [r.t_start for r in results] + [simulator.time]
    check(
        timed.energy_per_sample_fj,
        [
            accountant.energy_of_window(simulator, lo, hi).total_fj
            for lo, hi in zip(bounds, bounds[1:])
        ],
        "cycle energy",
    )

    # Hazard freedom: every committed event transition is one the timed
    # engine counts (two per toggling cell per handshake), no more.
    committed = Counter(
        record.cell
        for record in simulator.transitions_between(bounds[0], bounds[-1])
    )
    assert dict(committed) == timed.activity_by_cell, _context(
        seed, program, f"committed transitions per cell (variation={varied})"
    )

    report = static_timing_analysis(
        netlist, library, vdd=mapped.vdd, delay_variation=variation
    )
    eps = 1e-6
    for phase in ("valid", "reset"):
        for net, bound in report.arrival.items():
            latest = float(timed.arrival_of(net, phase).max(initial=0.0))
            assert latest <= bound + eps, _context(
                seed, program,
                f"{phase} arrival of {net!r} {latest} > STA {bound} "
                f"(variation={varied})",
            )
    bound = _reduced_cd_bound(circuit, report)
    if not varied:
        assert bound == mapped.grace.t_done_fall
    assert float(timed.settle_time("reset").max()) <= bound + eps, _context(
        seed, program, f"internal reset beyond t_io + td (variation={varied})"
    )


#: A supply scales every delay and energy by one factor; derived and direct
#: values differ by float re-association only.
SCALE_RTOL = 1e-12


@pytest.mark.parametrize("varied", [False, True], ids=["nominal", "variation"])
@pytest.mark.parametrize("seed", TIMED_FUZZ_SEEDS)
def test_supply_is_a_scale_factor(seed, varied):
    """Timing at any supply is the nominal timing times one library factor.

    The DSE derives a design's supply points from its nominal record on the
    strength of this: STA arrivals, the grace period and the timed engine's
    per-sample t(S->V), t(V->S) and internal reset equal the nominal ones
    times ``delay_factor(vdd)``, per-sample energy the nominal one times
    ``energy_factor(vdd)``, and values and activity do not move.  A library
    with per-cell voltage sensitivity fails here.
    """
    _, config, library = _fuzz_shape(seed)
    model = library.voltage_model
    vdd = float(
        np.random.default_rng(seed + 2).uniform(model.min_functional_vdd, 1.2)
    )
    delay, energy = model.delay_factor(vdd), model.energy_factor(vdd)
    nominal = build_mapped_dual_rail(config, library)
    scaled = build_mapped_dual_rail(config, library, vdd=vdd)
    workload = _timed_workload(seed, config)
    variation = (
        _delay_variation(seed, nominal.circuit.netlist) if varied else None
    )
    context = f"supply {vdd:.4f} V (seed={seed}, variation={varied})"

    def scales(actual, reference, factor, what):
        np.testing.assert_allclose(
            actual, np.asarray(reference) * factor, rtol=SCALE_RTOL, atol=0.0,
            err_msg=f"{what} at {context}",
        )

    base_sta, sta = (
        static_timing_analysis(
            mapped.circuit.netlist, library, vdd=mapped.vdd,
            delay_variation=variation,
        )
        for mapped in (nominal, scaled)
    )
    assert sta.arrival.keys() == base_sta.arrival.keys(), context
    nets = sorted(sta.arrival)
    scales([sta.arrival[n] for n in nets], [base_sta.arrival[n] for n in nets],
           delay, "STA arrivals")
    grace, base_grace = scaled.grace, nominal.grace
    scales([grace.t_int, grace.t_io, grace.td],
           [base_grace.t_int, base_grace.t_io, base_grace.td], delay, "grace period")
    scales(_reduced_cd_bound(scaled.circuit, sta),
           _reduced_cd_bound(nominal.circuit, base_sta), delay, "t_io + td")

    base_run, run = (
        BitpackBackend(mapped.circuit.netlist, library, vdd=mapped.vdd).run_timed(
            workload_input_planes(mapped.circuit, mapped.datapath, workload),
            spacer_assignments(mapped.circuit),
            delay_variation=variation,
        )
        for mapped in (nominal, scaled)
    )
    rails = nominal.circuit.all_output_rails()
    for phase, what in (("valid", "t(S->V)"), ("reset", "t(V->S)")):
        scales(run.max_arrival(rails, phase), base_run.max_arrival(rails, phase),
               delay, what)
    scales(run.settle_time("reset"), base_run.settle_time("reset"), delay,
           "internal reset")
    scales(run.energy_per_sample_fj, base_run.energy_per_sample_fj, energy,
           "per-sample energy")
    assert run.values.index == base_run.values.index, context
    assert np.array_equal(run.values.matrix, base_run.values.matrix), context
    assert run.spacer_values == base_run.spacer_values, context
    assert run.activity_by_cell == base_run.activity_by_cell, context
