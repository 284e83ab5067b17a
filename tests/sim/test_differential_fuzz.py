"""Cross-backend differential fuzzing over randomized mapped netlists.

The contract this suite enforces mechanically: the bitpack backend's
grouped kernel engine (:mod:`repro.sim.kernels`) is **bit-identical** to the
batch backend's looped reference interpreter — settled net values *and*
switching-activity counts — and both agree with the event-driven reference
on settled values.  (Event-simulator activity is glitch-inclusive by
design, so transition counts are cross-checked between the vectorized
engines only; see :meth:`repro.sim.backends.event.EventBackend.run_batch`.)

Each seed deterministically derives a datapath shape (width, clause count,
completion scheme, gate style, library, mapped or structural netlist) and a
stimulus matrix spanning the lane-packing edge cases — 1/63/64/65/1000
samples, all-spacer rest words, and X-laden partial assignments.  Failures
print the offending seed and the ``program_hash`` so a case can be replayed
(and shrunk) in isolation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.measure import (
    build_mapped_dual_rail,
    spacer_assignments,
)
from repro.circuits import full_diffusion_library, umc_ll_library
from repro.datapath.datapath import DatapathConfig, DualRailDatapath
from repro.sim import compile_program
from repro.sim.backends import EventBackend
from repro.sim.backends.batch import BatchBackend
from repro.sim.backends.bitpack import BitpackBackend

#: The fixed seed matrix CI replays (kernel-smoke job).  Each seed is an
#: independent random netlist + stimulus; extend the list to widen the net.
FUZZ_SEEDS = [101, 202, 303, 404]

#: Batch sizes covering the bitpack lane boundaries (1 word, word-1,
#: exactly one word, word+1, many ragged words).
BATCH_SIZES = (1, 63, 64, 65, 1000)

_LIBRARIES = {
    "umc": umc_ll_library,
    "full_diffusion": full_diffusion_library,
}


def _fuzz_case(seed):
    """Deterministically derive one random netlist + stimulus from *seed*."""
    rng = np.random.default_rng(seed)
    config = DatapathConfig(
        num_features=int(rng.integers(2, 5)),
        clauses_per_polarity=int(rng.integers(1, 4)),
        latch_inputs=bool(rng.integers(0, 2)),
        negative_gates=bool(rng.integers(0, 2)),
        completion=[None, "reduced", "full"][int(rng.integers(0, 3))],
    )
    library_name = ["umc", "full_diffusion"][int(rng.integers(0, 2))]
    library = _LIBRARIES[library_name]()
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
