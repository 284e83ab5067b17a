"""Tests for the parallel experiment runner and its determinism contract."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import (
    WorkChunk,
    default_workload,
    make_chunks,
    resolve_jobs,
    run_figure3,
    run_latency_distribution,
    run_parallel,
    run_table1,
)
from repro.analysis.runner import _execute_chunk
from repro.circuits import full_diffusion_library, umc_ll_library


def _square(item):
    return item * item


def _draw(item, rng):
    # The result depends on both the work item and the chunk's RNG stream.
    return item + float(rng.random())


def test_run_parallel_preserves_order():
    items = list(range(17))
    assert run_parallel(_square, items, jobs=1) == [i * i for i in items]
    assert run_parallel(_square, items, jobs=4, chunk_size=3) == [i * i for i in items]


def test_run_parallel_empty_and_jobs_resolution():
    assert run_parallel(_square, [], jobs=4) == []
    assert resolve_jobs(3) == 3
    assert resolve_jobs(None) >= 1
    with pytest.raises(ValueError):
        resolve_jobs(-2)


def test_make_chunks_boundaries_are_jobs_independent():
    chunks = make_chunks(list(range(10)), chunk_size=4, seed=99)
    assert [c.items for c in chunks] == [(0, 1, 2, 3), (4, 5, 6, 7), (8, 9)]
    assert [c.start for c in chunks] == [0, 4, 8]
    assert all(c.seed == 99 for c in chunks)


def test_make_chunks_empty_grid_yields_no_chunks():
    """Chunk-boundary edge case: an empty work list (e.g. an empty DSE grid)."""
    assert make_chunks([], chunk_size=4) == []
    assert make_chunks([], chunk_size=1, seed=5) == []


def test_make_chunks_grid_smaller_than_chunk_size():
    """A grid smaller than chunk_size must become exactly one full chunk."""
    chunks = make_chunks([10, 20], chunk_size=8, seed=3)
    assert len(chunks) == 1
    assert chunks[0].index == 0
    assert chunks[0].start == 0
    assert chunks[0].items == (10, 20)


def test_make_chunks_rejects_invalid_chunk_size():
    with pytest.raises(ValueError):
        make_chunks([1, 2], chunk_size=0)


def test_run_parallel_grid_smaller_than_chunk_size_any_jobs():
    """jobs > number of chunks must not deadlock, reorder, or drop items."""
    items = [3, 1]
    expected = [9, 1]
    assert run_parallel(_square, items, jobs=1, chunk_size=10) == expected
    assert run_parallel(_square, items, jobs=4, chunk_size=10) == expected
    # Seeded variant: the single chunk's RNG stream is jobs-invariant too.
    assert run_parallel(_draw, items, jobs=1, chunk_size=10, seed=11) == \
        run_parallel(_draw, items, jobs=4, chunk_size=10, seed=11)


def test_chunk_rng_streams_are_independent_and_reproducible():
    a = WorkChunk(index=0, start=0, items=(1,), seed=7).rng()
    b = WorkChunk(index=1, start=1, items=(2,), seed=7).rng()
    a_again = WorkChunk(index=0, start=0, items=(1,), seed=7).rng()
    assert a.random() != b.random()
    assert a_again.random() == np.random.default_rng(
        np.random.SeedSequence([7, 0])
    ).random()
    assert WorkChunk(index=0, start=0, items=(1,), seed=None).rng() is None


def test_seeded_results_identical_for_any_jobs():
    """The satellite determinism contract: jobs=1 == jobs=4, bit for bit."""
    items = list(range(24))
    serial = run_parallel(_draw, items, jobs=1, chunk_size=5, seed=123)
    parallel = run_parallel(_draw, items, jobs=4, chunk_size=5, seed=123)
    assert serial == parallel


def test_execute_chunk_passes_rng_only_when_seeded():
    chunk = WorkChunk(index=0, start=0, items=(2, 3), seed=None)
    assert _execute_chunk(_square, chunk) == [4, 9]
    seeded = WorkChunk(index=0, start=0, items=(2,), seed=1)
    assert _execute_chunk(_draw, seeded)[0] > 2.0


# --------------------------------------------------------------------------
# Experiment-level determinism: the sweeps built on the runner.
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_workload():
    return default_workload(num_features=2, clauses_per_polarity=2, num_operands=6)


def test_latency_distribution_jobs_invariant(tiny_workload):
    library = umc_ll_library()
    serial = run_latency_distribution(tiny_workload, library, jobs=1, chunk_size=2)
    parallel = run_latency_distribution(tiny_workload, library, jobs=4, chunk_size=2)
    assert [r.t_s_to_v for r in serial] == [r.t_s_to_v for r in parallel]
    assert [r.one_of_n_outputs for r in serial] == [r.one_of_n_outputs for r in parallel]


def test_figure3_backend_and_jobs_invariant(tiny_workload):
    library = full_diffusion_library()
    voltages = (0.5, 1.2)
    serial = run_figure3(tiny_workload, voltages=voltages, library=library,
                         operands_per_point=3)
    parallel = run_figure3(tiny_workload, voltages=voltages, library=library,
                           operands_per_point=3, jobs=2)
    assert [(p.vdd, p.avg_latency_ps, p.max_latency_ps, p.functional, p.correct)
            for p in serial] == \
           [(p.vdd, p.avg_latency_ps, p.max_latency_ps, p.functional, p.correct)
            for p in parallel]


def test_table1_backend_and_jobs_invariant(tiny_workload):
    libraries = [umc_ll_library()]
    rows_serial, _ = run_table1(tiny_workload, libraries=libraries)
    rows_parallel, _ = run_table1(tiny_workload, libraries=libraries, jobs=2)
    assert len(rows_serial) == len(rows_parallel) == 2
    for serial_row, parallel_row in zip(rows_serial, rows_parallel):
        assert serial_row.design == parallel_row.design
        assert serial_row.avg_latency_ps == parallel_row.avg_latency_ps
        assert serial_row.avg_power_uw == parallel_row.avg_power_uw
        assert serial_row.extra["correctness"] == parallel_row.extra["correctness"]
