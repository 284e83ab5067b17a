"""Program-cache behaviour across the parallel experiment harnesses.

The acceptance contract of the compiled-IR cache at the harness level:
``run_latency_distribution`` with ``jobs=2`` compiles each unique netlist
exactly once (trace-verified — the parent pre-warms, the workers cache-hit),
and the cached path is bit-identical to the uncached seed path for any
``jobs`` value.
"""

from __future__ import annotations

import pytest

from repro.analysis import default_workload, run_latency_distribution
from repro.analysis.measure import resolve_library
from repro.obs import trace


@pytest.fixture(scope="module")
def workload():
    return default_workload(num_features=3, clauses_per_polarity=4, num_operands=8)


def _latencies(results):
    return [r.t_s_to_v for r in results]


def test_parallel_cached_run_compiles_exactly_once(tmp_path, workload, umc):
    with trace.capture() as captured:
        results = run_latency_distribution(
            workload, umc, jobs=2, chunk_size=2, timing_backend="vectorized",
            program_cache=str(tmp_path),
        )
    compiles = [r for r in captured.records if r.name == "backend.compile"]
    assert len(compiles) == 1  # the parent pre-warm; every chunk worker hits
    loads = [r for r in captured.records if r.name == "program.cache.load"]
    # the pre-warm's cold probe plus one warm load per chunk (4 chunks of 2)
    assert sum(1 for r in loads if r.attrs.get("hit")) == 4
    assert len(results) == workload.num_operands
    assert len(list(tmp_path.glob("*.json"))) == 1


def test_cached_path_bit_identical_across_jobs(tmp_path, workload, umc):
    seed = run_latency_distribution(
        workload, umc, jobs=1, chunk_size=2, timing_backend="vectorized"
    )
    serial = run_latency_distribution(
        workload, umc, jobs=1, chunk_size=2, timing_backend="vectorized",
        program_cache=str(tmp_path),
    )
    parallel = run_latency_distribution(
        workload, umc, jobs=3, chunk_size=2, timing_backend="vectorized",
        program_cache=str(tmp_path),
    )
    assert _latencies(serial) == _latencies(seed)
    assert _latencies(parallel) == _latencies(seed)


def test_event_backend_ignores_the_cache(tmp_path, workload, umc):
    resolve_library(umc)
    cached = run_latency_distribution(
        workload, umc, jobs=1, timing_backend="event",
        program_cache=str(tmp_path),
    )
    seed = run_latency_distribution(workload, umc, jobs=1, timing_backend="event")
    assert _latencies(cached) == _latencies(seed)
    assert list(tmp_path.glob("*.json")) == []  # nothing compiled, nothing stored
