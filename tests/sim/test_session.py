"""Contract tests for the serving worker's bound session.

``InferenceWorker.session`` is a :class:`~repro.sim.backends.bitpack.BoundProgram`
with the exclude rails bound as constants once; each word passes only the
feature rails.  The load-bearing property: that binding is a pure
refactoring of the call site — the session's verdict rows, and the
attribution path's latency and energy (the bound constants merged with the
feature planes), are bit-identical to handing each vectorized backend the
fully merged stimulus of the analysis harness directly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import random_workload
from repro.analysis.measure import (
    build_mapped_dual_rail,
    spacer_assignments,
    verdict_signal,
    workload_input_planes,
)
from repro.serve.worker import InferenceWorker, ModelSpec
from repro.sim.backends import BatchBackend, BitpackBackend


@pytest.fixture(scope="module")
def workload():
    # 65 operands span a word boundary; with this seed most single exclude
    # bits change some verdict, so a misbound constant shows in the rows.
    return random_workload(
        num_features=4, clauses_per_polarity=8, num_operands=65, seed=17
    )


@pytest.fixture(scope="module")
def features(workload):
    return np.asarray(workload.feature_vectors, dtype=np.uint8)


@pytest.mark.parametrize("backend_cls", [BatchBackend, BitpackBackend])
def test_session_run_arrays_matches_direct_merged_call(umc, workload, features, backend_cls):
    """The session's verdict rows are bit-identical to the merged direct call."""
    worker = InferenceWorker(ModelSpec.from_workload(workload, library=umc))
    rows = worker.session.run_arrays(np.concatenate((features, 1 - features), axis=1))

    backend = backend_cls(worker.circuit.netlist, umc)
    direct = backend.run_arrays(
        workload_input_planes(worker.circuit, worker.datapath, workload)
    )
    rails = verdict_signal(worker.circuit).rails
    assert rows.shape == (len(rails), workload.num_operands)
    np.testing.assert_array_equal(rows, np.stack([direct.values[r] for r in rails]))


@pytest.mark.parametrize("backend_cls", [BatchBackend, BitpackBackend])
def test_session_run_timed_matches_direct_merged_call(umc, workload, features, backend_cls):
    """Attribution latency/energy are bit-identical to the merged direct call."""
    worker = InferenceWorker(
        ModelSpec.from_workload(workload, library=umc, attribution=True)
    )
    reply = worker.classify(features)

    mapped = build_mapped_dual_rail(workload.config, umc)
    circuit = mapped.circuit
    direct = backend_cls(circuit.netlist, umc).run_timed(
        workload_input_planes(circuit, mapped.datapath, workload),
        spacer_assignments(circuit),
    )
    np.testing.assert_array_equal(
        reply.latency_ps, direct.max_arrival(circuit.all_output_rails(), "valid")
    )
    np.testing.assert_array_equal(reply.energy_fj, direct.energy_per_sample_fj)
