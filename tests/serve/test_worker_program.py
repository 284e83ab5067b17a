"""Serving-layer integration of the compiled-IR program and its cache.

A 2-worker :class:`ProcessPoolClassifier` given a program cache must compile
the served netlist exactly once (in the parent — trace-verified via the
``backend.compile`` span) and classify bit-identically to the seed path;
a :class:`ModelSpec` can also carry a precompiled program directly, and a
program compiled from a different netlist is rejected.  A served word
records a fixed number of spans, however deep the program.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import random_workload
from repro.obs import trace
from repro.serve.worker import (
    InferenceWorker,
    InProcessClassifier,
    ModelSpec,
    ProcessPoolClassifier,
    precompile_program,
)
from repro.sim.kernels import fused_kernel


@pytest.fixture(scope="module")
def workload():
    return random_workload(
        num_features=3, clauses_per_polarity=4, num_operands=6, seed=17
    )


@pytest.fixture(scope="module")
def features(workload):
    return np.asarray(workload.feature_vectors, dtype=np.uint8)


@pytest.fixture(scope="module")
def seed_reply(workload, features):
    return InProcessClassifier(ModelSpec.from_workload(workload)).classify(features)


def test_pool_with_cache_compiles_exactly_once(tmp_path, workload, features, seed_reply):
    spec = ModelSpec.from_workload(workload, program_cache=str(tmp_path))
    with trace.capture() as captured:
        pool = ProcessPoolClassifier(spec, workers=2)
        try:
            replies = [pool.classify(features) for _ in range(3)]
        finally:
            pool.close()
    compiles = [r for r in captured.records if r.name == "backend.compile"]
    assert len(compiles) == 1  # the parent pre-warm; workers get the artifact
    # the pre-warm stored the artifact for future server processes
    assert len(list(tmp_path.glob("*.json"))) == 1
    assert pool.spec.program is not None
    for reply in replies:
        assert reply.decisions == seed_reply.decisions
        assert reply.verdicts == seed_reply.verdicts


def test_spec_with_precompiled_program(workload, features, seed_reply):
    program = precompile_program(ModelSpec.from_workload(workload))
    with trace.capture() as captured:
        worker = InferenceWorker(ModelSpec.from_workload(workload, program=program))
        reply = worker.classify(features)
    assert [r for r in captured.records if r.name == "backend.compile"] == []
    assert reply.decisions == seed_reply.decisions


def test_mismatched_program_is_rejected(workload):
    other = random_workload(
        num_features=2, clauses_per_polarity=2, num_operands=2, seed=5
    )
    foreign = precompile_program(ModelSpec.from_workload(other))
    spec = ModelSpec.from_workload(workload, program=foreign)
    with pytest.raises(ValueError, match="different netlist"):
        InferenceWorker(spec)


def test_cache_only_worker_loads_from_disk(tmp_path, workload, features, seed_reply):
    warm = precompile_program(
        ModelSpec.from_workload(workload, program_cache=str(tmp_path))
    )
    with trace.capture() as captured:
        worker = InferenceWorker(
            ModelSpec.from_workload(workload, program_cache=str(tmp_path))
        )
        reply = worker.classify(features)
    assert [r for r in captured.records if r.name == "backend.compile"] == []
    load = next(r for r in captured.records if r.name == "program.cache.load")
    assert load.attrs["hit"] is True
    assert worker.session.program == warm
    assert reply.decisions == seed_reply.decisions


def test_spans_per_served_word_do_not_grow_with_depth():
    """One traced 1-lane classify on the served model records at most 4 spans."""
    served = random_workload(
        num_features=4, clauses_per_polarity=8, num_operands=4, seed=1
    )
    worker = InferenceWorker(ModelSpec.from_workload(served))
    assert len(fused_kernel(worker.session.program).plan.levels) >= 20
    features = np.asarray(served.feature_vectors[:1], dtype=np.uint8)
    with trace.capture() as captured:
        worker.classify(features)
    names = [record.name for record in captured.records]
    assert "worker.classify" in names
    assert len(names) <= 4, names
