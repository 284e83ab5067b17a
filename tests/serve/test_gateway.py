"""Behavioural tests for the micro-batching gateway.

These drive :class:`repro.serve.MicroBatchGateway` with controllable stub
classifiers (no circuits compiled), and with a small served model where a
reply must match the batch reference, pinning the batching contract:

* a full word flushes immediately (``flush == "full"``);
* a word first takes every queued request, so a zero linger still fills
  it from the backlog;
* an under-full word flushes at the deadline, ragged (``"deadline"``);
* concurrent submitters each receive *their own* classification;
* the bounded queue rejects with :class:`GatewayOverloaded` when full;
* ``stop`` drains every admitted request before releasing the classifier;
* a classifier failure propagates to every submitter in the batch;
* a malformed submission (wrong width, non-0/1 values) fails alone,
  before admission, and its neighbours get the batch reference's replies.
"""

from __future__ import annotations

import asyncio
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.analysis import batch_functional_pass, random_workload, resolve_library
from repro.datapath.datapath import DualRailDatapath
from repro.serve import (
    FLUSH_DEADLINE,
    FLUSH_DRAIN,
    FLUSH_FULL,
    GatewayClosed,
    GatewayConfig,
    GatewayOverloaded,
    MicroBatchGateway,
    ModelSpec,
)
from repro.serve.worker import BatchReply


class EchoClassifier:
    """Replies with each operand's first feature bit; records batch shapes."""

    def __init__(self, delay_s: float = 0.0):
        self.delay_s = delay_s
        self.batch_sizes = []
        self.closed = False
        self._lock = threading.Lock()

    def classify(self, features: np.ndarray) -> BatchReply:
        if self.delay_s:
            time.sleep(self.delay_s)
        with self._lock:
            self.batch_sizes.append(features.shape[0])
        bits = [int(row[0]) for row in features]
        return BatchReply(
            verdicts=["greater" if b else "less" for b in bits],
            decisions=bits,
        )

    def close(self) -> None:
        self.closed = True


class FailingClassifier:
    """Always raises — for error-propagation tests."""

    def classify(self, features):
        raise RuntimeError("backend exploded")

    def close(self) -> None:
        pass


def run(coro):
    """Run one async test body to completion."""
    return asyncio.run(coro)


def test_full_word_flushes_immediately():
    """max_batch concurrent submissions dispatch as one full-word batch."""

    async def body():
        stub = EchoClassifier()
        gw = MicroBatchGateway(
            classifier=stub,
            config=GatewayConfig(max_batch=4, max_delay_ms=10_000.0),
        )
        await gw.start()
        results = await asyncio.gather(*(gw.submit([i % 2, 0]) for i in range(4)))
        await gw.stop()
        return stub, results

    stub, results = run(body())
    assert stub.batch_sizes == [4]
    assert [r.flush_reason for r in results] == [FLUSH_FULL] * 4
    assert [r.batch_size for r in results] == [4] * 4


def test_zero_linger_takes_the_backlog():
    """With no linger, a word still takes every request already queued."""

    async def body():
        stub = EchoClassifier()
        gw = MicroBatchGateway(
            classifier=stub,
            config=GatewayConfig(max_batch=8, max_delay_ms=0.0),
        )
        await gw.start()
        results = await asyncio.gather(*(gw.submit([1, 0]) for _ in range(8)))
        await gw.stop()
        return stub, results

    stub, results = run(body())
    assert stub.batch_sizes == [8]
    assert [r.flush_reason for r in results] == [FLUSH_FULL] * 8


def test_deadline_flushes_ragged_word():
    """An under-full word flushes at the deadline with its ragged size."""

    async def body():
        stub = EchoClassifier()
        gw = MicroBatchGateway(
            classifier=stub,
            config=GatewayConfig(max_batch=64, max_delay_ms=30.0),
        )
        await gw.start()
        results = await asyncio.gather(*(gw.submit([1, 0]) for _ in range(3)))
        await gw.stop()
        return stub, results

    stub, results = run(body())
    assert stub.batch_sizes == [3]
    assert [r.flush_reason for r in results] == [FLUSH_DEADLINE] * 3
    assert all(r.batch_size == 3 for r in results)


def test_concurrent_submitters_get_their_own_replies():
    """Replies are routed per request, not per batch position."""

    async def body():
        stub = EchoClassifier()
        gw = MicroBatchGateway(
            classifier=stub,
            config=GatewayConfig(max_batch=8, max_delay_ms=20.0),
        )
        await gw.start()

        async def one(bit):
            result = await gw.submit([bit, 1])
            return bit, result.decision

        pairs = await asyncio.gather(*(one(k % 2) for k in range(24)))
        await gw.stop()
        return pairs

    for bit, decision in run(body()):
        assert decision == bit


def test_bounded_queue_rejects_overload():
    """When the queue is full, submit fails fast with GatewayOverloaded."""

    async def body():
        stub = EchoClassifier(delay_s=0.2)
        gw = MicroBatchGateway(
            classifier=stub,
            config=GatewayConfig(max_batch=1, max_delay_ms=0.0, queue_depth=2),
        )
        await gw.start()
        first = asyncio.ensure_future(gw.submit([1]))
        await asyncio.sleep(0.05)  # let the batcher pull it and block in classify
        backlog = [asyncio.ensure_future(gw.submit([0])) for _ in range(2)]
        await asyncio.sleep(0)  # queue now holds queue_depth pending requests
        with pytest.raises(GatewayOverloaded):
            await gw.submit([0])
        results = await asyncio.gather(first, *backlog)
        await gw.stop()
        return gw, results

    gw, results = run(body())
    assert gw.stats.rejected == 1
    assert gw.stats.completed == 3
    assert [r.decision for r in results] == [1, 0, 0]


def test_stop_drains_admitted_requests():
    """Every request admitted before stop() still gets its reply."""

    async def body():
        stub = EchoClassifier(delay_s=0.05)
        gw = MicroBatchGateway(
            classifier=stub,
            config=GatewayConfig(max_batch=4, max_delay_ms=10_000.0),
        )
        await gw.start()
        # 6 requests: one full word dispatches, 2 remain queued behind the
        # busy worker slot when stop() lands — they must drain, not hang.
        pending = [asyncio.ensure_future(gw.submit([1, 0])) for _ in range(6)]
        await asyncio.sleep(0.02)
        await gw.stop()
        results = await asyncio.gather(*pending)
        with pytest.raises(GatewayClosed):
            await gw.submit([0, 0])
        return stub, gw, results

    stub, gw, results = run(body())
    assert stub.closed
    assert len(results) == 6
    assert gw.stats.completed == 6
    assert sorted(stub.batch_sizes) == [2, 4]
    assert {r.flush_reason for r in results} == {FLUSH_FULL, FLUSH_DRAIN}


def test_classifier_failure_propagates_to_all_submitters():
    """A failing batch rejects every future in it with the original error."""

    async def body():
        gw = MicroBatchGateway(
            classifier=FailingClassifier(),
            config=GatewayConfig(max_batch=2, max_delay_ms=10_000.0),
        )
        await gw.start()
        results = await asyncio.gather(
            gw.submit([1]), gw.submit([0]), return_exceptions=True
        )
        await gw.stop()
        return results

    results = run(body())
    assert len(results) == 2
    assert all(isinstance(r, RuntimeError) for r in results)
    assert all("backend exploded" in str(r) for r in results)


def test_known_width_rejects_wrong_length_per_request():
    """With a discoverable feature width, shape errors are per-request.

    The wrong-length submission fails immediately with ValueError and the
    valid request it would have been co-batched with still classifies —
    one malformed client cannot poison its micro-batch.
    """

    async def body():
        stub = EchoClassifier()
        stub.spec = SimpleNamespace(config=SimpleNamespace(num_features=2))
        gw = MicroBatchGateway(
            classifier=stub,
            config=GatewayConfig(max_batch=2, max_delay_ms=20.0),
        )
        await gw.start()
        assert gw.num_features == 2
        good = asyncio.ensure_future(gw.submit([1, 0]))
        with pytest.raises(ValueError, match="expected 2 features, got 3"):
            await gw.submit([1, 0, 1])
        with pytest.raises(ValueError, match="flat vector"):
            await gw.submit([[1, 0]])
        result = await good
        await gw.stop()
        return result

    result = run(body())
    assert result.decision == 1


@pytest.fixture(scope="module")
def served():
    """A small served model and the batch reference's reply to each operand."""
    workload = random_workload(
        num_features=2, clauses_per_polarity=2, num_operands=6, seed=5
    )
    datapath = DualRailDatapath(workload.config)
    sweep = batch_functional_pass(
        datapath, datapath.circuit, workload, resolve_library(None),
        with_activity=False, backend="batch",
    )
    return workload, list(zip(sweep.verdicts, sweep.decisions))


@pytest.mark.parametrize("bad", [[2, 0], [0.5, 1]], ids=["two", "half"])
def test_non_boolean_features_are_rejected_per_request(served, bad):
    """A non-0/1 submission fails alone; the requests beside it are served.

    Unchecked, ``[2, 0]`` fails every request of its word inside the
    engine, and ``[0.5, 1]`` is classified as ``[0, 1]``.
    """
    workload, expected = served

    async def body():
        gw = MicroBatchGateway(ModelSpec.from_workload(workload))
        await gw.start()
        try:
            good = [gw.submit(f) for f in workload.feature_vectors]
            return await asyncio.gather(
                *good[:3], gw.submit(bad), *good[3:], return_exceptions=True
            )
        finally:
            await gw.stop()

    results = run(body())
    rejected = results.pop(3)
    assert isinstance(rejected, ValueError)
    assert "0/1" in str(rejected)
    assert [(r.verdict, r.decision) for r in results] == expected
    assert {r.batch_size for r in results} == {len(expected)}  # one word


def test_mixed_length_batch_fails_without_wedging_the_gateway():
    """A ragged word (width unknown) errors out and releases its slot.

    Pre-fix, np.stack raised outside the error fan-out: every future in
    the batch hung and the dispatch slot leaked, permanently wedging the
    gateway.  Now all submitters get the error and the next word serves.
    """

    async def body():
        stub = EchoClassifier()
        gw = MicroBatchGateway(
            classifier=stub,
            config=GatewayConfig(max_batch=2, max_delay_ms=100.0),
        )
        await gw.start()
        mixed = await asyncio.gather(
            gw.submit([1]), gw.submit([1, 0]), return_exceptions=True
        )
        # workers=0 → a single dispatch slot: a leak would hang this.
        follow_up = await asyncio.wait_for(gw.submit([0]), timeout=5.0)
        await gw.stop()
        return mixed, follow_up

    mixed, follow_up = run(body())
    assert all(isinstance(r, ValueError) for r in mixed)
    assert follow_up.decision == 0


def test_submit_before_start_raises_closed():
    """A gateway that never started refuses submissions."""

    async def body():
        gw = MicroBatchGateway(classifier=EchoClassifier())
        with pytest.raises(GatewayClosed):
            await gw.submit([1])

    run(body())


def test_config_validation_and_constructor_contract():
    """Knob ranges and the spec-xor-classifier constructor rule."""
    with pytest.raises(ValueError, match="max_batch"):
        GatewayConfig(max_batch=0)
    with pytest.raises(ValueError, match="queue_depth"):
        GatewayConfig(queue_depth=0)
    with pytest.raises(ValueError, match="exactly one"):
        MicroBatchGateway()
    with pytest.raises(ValueError, match="exactly one"):
        MicroBatchGateway(spec=object(), classifier=EchoClassifier())


def test_stats_track_flush_reasons_and_efficiency():
    """Counters add up and batching_efficiency is lanes over capacity."""

    async def body():
        stub = EchoClassifier()
        gw = MicroBatchGateway(
            classifier=stub,
            config=GatewayConfig(max_batch=4, max_delay_ms=25.0),
        )
        await gw.start()
        await asyncio.gather(*(gw.submit([1]) for _ in range(4)))  # full
        await asyncio.gather(*(gw.submit([0]) for _ in range(2)))  # deadline
        await gw.stop()
        return gw

    gw = run(body())
    assert gw.stats.submitted == 6
    assert gw.stats.completed == 6
    assert gw.stats.batches == 2
    assert gw.stats.full_flushes == 1
    assert gw.stats.deadline_flushes == 1
    assert gw.stats.lanes == 6
    assert gw.stats.batching_efficiency == pytest.approx(6 / 8)


def test_stats_snapshot_is_an_independent_copy():
    """snapshot() freezes the counters; the live stats keep moving."""

    async def body():
        gw = MicroBatchGateway(
            classifier=EchoClassifier(),
            config=GatewayConfig(max_batch=4, max_delay_ms=25.0),
        )
        await gw.start()
        await asyncio.gather(*(gw.submit([1]) for _ in range(4)))
        before = gw.stats.snapshot()
        await asyncio.gather(*(gw.submit([0]) for _ in range(2)))
        await gw.stop()
        return gw, before

    gw, before = run(body())
    assert before.completed == 4
    assert gw.stats.completed == 6  # live counters moved on
    assert before is not gw.stats


def test_stats_delta_reports_the_window_only():
    """delta(since) subtracts counters but carries max_batch through."""

    async def body():
        gw = MicroBatchGateway(
            classifier=EchoClassifier(),
            config=GatewayConfig(max_batch=4, max_delay_ms=25.0),
        )
        await gw.start()
        await asyncio.gather(*(gw.submit([1]) for _ in range(4)))  # full word
        before = gw.stats.snapshot()
        await asyncio.gather(*(gw.submit([0]) for _ in range(2)))  # deadline
        await gw.stop()
        return gw.stats.delta(before)

    window = run(body())
    assert window.submitted == 2
    assert window.completed == 2
    assert window.batches == 1
    assert window.deadline_flushes == 1
    assert window.full_flushes == 0
    assert window.lanes == 2
    assert window.max_batch == 4  # configuration, not a counter
    assert window.batching_efficiency == pytest.approx(2 / 4)


def test_gateway_reports_into_an_injected_registry():
    """requests_total / flush_reason / queue depth land in the registry."""
    from repro.obs.metrics import MetricsRegistry, series_value

    async def body():
        registry = MetricsRegistry()
        gw = MicroBatchGateway(
            classifier=EchoClassifier(),
            config=GatewayConfig(max_batch=4, max_delay_ms=25.0),
            registry=registry,
        )
        await gw.start()
        await asyncio.gather(*(gw.submit([1]) for _ in range(4)))
        await gw.stop()
        return registry

    registry = run(body())
    snapshot = registry.snapshot()
    assert series_value(snapshot["requests_total"], outcome="submitted") == 4
    assert series_value(snapshot["requests_total"], outcome="completed") == 4
    assert series_value(snapshot["flush_reason"], reason=FLUSH_FULL) == 1
    assert "gateway_queue_depth" in snapshot
