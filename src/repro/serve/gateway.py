"""Asyncio micro-batching gateway over the bitpack inference engine.

The bitpack engine evaluates 64 samples per machine word, but a serving
workload arrives one operand at a time.  This module closes that gap with
*micro-batching*: single-operand requests are queued and coalesced into one
feature matrix for a compile-once worker.  Batching is work-conserving:
when the dispatch slot is free, a word takes every request already queued
(up to ``max_batch``, default 64 — one bitpack lane per request) and
leaves.  The word is

* **full** when it reached ``max_batch`` requests, or
* flushed at its **deadline** otherwise: ``max_delay_ms`` after the request
  that opened it, 0 by default, so an under-full word does not linger.

Every request gets its own :class:`asyncio.Future`; the batch reply is
fanned back out in request order, so concurrent submitters always receive
their own classification.  Admission is bounded (``queue_depth``): when the
queue is full, :meth:`MicroBatchGateway.submit` fails fast with
:class:`GatewayOverloaded` instead of letting latency grow without bound —
the standard explicit-overload-rejection discipline for SLO-driven
services.

Backpressure shapes the batches.  The gateway dispatches at most as many
micro-batches concurrently as the classifier has workers.  While all
workers are busy, requests queue, and the next word takes them all at
once, so occupancy rises exactly when the system is loaded — adaptive
batching without a tuning loop.  An in-process classifier runs each word
on the event loop itself; a process pool runs it in a worker process.

Shutdown is graceful: :meth:`MicroBatchGateway.stop` rejects new
submissions, drains every queued request through the normal batch path,
waits for in-flight replies and only then releases the classifier.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field, replace
from typing import List, Optional, Set

import numpy as np

from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.sim.backends.bitpack import WORD_BITS

from .worker import (
    BatchReply,
    InProcessClassifier,
    ModelSpec,
    ProcessPoolClassifier,
    _classify_in_process,
    feature_bits,
)

#: Flush-reason labels recorded on every dispatched micro-batch.
FLUSH_FULL = "full"
FLUSH_DEADLINE = "deadline"
FLUSH_DRAIN = "drain"


class GatewayOverloaded(RuntimeError):
    """Raised by ``submit`` when the bounded request queue is full."""


class GatewayClosed(RuntimeError):
    """Raised by ``submit`` after ``stop`` has begun (or before ``start``)."""


@dataclass
class GatewayConfig:
    """Tuning knobs of the micro-batching engine.

    Attributes
    ----------
    max_batch:
        Lanes per micro-batch; the default is one full bitpack word
        (:data:`~repro.sim.backends.bitpack.WORD_BITS` = 64 lanes).
    max_delay_ms:
        How long an under-full word may wait for more requests, from the
        request that *opens* it.  The default 0 flushes a word as soon as
        the queue is empty; the word still carries everything that queued
        while the previous word ran.  See the serving guide's tuning table.
    queue_depth:
        Bounded admission queue; beyond it, submissions are rejected with
        :class:`GatewayOverloaded`.
    workers:
        ``0`` = in-process classification, on the event loop;
        ``N >= 1`` = a :class:`~repro.serve.worker.ProcessPoolClassifier`
        with *N* compile-once worker processes.
    """

    max_batch: int = WORD_BITS
    max_delay_ms: float = 0.0
    queue_depth: int = 256
    workers: int = 0

    def __post_init__(self) -> None:
        """Validate the knob ranges."""
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_delay_ms < 0:
            raise ValueError(f"max_delay_ms must be >= 0, got {self.max_delay_ms}")
        if self.queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {self.queue_depth}")
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers}")


@dataclass
class ServeResult:
    """One request's classification plus its batch provenance.

    ``model_latency_ps`` / ``model_energy_fj`` carry the timed engine's
    per-sample simulated-hardware attribution when the model spec enabled
    it (``None`` otherwise) — the service-level reply quotes the same
    quantities the paper's latency/energy harnesses measure.
    """

    verdict: str
    decision: int
    batch_size: int
    flush_reason: str
    model_latency_ps: Optional[float] = None
    model_energy_fj: Optional[float] = None


@dataclass
class GatewayStats:
    """Monotonic counters the gateway keeps while serving.

    ``batching_efficiency`` is mean dispatched occupancy over ``max_batch``
    — 1.0 means every dispatched word was full.

    The counters only ever grow, which makes "how did *this* window go?"
    questions error-prone to answer by hand.  Take a :meth:`snapshot`
    before the window and a :meth:`delta` after it::

        before = gateway.stats.snapshot()
        ...  # drive load
        window = gateway.stats.delta(before)   # per-window counters

    ``run_load`` and the serve-smoke CI job both read per-run values this
    way instead of subtracting individual fields.
    """

    submitted: int = 0
    completed: int = 0
    rejected: int = 0
    batches: int = 0
    lanes: int = 0
    full_flushes: int = 0
    deadline_flushes: int = 0
    drain_flushes: int = 0
    max_batch: int = WORD_BITS

    @property
    def batching_efficiency(self) -> float:
        """Mean lanes per dispatched micro-batch, as a fraction of a word."""
        if self.batches == 0:
            return 0.0
        return self.lanes / (self.batches * self.max_batch)

    def snapshot(self) -> "GatewayStats":
        """An immutable copy of the counters as of now."""
        return replace(self)

    def delta(self, since: "GatewayStats") -> "GatewayStats":
        """The per-window counters accumulated since *since*.

        ``max_batch`` is configuration, not a counter, so it carries over
        unchanged — ``delta(...).batching_efficiency`` is therefore the
        *window's* efficiency.
        """
        return GatewayStats(
            submitted=self.submitted - since.submitted,
            completed=self.completed - since.completed,
            rejected=self.rejected - since.rejected,
            batches=self.batches - since.batches,
            lanes=self.lanes - since.lanes,
            full_flushes=self.full_flushes - since.full_flushes,
            deadline_flushes=self.deadline_flushes - since.deadline_flushes,
            drain_flushes=self.drain_flushes - since.drain_flushes,
            max_batch=self.max_batch,
        )


@dataclass
class _Pending:
    """A queued request: its operand and the future its reply resolves."""

    features: np.ndarray
    future: "asyncio.Future[ServeResult]" = field(repr=False)


#: Queue sentinel that tells the batching loop to drain and exit.
_SHUTDOWN = object()


class MicroBatchGateway:
    """The asyncio micro-batching engine fronting a compiled model.

    Usage::

        gateway = MicroBatchGateway(spec)
        await gateway.start()
        result = await gateway.submit([0, 1, 1, 0])
        await gateway.stop()

    ``submit`` may be called from any number of tasks concurrently; replies
    are routed per request.  The classifier may also be injected (any
    object with ``classify(features) -> BatchReply`` and ``close()``),
    which is how the tests drive the batching logic with controllable
    stubs.
    """

    def __init__(
        self,
        spec: Optional[ModelSpec] = None,
        config: Optional[GatewayConfig] = None,
        classifier=None,
        registry: Optional[_metrics.MetricsRegistry] = None,
    ) -> None:
        if (spec is None) == (classifier is None):
            raise ValueError("provide exactly one of spec or classifier")
        self.config = config or GatewayConfig()
        self._spec = spec
        self._classifier = classifier
        self._num_features = self._resolve_num_features(spec, classifier)
        self._queue: Optional[asyncio.Queue] = None
        self._batcher: Optional[asyncio.Task] = None
        self._dispatches: Set[asyncio.Task] = set()
        self._dispatch_slots: Optional[asyncio.Semaphore] = None
        self._running = False
        self._closing = False
        self.stats = GatewayStats(max_batch=self.config.max_batch)
        #: The metrics registry this gateway reports into (the process-wide
        #: default unless injected); also what the TCP ``metrics`` command
        #: renders.
        self.registry = registry or _metrics.default_registry()
        self._requests_total = self.registry.counter(
            "requests_total", "Gateway requests by outcome."
        )
        self._flush_reason = self.registry.counter(
            "flush_reason", "Dispatched micro-batches by flush reason."
        )
        self._queue_depth = self.registry.gauge(
            "gateway_queue_depth", "Requests waiting in the admission queue."
        )

    @staticmethod
    def _resolve_num_features(spec, classifier) -> Optional[int]:
        """The served model's feature width, when discoverable.

        Known from the spec, or from an injected classifier that exposes
        one (``.spec`` on the pool shape, ``.worker.spec`` in-process);
        ``None`` for bare stub classifiers, which disables length checks.
        """
        for candidate in (
            spec,
            getattr(classifier, "spec", None),
            getattr(getattr(classifier, "worker", None), "spec", None),
        ):
            config = getattr(candidate, "config", None)
            if config is not None and hasattr(config, "num_features"):
                return int(config.num_features)
        return None

    @property
    def num_features(self) -> Optional[int]:
        """Expected feature-vector length (``None`` when unknown)."""
        return self._num_features

    # ------------------------------------------------------------ lifecycle
    async def start(self) -> None:
        """Compile the model (or pool) and start the batching loop."""
        if self._running:
            raise RuntimeError("gateway is already running")
        loop = asyncio.get_running_loop()
        if self._classifier is None:
            if self.config.workers > 0:
                self._classifier = await loop.run_in_executor(
                    None,
                    lambda: ProcessPoolClassifier(self._spec, self.config.workers),
                )
            else:
                self._classifier = await loop.run_in_executor(
                    None, InProcessClassifier, self._spec
                )
        self._queue = asyncio.Queue(maxsize=self.config.queue_depth)
        self._dispatch_slots = asyncio.Semaphore(max(1, self.config.workers))
        self._closing = False
        self._running = True
        self._batcher = asyncio.create_task(self._run())

    async def stop(self) -> None:
        """Graceful shutdown: drain queued work, then release the classifier.

        New submissions are rejected immediately; every request admitted
        before the call still receives its reply.
        """
        if not self._running:
            return
        self._closing = True
        assert self._queue is not None
        await self._queue.put(_SHUTDOWN)
        assert self._batcher is not None
        await self._batcher
        if self._dispatches:
            await asyncio.gather(*tuple(self._dispatches))
        self._running = False
        if self._classifier is not None:
            self._classifier.close()

    # ----------------------------------------------------------- submission
    async def submit(self, features) -> ServeResult:
        """Classify one operand; resolves when its micro-batch completes.

        Raises
        ------
        GatewayOverloaded
            When the bounded queue is full (explicit overload rejection).
        GatewayClosed
            Before :meth:`start` or after :meth:`stop` has begun.
        ValueError
            When *features* is not a flat vector of 0/1 values of the
            served model's width.  These errors are rejected here, per
            request, so one malformed submission can never poison the
            micro-batch it would have been coalesced into.
        """
        if not self._running or self._closing or self._queue is None:
            raise GatewayClosed("gateway is not accepting requests")
        operand = np.asarray(features)
        if operand.ndim != 1:
            raise ValueError(
                f"features must be a flat vector, got shape {operand.shape}"
            )
        if self._num_features is not None and operand.shape[0] != self._num_features:
            raise ValueError(
                f"expected {self._num_features} features, got {operand.shape[0]}"
            )
        operand = feature_bits(operand)
        loop = asyncio.get_running_loop()
        pending = _Pending(features=operand, future=loop.create_future())
        with _trace.span("gateway.submit"):
            try:
                self._queue.put_nowait(pending)
            except asyncio.QueueFull:
                self.stats.rejected += 1
                self._requests_total.inc(outcome="rejected")
                raise GatewayOverloaded(
                    f"request queue is full ({self.config.queue_depth} pending)"
                ) from None
            self.stats.submitted += 1
            self._requests_total.inc(outcome="submitted")
            self._queue_depth.set(self._queue.qsize())
            return await pending.future

    # ------------------------------------------------------------- batching
    async def _run(self) -> None:
        """The batching loop: take what is queued, flush on full or deadline."""
        assert self._queue is not None and self._dispatch_slots is not None
        loop = asyncio.get_running_loop()
        draining = False
        while not draining:
            # A worker slot gates the *collection* of the next word, not
            # just its dispatch: while every worker is busy requests queue,
            # and the next word takes them all — adaptive batching under load.
            await self._dispatch_slots.acquire()
            first = await self._queue.get()
            if first is _SHUTDOWN:
                self._dispatch_slots.release()
                break
            with _trace.span("gateway.flush") as flush_span:
                batch: List[_Pending] = [first]
                deadline = loop.time() + self.config.max_delay_ms / 1e3
                flush_reason = FLUSH_FULL
                while len(batch) < self.config.max_batch:
                    # Drain the backlog first: only an under-full word with
                    # an empty queue looks at the deadline.
                    try:
                        item = self._queue.get_nowait()
                    except asyncio.QueueEmpty:
                        remaining = deadline - loop.time()
                        if remaining <= 0:
                            flush_reason = FLUSH_DEADLINE
                            break
                        try:
                            item = await asyncio.wait_for(self._queue.get(), remaining)
                        except asyncio.TimeoutError:
                            flush_reason = FLUSH_DEADLINE
                            break
                    if item is _SHUTDOWN:
                        flush_reason = FLUSH_DRAIN
                        draining = True
                        break
                    batch.append(item)
                flush_span.add(lanes=len(batch), reason=flush_reason)
                self._dispatch(batch, flush_reason)
        # Serve any requests that raced their way in behind the sentinel.
        leftovers: List[_Pending] = []
        while True:
            try:
                item = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if item is not _SHUTDOWN:
                leftovers.append(item)
        for start in range(0, len(leftovers), self.config.max_batch):
            await self._dispatch_slots.acquire()
            word = leftovers[start: start + self.config.max_batch]
            with _trace.span("gateway.flush", lanes=len(word), reason=FLUSH_DRAIN):
                self._dispatch(word, FLUSH_DRAIN)

    def _dispatch(self, batch: List[_Pending], flush_reason: str) -> None:
        """Hand one collected word to the classifier without blocking."""
        self.stats.batches += 1
        self.stats.lanes += len(batch)
        if flush_reason == FLUSH_FULL:
            self.stats.full_flushes += 1
        elif flush_reason == FLUSH_DEADLINE:
            self.stats.deadline_flushes += 1
        else:
            self.stats.drain_flushes += 1
        self._flush_reason.inc(reason=flush_reason)
        if self._queue is not None:
            self._queue_depth.set(self._queue.qsize())
        # The classify task copies this context at creation, so its spans
        # nest under the surrounding gateway.flush span.
        task = asyncio.create_task(self._classify(batch, flush_reason))
        self._dispatches.add(task)
        task.add_done_callback(self._dispatches.discard)

    async def _classify(self, batch: List[_Pending], flush_reason: str) -> None:
        """Classify one micro-batch and fan the results back out.

        Without a process pool the word runs here, on the event loop: it
        holds the interpreter lock throughout, so a thread would only add
        two handoffs per word.
        """
        assert self._dispatch_slots is not None
        pool = getattr(self._classifier, "pool", None)
        try:
            with _trace.span("gateway.dispatch", lanes=len(batch),
                             reason=flush_reason):
                # Inside the try so a ragged batch (possible only when the
                # feature width is unknown at submit) still fans the error
                # out to every future and releases the dispatch slot.
                features = np.stack([p.features for p in batch])
                if pool is None:
                    reply: BatchReply = self._classifier.classify(features)
                else:
                    reply = await asyncio.get_running_loop().run_in_executor(
                        pool, _classify_in_process, features
                    )
        except Exception as err:  # propagate the failure to every submitter
            for pending in batch:
                if not pending.future.done():
                    pending.future.set_exception(err)
            return
        finally:
            self._dispatch_slots.release()
        with _trace.span("gateway.complete", lanes=len(batch)):
            for index, pending in enumerate(batch):
                if pending.future.done():
                    continue
                pending.future.set_result(
                    ServeResult(
                        verdict=reply.verdicts[index],
                        decision=reply.decisions[index],
                        batch_size=reply.samples,
                        flush_reason=flush_reason,
                        model_latency_ps=(
                            reply.latency_ps[index] if reply.latency_ps else None
                        ),
                        model_energy_fj=(
                            reply.energy_fj[index] if reply.energy_fj else None
                        ),
                    )
                )
                self.stats.completed += 1
                self._requests_total.inc(outcome="completed")
