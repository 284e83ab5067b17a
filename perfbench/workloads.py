"""The benchmark's two workloads, one repetition each.

Every workload is a job with three phases, run in one fresh process by
``rep.py``:

* ``setup()`` builds the inputs from the seed (and, for serving, starts
  and warms the gateway).  Its time is ``setup_s``.
* ``measure()`` is the timed phase: what a user of that workload waits for.
  It records the operations it completed (``ops``) and their latencies.
* ``check(full)`` runs after the timed phase and counts in no metric.  It
  returns ``(attempted, failed, problems)``: the outputs checked, how many
  of them were wrong, and a line for each problem found.  ``full`` adds the
  cross-checks against the event-driven simulator, which take seconds, so
  a run makes them in its first repetition only.

An operation is what a user of the workload asks for: one design point or
one served request.
"""

from __future__ import annotations

import asyncio
import math
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from layers import LayerTracer, TracedClassifier, percentile

#: Documented agreement of the vectorized timing engine with the event oracle.
RTOL = 1e-9

#: Serving: operands in the request pool (request k sends operand k % 256).
SERVE_OPERANDS = 256
SERVE_RATE = 3000.0
SERVE_REQUESTS = 6000
WARMUP_REQUESTS = 1024
#: Admission queue: a host stall of ~0.3 s at the open-loop rate must not
#: turn into rejected requests (the default 256 holds ~85 ms of arrivals).
QUEUE_DEPTH = 1024


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=RTOL, abs_tol=0.0)


class DseJob:
    """The smoke design-space sweep, serial, with no store or program cache."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.op_latencies_ms: List[float] = []

    def setup(self) -> None:
        import repro.explore.evaluate as evaluate
        from repro.explore import EvaluationSettings, named_grid

        self.grid = named_grid("smoke")
        self.settings = EvaluationSettings(seed=self.seed)
        self.evaluate_point = evaluate.evaluate_point
        self.timing = False

        def timed_point(*args, **kwargs):
            start = time.perf_counter()
            point = self.evaluate_point(*args, **kwargs)
            if self.timing:
                self.op_latencies_ms.append((time.perf_counter() - start) * 1e3)
            return point

        # run_sweep's worker calls the module global, so this sees every point.
        evaluate.evaluate_point = timed_point

    def measure(self) -> None:
        from repro.explore import run_sweep

        self.timing = True
        self.result = run_sweep(self.grid, settings=self.settings,
                                timing_backend="bitpack", jobs=1)
        self.timing = False

    def check(self, full: bool) -> Tuple[int, int, List[str]]:
        from repro.datapath.styles import is_dual_rail

        problems = []
        wrong = set()
        expected = len(self.grid.expand().points)
        points = self.result.points
        missing = abs(expected - len(points))
        if missing:
            problems.append(f"{len(points)} of {expected} points")
        for point in points:
            if point.hardware_correctness != 1.0:
                wrong.add(point.spec.label())
                problems.append(f"{point.spec.label()}: hardware correctness "
                                f"{point.hardware_correctness}")
        # A fixed handful of dual-rail points, re-evaluated fully event-driven.
        dual = [p for p in points if is_dual_rail(p.spec.style)]
        picks = sorted({0, len(dual) // 3, 2 * len(dual) // 3, len(dual) - 1}) if full else []
        for point in (dual[i] for i in picks):
            event = self.evaluate_point(point.spec, self.settings, backend="event",
                                        timing_backend="event")
            label = point.spec.label()
            for name in ("mean_latency_ps", "p95_latency_ps", "max_latency_ps",
                         "energy_per_inference_fj", "area_um2", "cell_count"):
                timed, reference = getattr(point, name), getattr(event, name)
                exact = name in ("area_um2", "cell_count")
                if (timed != reference) if exact else not _close(timed, reference):
                    wrong.add(label)
                    problems.append(f"{label} {name}: {timed} != event {reference}")
        return max(expected, len(points)) + len(picks), missing + len(wrong), problems

    def close(self) -> None:
        import repro.explore.evaluate as evaluate

        evaluate.evaluate_point = self.evaluate_point


class ServeJob:
    """The in-process bitpack gateway under open-loop Poisson arrivals.

    The job drives ``gateway.submit`` itself in the shape of
    ``repro.serve.loadgen``'s open loop so that it knows each request's send
    and reply times.  Requests are timed from their scheduled send, so a
    stall is charged to every request it delays.
    """

    def __init__(self, seed: int, tracer: Optional[LayerTracer]) -> None:
        self.seed = seed
        self.tracer = tracer
        self.op_latencies_ms: List[float] = []
        self.loop = asyncio.new_event_loop()

    # ------------------------------------------------------------- set-up
    def setup(self) -> None:
        from repro.analysis import random_workload
        from repro.serve import GatewayConfig, InProcessClassifier, MicroBatchGateway, ModelSpec

        self.workload = random_workload(
            num_features=4, clauses_per_polarity=8, num_operands=SERVE_OPERANDS,
            seed=self.seed,
        )
        classifier = InProcessClassifier(ModelSpec.from_workload(self.workload))
        if self.tracer is not None:
            classifier = TracedClassifier(classifier, self.tracer)
        self.classifier = classifier
        self.gateway = MicroBatchGateway(
            classifier=classifier, config=GatewayConfig(queue_depth=QUEUE_DEPTH)
        )
        self.loop.run_until_complete(self.gateway.start())
        # A discarded burst of the measured shape: the lazy kernel plan and
        # the session's per-batch-size constant planes are built here.
        self.loop.run_until_complete(self._drive(WARMUP_REQUESTS, self.seed + 1))

    # ------------------------------------------------------------ driving
    def _reset(self) -> None:
        self.queued: List[int] = []
        self.scheduled: Dict[int, float] = {}
        self.sent: Dict[int, float] = {}
        self.replied: Dict[int, float] = {}
        self.results: Dict[int, object] = {}
        self.rejected = 0
        self.errors: List[str] = []

    async def _send(self, index: int, scheduled: float) -> None:
        from repro.serve import GatewayOverloaded

        operands = self.workload.feature_vectors
        self.sent[index] = time.perf_counter()
        self.scheduled[index] = scheduled
        # submit enqueues before its first await, so this is queue order.
        self.queued.append(index)
        try:
            result = await self.gateway.submit(operands[index % len(operands)])
        except GatewayOverloaded:
            self.queued.remove(index)
            self.rejected += 1
            return
        except Exception as err:  # a failed word fails each of its requests
            self.errors.append(f"request {index}: {err!r}")
            return
        self.replied[index] = time.perf_counter()
        self.results[index] = result

    async def _drive(self, requests: int, seed: int) -> None:
        self._reset()
        gaps = np.random.default_rng(seed).exponential(1.0 / SERVE_RATE, requests)
        tasks = []
        due = time.perf_counter()
        for index in range(requests):
            due += float(gaps[index])
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.create_task(self._send(index, scheduled=due)))
        await asyncio.gather(*tasks)

    # ------------------------------------------------------------ measure
    def measure(self) -> None:
        before = self.gateway.stats.snapshot()
        if self.tracer is not None:
            self.classifier.words.clear()
            self.classifier.recording = True
        self.loop.run_until_complete(self._drive(SERVE_REQUESTS, self.seed))
        if self.tracer is not None:
            self.classifier.recording = False
        self.window = self.gateway.stats.delta(before)
        self.op_latencies_ms.extend(
            (self.replied[k] - self.scheduled[k]) * 1e3 for k in sorted(self.replied)
        )

    def layer_metrics(self) -> Dict[str, float]:
        """Serving layers: worker, kernel word, gateway wait and reply, batching."""
        tracer = self.tracer
        words = self.classifier.words
        classify = [s.duration * 1e3 for s in tracer.of("worker.classify")]
        kernel = [s.duration * 1e3 for s in tracer.of("kernels.word")]
        marshal = [c - k for c, k in zip(classify, kernel)]
        wait, reply = [], []
        cursor = 0
        for start, end, lanes in words:
            for index in self.queued[cursor: cursor + lanes]:
                if index not in self.replied:
                    continue
                wait.append((start - self.scheduled[index]) * 1e3)
                reply.append((self.replied[index] - end) * 1e3)
                tracer.record("gateway.wait", self.scheduled[index], start)
                tracer.record("gateway.reply", end, self.replied[index])
            cursor += lanes
        batches = max(self.window.batches, 1)
        return {
            "worker.classify_ms.p50": percentile(classify, 50),
            "worker.classify_ms.p99": percentile(classify, 99),
            "worker.marshal_ms.p50": percentile(marshal, 50),
            "kernels.word_ms.p50": percentile(kernel, 50),
            "gateway.wait_ms.p50": percentile(wait, 50),
            "gateway.wait_ms.p99": percentile(wait, 99),
            "gateway.reply_ms.p50": percentile(reply, 50),
            "gateway.reply_ms.p99": percentile(reply, 99),
            "gateway.words": float(self.window.batches),
            "gateway.lanes_per_word": self.window.lanes / batches,
            "gateway.deadline_flush_frac": self.window.deadline_flushes / batches,
            # How late the open-loop generator sent against its schedule.
            "loadgen.lag_p99_ms": percentile(
                [(self.sent[k] - self.scheduled[k]) * 1e3 for k in self.sent], 99
            ),
        }

    # -------------------------------------------------------------- check
    def check(self, full: bool) -> Tuple[int, int, List[str]]:
        # The reference is the software model's vote count, which shares no
        # code with the netlist, the compiled program or the bitpack kernel
        # the gateway serves from.
        model = self.workload.model
        golden = []
        for operand in self.workload.feature_vectors:
            positive, negative = model.vote_counts(operand)
            verdict = ("greater" if positive > negative
                       else "equal" if positive == negative else "less")
            golden.append((verdict, model.decision(operand)))
        pool = len(golden)
        problems = list(self.errors)
        if self.rejected:
            problems.append(f"{self.rejected} requests rejected")
        mismatched = [
            k for k, result in self.results.items()
            if (result.verdict, result.decision) != golden[k % pool]
        ]
        if mismatched:
            problems.append(f"{len(mismatched)} replies differ from the model's votes, "
                            f"first request {min(mismatched)}")
        failed = self.rejected + len(self.errors) + len(mismatched)
        return len(self.sent), failed, problems

    def close(self) -> None:
        if hasattr(self, "gateway"):
            self.loop.run_until_complete(self.gateway.stop())
        self.loop.close()


def make_job(name: str, seed: int, tracer: Optional[LayerTracer]):
    """The job for workload *name*."""
    if name == "dse-smoke":
        return DseJob(seed)
    if name == "serve-open":
        return ServeJob(seed, tracer)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("dse-smoke", "serve-open")
