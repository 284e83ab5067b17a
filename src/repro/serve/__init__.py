"""Online inference serving for the reproduced Tsetlin-machine datapath.

The simulation layer answers *"how fast is the hardware?"*; this package
answers *"how fast can you serve requests with the software model of it?"*.
It provides:

* :mod:`~repro.serve.gateway` — an asyncio micro-batching engine that
  coalesces single-operand requests into 64-lane bitpack words (a word
  takes every request already queued and leaves as soon as the worker is
  free), with bounded-queue overload rejection and graceful
  drain-on-shutdown;
* :mod:`~repro.serve.worker` — compile-once inference workers (in-process
  or process-pool) whose classifications are bit-identical to a direct
  :func:`repro.analysis.measure.batch_functional_pass`;
* :mod:`~repro.serve.server` — a minimal JSON-lines TCP front-end;
* :mod:`~repro.serve.loadgen` — open-loop (Poisson) and closed-loop load
  generation with p50/p95/p99 SLO reporting and ``BENCH_serve.json``
  emission for the CI regression gate.

See ``docs/guides/serving.md`` for the end-to-end tour and tuning table.
"""

from .gateway import (
    FLUSH_DEADLINE,
    FLUSH_DRAIN,
    FLUSH_FULL,
    GatewayClosed,
    GatewayConfig,
    GatewayOverloaded,
    GatewayStats,
    MicroBatchGateway,
    ServeResult,
)
from .loadgen import LOAD_MODES, LoadConfig, LoadReport, run_load
from .server import InferenceServer
from .worker import (
    BatchReply,
    InferenceWorker,
    InProcessClassifier,
    ModelSpec,
    ProcessPoolClassifier,
    precompile_program,
)

__all__ = [
    "BatchReply",
    "FLUSH_DEADLINE",
    "FLUSH_DRAIN",
    "FLUSH_FULL",
    "GatewayClosed",
    "GatewayConfig",
    "GatewayOverloaded",
    "GatewayStats",
    "InferenceServer",
    "InferenceWorker",
    "InProcessClassifier",
    "LOAD_MODES",
    "LoadConfig",
    "LoadReport",
    "MicroBatchGateway",
    "ModelSpec",
    "ProcessPoolClassifier",
    "ServeResult",
    "precompile_program",
    "run_load",
]
