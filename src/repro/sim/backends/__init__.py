"""Pluggable simulation backends (event-driven vs vectorized vs bit-packed).

See :mod:`repro.sim.backends.base` for the protocol and the guidance on when
to use which backend.  Summary:

* ``get_backend("event", netlist, library)`` — timing-accurate event-driven
  reference (latency, grace periods, waveforms, glitch-accurate power);
* ``get_backend("batch", netlist, library)`` — levelized NumPy engine for
  whole batches of input vectors (functional sweeps, correctness checks,
  cycle-level switching activity) at orders-of-magnitude higher
  throughput; the one-cell-at-a-time reference interpreter;
* ``get_backend("bitpack", netlist, library)`` — the bit-packed 64-lane
  engine: 64 samples per ``uint64`` word, two bit-planes per net, each
  level a few AND/OR reduce steps over the stacked planes.  The fastest
  functional backend, bit-identical to ``"batch"``.

The vectorized backends additionally expose ``run_timed`` — the
data-dependent timing engine (:mod:`repro.sim.backends.timed`): per-sample
arrival times and switching energy for whole batches of handshake cycles,
computed over the same grouped plan the bitpack kernel runs and
equivalent to the event-driven environment on monotonic netlists within
float re-association accuracy (see the module docstring for the contract).
"""

from .base import (
    BackendError,
    BatchResult,
    SimulationBackend,
    available_backends,
    classify_cell_type,
    get_backend,
    register_backend,
)
from .batch import ArrayBatchResult, BatchBackend
from .bitpack import BitpackBackend, BoundProgram, PackedBatchResult
from .event import EventBackend
from .timed import TimedBatchResult, TimedProgram

__all__ = [
    "ArrayBatchResult",
    "classify_cell_type",
    "BackendError",
    "BatchBackend",
    "BatchResult",
    "BitpackBackend",
    "BoundProgram",
    "EventBackend",
    "PackedBatchResult",
    "SimulationBackend",
    "TimedBatchResult",
    "TimedProgram",
    "available_backends",
    "get_backend",
    "register_backend",
]
