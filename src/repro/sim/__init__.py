"""Event-driven gate-level simulation, timing, power and voltage analysis.

Contents:

* :mod:`repro.sim.events`, :mod:`repro.sim.simulator`, :mod:`repro.sim.waveform`
  — the discrete-event gate-level simulator and its traces;
* :mod:`repro.sim.handshake` — dual-rail (spacer/valid) and synchronous
  (clocked) stimulus environments with per-operand measurements;
* :mod:`repro.sim.monitors` — runtime checks of the paper's protocol
  requirements (monotonicity, forbidden states, completion ordering);
* :mod:`repro.sim.power` — switching-activity energy and power accounting;
* :mod:`repro.sim.sta` — static timing analysis (grace periods, clock period);
* :mod:`repro.sim.voltage` — supply-voltage sweep machinery (Figure 3);
* :mod:`repro.sim.backends` — pluggable simulation backends: the
  event-driven reference (``"event"``), the levelized vectorized batch
  engine (``"batch"``) and the bit-packed 64-lane engine (``"bitpack"``)
  behind the fast experiment sweeps;
* :mod:`repro.sim.program` / :mod:`repro.sim.program_cache` — the
  serializable :class:`CompiledProgram` IR every levelized consumer
  executes (``compile_program(netlist, library)`` →
  ``get_backend(name, program=...)``), and its content-hash-addressed
  on-disk cache shared across worker processes;
* :mod:`repro.sim.kernels` — the grouped-kernel execution engine of the
  bitpack backend: per-level gather/scatter groups compiled into AND/OR
  reduce steps over one stacked plane matrix, a few steps per level.
"""

from .backends import (
    BackendError,
    BatchBackend,
    BatchResult,
    BitpackBackend,
    EventBackend,
    SimulationBackend,
    TimedBatchResult,
    TimedProgram,
    available_backends,
    get_backend,
)
from .kernels import FusedKernel, GroupedPlan, build_grouped_plan
from .program import (
    PROGRAM_COMPILER_VERSION,
    CompiledProgram,
    ProgramOp,
    compile_program,
    netlist_fingerprint,
)
from .program_cache import ProgramCache, program_cache_key
from .events import Event, EventQueue
from .handshake import (
    DualRailEnvironment,
    DualRailInferenceResult,
    SynchronousCycleResult,
    SynchronousEnvironment,
)
from .monitors import (
    ActivityCounter,
    CompletionObserver,
    ForbiddenStateMonitor,
    MonotonicityMonitor,
    ProtocolViolation,
    Violation,
)
from .power import EnergyBreakdown, PowerAccountant, PowerReport
from .simulator import (
    GateLevelSimulator,
    Monitor,
    SimulationError,
    TransitionRecord,
    WIRE_CAP_PER_FANOUT_FF,
)
from .sta import (
    TimingReport,
    arrival_of_nets,
    cell_output_delay,
    output_load,
    register_to_register_period,
    static_timing_analysis,
)
from .voltage import (
    FIGURE3_VOLTAGES,
    VoltagePoint,
    delay_scaling_curve,
    exponential_region_slope,
    latency_ratio,
    sweep_supply_voltages,
)
from .waveform import NetTrace, Waveform

__all__ = [
    "ActivityCounter",
    "BackendError",
    "BatchBackend",
    "BitpackBackend",
    "BatchResult",
    "CompletionObserver",
    "DualRailEnvironment",
    "DualRailInferenceResult",
    "EnergyBreakdown",
    "Event",
    "EventBackend",
    "EventQueue",
    "FIGURE3_VOLTAGES",
    "ForbiddenStateMonitor",
    "FusedKernel",
    "GateLevelSimulator",
    "GroupedPlan",
    "Monitor",
    "MonotonicityMonitor",
    "NetTrace",
    "PowerAccountant",
    "PowerReport",
    "ProtocolViolation",
    "SimulationBackend",
    "SimulationError",
    "SynchronousCycleResult",
    "SynchronousEnvironment",
    "TimedBatchResult",
    "TimedProgram",
    "TimingReport",
    "TransitionRecord",
    "Violation",
    "VoltagePoint",
    "WIRE_CAP_PER_FANOUT_FF",
    "Waveform",
    "arrival_of_nets",
    "available_backends",
    "build_grouped_plan",
    "cell_output_delay",
    "delay_scaling_curve",
    "exponential_region_slope",
    "get_backend",
    "latency_ratio",
    "output_load",
    "register_to_register_period",
    "static_timing_analysis",
    "sweep_supply_voltages",
]
