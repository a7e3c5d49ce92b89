"""Fault-tolerant, observable run orchestration.

The production layer over the drivers: declarative
:class:`~repro.runtime.config.RunConfig` (JSON/TOML), the
:class:`~repro.runtime.runner.SimulationRunner` with checkpoint cadence,
rotation, auto-resume and graceful signal drain, per-step health
:mod:`guards <repro.runtime.guards>`, and the append-only JSONL
:mod:`telemetry <repro.runtime.telemetry>` stream.  Exposed on the CLI
as ``repro run <config>`` / ``repro resume <run_dir>``; see
``docs/RUNTIME.md`` for the schemas and the exit-code contract.
"""

from .config import (
    CheckpointConfig,
    EngineConfig,
    FaultsConfig,
    GridConfig,
    GuardConfig,
    RecoveryConfig,
    RunConfig,
    ScheduleConfig,
)
from .faults import FaultEvent, FaultPlan
from .guards import GuardReport, GuardSuite
from .runner import (
    EXIT_COMPLETE,
    EXIT_GUARD_ABORT,
    EXIT_RESUMABLE,
    SimulationRunner,
    find_latest_valid_checkpoint,
)
from .scenarios import (
    Stepper,
    build_engine,
    build_hybrid_simulation,
    build_stepper,
)
from .telemetry import (
    TELEMETRY_FIELDS,
    TelemetryWriter,
    emit_event,
    event_sink,
    iter_records,
    read_events,
    read_telemetry,
    set_event_sink,
    summarize,
)

__all__ = [
    "RunConfig",
    "GridConfig",
    "ScheduleConfig",
    "CheckpointConfig",
    "GuardConfig",
    "EngineConfig",
    "RecoveryConfig",
    "FaultsConfig",
    "FaultEvent",
    "FaultPlan",
    "GuardReport",
    "GuardSuite",
    "SimulationRunner",
    "find_latest_valid_checkpoint",
    "EXIT_COMPLETE",
    "EXIT_RESUMABLE",
    "EXIT_GUARD_ABORT",
    "Stepper",
    "build_engine",
    "build_stepper",
    "build_hybrid_simulation",
    "TELEMETRY_FIELDS",
    "TelemetryWriter",
    "emit_event",
    "event_sink",
    "iter_records",
    "read_events",
    "read_telemetry",
    "set_event_sink",
    "summarize",
]
