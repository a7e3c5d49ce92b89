"""Parameter sweeps as a first-class, multi-tenant workload.

The campaign layer turns the single-run orchestration of
:mod:`repro.runtime` into the paper's actual operating mode — a *suite*
of runs (mass hierarchies × resolutions × schemes, Table 2) executed
concurrently under a shared CPU budget, with a persistent per-run state
manifest, campaign-level resume, and a supervision tier (leases,
failure-classified retries, resource watchdogs — see
:mod:`repro.campaign.supervision`) that keeps a multi-day sweep alive
through worker deaths and stalled runs.  Exposed on the CLI as ``repro
campaign <spec>`` / ``repro campaign resume <dir>`` / ``repro campaign
status <dir>``; see ``docs/CAMPAIGN.md`` for the spec format, the
executor interface, and the exit-code semantics.
"""

from .aggregate import aggregate_rows, format_table
from .config import (
    EXECUTOR_NAMES,
    CampaignConfig,
    LimitsConfig,
    RetryConfig,
    SweepPoint,
)
from .executors import Executor, ProcessExecutor, ThreadExecutor, build_executor
from .manifest import MANIFEST_NAME, RUN_STATES, CampaignManifest
from .scheduler import RUN_CONFIG_NAME, RUNS_DIR, SUPERVISOR_LOG, Campaign
from .supervision import (
    FAILURE_CLASSES,
    LEASE_NAME,
    Outcome,
    RetryPolicy,
    RunLease,
    Supervisor,
    classify_exit,
)

__all__ = [
    "Campaign",
    "CampaignConfig",
    "CampaignManifest",
    "SweepPoint",
    "Executor",
    "ProcessExecutor",
    "ThreadExecutor",
    "build_executor",
    "aggregate_rows",
    "format_table",
    "LimitsConfig",
    "RetryConfig",
    "RunLease",
    "RetryPolicy",
    "Supervisor",
    "Outcome",
    "classify_exit",
    "EXECUTOR_NAMES",
    "FAILURE_CLASSES",
    "LEASE_NAME",
    "MANIFEST_NAME",
    "RUN_STATES",
    "RUNS_DIR",
    "RUN_CONFIG_NAME",
    "SUPERVISOR_LOG",
]
