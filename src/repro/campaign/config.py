"""Declarative sweep specs: one :class:`CampaignConfig`, many runs.

The paper's headline numbers come from a *suite* of runs — Table 2 is a
grid of resolutions, and the neutrino-mass constraints of Yoshikawa+
2020 come from sweeping mass hierarchies against a fixed pipeline.  A
campaign spec captures such a suite declaratively: a **base**
:class:`~repro.runtime.config.RunConfig` (plain-dict form) plus a
**sweep** table mapping dotted config paths to value lists, expanded as
a cartesian product::

    name = "mass-res"
    [base]
    scenario = "hybrid"
    ...
    [sweep]
    params.m_nu = [0.1, 0.2, 0.4]
    grid.nx = [[16, 16, 16], [32, 32, 32]]

yields six fully-validated run configs.  Every point is materialized
through :meth:`RunConfig.from_dict`, so a typoed sweep path fails at
spec load with the same unknown-key rejection a typoed config file
gets — never minutes into the campaign.

Specs round-trip through JSON and TOML exactly like run configs
(``tomllib`` reads; the emitter in :mod:`repro.runtime.config` writes).
In TOML the sweep keys are natural dotted keys (parsed by the reader as
nested tables); in JSON they are literal ``"params.m_nu"`` strings —
:func:`_flatten_sweep` canonicalizes both to the dotted form.

Point identity is positional and stable: ``p0000``, ``p0001``, ... in
the deterministic order of the cartesian product (sweep keys in spec
order, values in list order).  The same spec always yields the same ids
mapped to the same overrides, which is what makes a campaign resumable
from its manifest alone.
"""

from __future__ import annotations

import copy
import dataclasses
import itertools
from dataclasses import dataclass, field, fields
from pathlib import Path

from ..perf.substrate import available_cores
from ..runtime.config import (
    RunConfig,
    apply_override,
    build_section,
    read_config_file,
    write_config_file,
)

__all__ = [
    "EXECUTOR_NAMES",
    "CampaignConfig",
    "LimitsConfig",
    "RetryConfig",
    "SweepPoint",
]

#: Executor implementations the scheduler can build (see
#: campaign.executors and campaign.remote): ``processes`` (one OS
#: subprocess per run), ``threads`` (in-process runners) and ``queue``
#: (spool-file jobs drained by separate ``repro campaign worker``
#: processes, possibly on other hosts sharing the filesystem).
EXECUTOR_NAMES = ("processes", "threads", "queue")


@dataclass
class SweepPoint:
    """One materialized grid point: id, the overrides, the run config."""

    run_id: str
    overrides: dict
    config: RunConfig


@dataclass
class LimitsConfig:
    """Per-run resource budgets enforced by the campaign supervisor.

    ``wall_seconds`` and ``rss_mb`` are per-attempt ceilings (``None``,
    the default, disables each — TOML has no null, so a missing key and
    the default agree).  An over-budget run is drained gracefully first
    (a ``DRAIN`` flag in its run directory plus SIGTERM when the
    executor holds a process handle → the runner checkpoints and exits
    75) and SIGKILLed after ``grace_seconds`` if the drain does not
    land.  ``lease_seconds`` is the heartbeat horizon: a run whose
    lease/telemetry shows no progress for this long is declared stalled
    and reclaimed.  ``poll_seconds`` paces the supervisor's monitor
    loop (and the queue executor's result polling).

    RSS is read from the run's own telemetry (``rss_mb`` is peak RSS of
    the *run process*), so the budget is meaningful for the process and
    queue executors; thread-executor runs share the scheduler's RSS and
    only the drain-flag path applies to them.
    """

    wall_seconds: float | None = None
    rss_mb: float | None = None
    lease_seconds: float = 30.0
    grace_seconds: float = 5.0
    poll_seconds: float = 0.25


@dataclass
class RetryConfig:
    """Failure-classified retry budgets and backoff.

    ``max_attempts`` bounds the attempts one point may take per
    scheduler invocation (1 = dispatch once, never retry in-pass; a
    fresh ``repro campaign resume`` always gets a fresh budget).
    ``campaign_budget`` additionally caps the *total* retries across
    the whole invocation (``None`` = unbounded).  Only ``transient``
    outcomes (signal death, lease expiry, spawn failure) are retried by
    default; ``resumable`` drains (exit 75 — an orderly max-steps/
    budget drain that the next resume pass owns) are retried in-pass
    only with ``retry_resumable = true``.  ``permanent`` outcomes
    (guard aborts, exit 70) are never retried.  Backoff between
    attempts is capped exponential — ``min(cap, base * 2**(n-1))`` —
    with deterministic seeded jitter so two schedulers sharing a
    filesystem do not retry in lockstep.
    """

    max_attempts: int = 3
    campaign_budget: int | None = None
    retry_resumable: bool = False
    backoff_base: float = 0.2
    backoff_cap: float = 5.0
    jitter: float = 0.1
    seed: int = 0


@dataclass
class CampaignConfig:
    """One parameter-sweep campaign, declaratively.

    ``base`` is a full run config in plain-dict form; ``sweep`` maps
    dotted :class:`RunConfig` paths to the value lists to grid over.
    ``concurrency`` is K, the number of runs in flight at once, further
    clamped by the shared CPU budget: at most
    ``cpu_budget // cpus_per_run`` runs execute concurrently
    (``cpu_budget`` defaults to the cores this process may schedule on).
    ``executor`` picks the execution backend (``"processes"``: one OS
    subprocess per run, full isolation, the default; ``"threads"``:
    in-process runners — cheap, and safe because the telemetry event
    sink is contextual).  ``max_steps`` caps the steps each run takes
    per scheduler pass (runs drain resumable at the cap, the batch-
    scheduler pattern lifted to the whole campaign).
    """

    name: str = "campaign"
    base: dict = field(default_factory=dict)
    sweep: dict = field(default_factory=dict)
    concurrency: int = 2
    executor: str = "processes"
    cpus_per_run: int = 1
    cpu_budget: int | None = None
    max_steps: int | None = None
    limits: LimitsConfig = field(default_factory=LimitsConfig)
    retry: RetryConfig = field(default_factory=RetryConfig)

    # ------------------------------------------------------------------
    # validation and expansion
    # ------------------------------------------------------------------

    def validate(self) -> "CampaignConfig":
        """Raise ``ValueError`` on anything the scheduler cannot execute.

        Expands every sweep point — each one is validated by
        :meth:`RunConfig.from_dict`, so the whole grid is known
        executable before anything is materialized on disk.
        """
        if not self.name:
            raise ValueError("campaign name must be non-empty")
        if self.executor not in EXECUTOR_NAMES:
            raise ValueError(
                f"executor {self.executor!r} not in {EXECUTOR_NAMES}"
            )
        if self.concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        if self.cpus_per_run < 1:
            raise ValueError("cpus_per_run must be >= 1")
        if self.cpu_budget is not None and self.cpu_budget < 1:
            raise ValueError("cpu_budget must be >= 1 or null")
        if self.max_steps is not None and self.max_steps < 1:
            raise ValueError("max_steps must be >= 1 or null")
        lim = self.limits
        if lim.wall_seconds is not None and lim.wall_seconds <= 0.0:
            raise ValueError("limits.wall_seconds must be positive or null")
        if lim.rss_mb is not None and lim.rss_mb <= 0.0:
            raise ValueError("limits.rss_mb must be positive or null")
        if lim.lease_seconds <= 0.0:
            raise ValueError("limits.lease_seconds must be positive")
        if lim.grace_seconds <= 0.0:
            raise ValueError("limits.grace_seconds must be positive")
        if lim.poll_seconds <= 0.0:
            raise ValueError("limits.poll_seconds must be positive")
        r = self.retry
        if r.max_attempts < 1:
            raise ValueError("retry.max_attempts must be >= 1")
        if r.campaign_budget is not None and r.campaign_budget < 0:
            raise ValueError("retry.campaign_budget must be >= 0 or null")
        if r.backoff_base < 0.0 or r.backoff_cap < 0.0:
            raise ValueError("retry backoff values must be >= 0")
        if r.jitter < 0.0:
            raise ValueError("retry.jitter must be >= 0")
        for key, values in self.sweep.items():
            if not isinstance(values, (list, tuple)) or not values:
                raise ValueError(
                    f"sweep.{key} must be a non-empty list of values"
                )
        self.points()  # builds + validates every RunConfig in the grid
        return self

    def points(self) -> list[SweepPoint]:
        """Expand the cartesian grid to validated, stably-named points."""
        keys = list(self.sweep)
        grids = [list(self.sweep[k]) for k in keys]
        points: list[SweepPoint] = []
        for index, combo in enumerate(itertools.product(*grids)):
            run_id = f"p{index:04d}"
            overrides = dict(zip(keys, combo))
            data = copy.deepcopy(self.base)
            for key, value in overrides.items():
                apply_override(data, key, copy.deepcopy(value))
            data["name"] = f"{self.name}-{run_id}"
            try:
                config = RunConfig.from_dict(data)
            except (TypeError, ValueError) as exc:
                raise ValueError(
                    f"campaign point {run_id} ({overrides!r}) does not "
                    f"build a valid RunConfig: {exc}"
                ) from exc
            points.append(SweepPoint(run_id, overrides, config))
        return points

    def effective_concurrency(self) -> int:
        """K clamped by the shared CPU budget (always >= 1)."""
        budget = self.cpu_budget if self.cpu_budget is not None \
            else available_cores()
        return max(1, min(self.concurrency, budget // self.cpus_per_run))

    # ------------------------------------------------------------------
    # dict / file round-trips
    # ------------------------------------------------------------------

    def as_dict(self) -> dict:
        """Plain-dict form with canonical dotted sweep keys."""
        return {
            "name": self.name,
            "base": copy.deepcopy(self.base),
            "sweep": copy.deepcopy(self.sweep),
            "concurrency": self.concurrency,
            "executor": self.executor,
            "cpus_per_run": self.cpus_per_run,
            "cpu_budget": self.cpu_budget,
            "max_steps": self.max_steps,
            "limits": dataclasses.asdict(self.limits),
            "retry": dataclasses.asdict(self.retry),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignConfig":
        """Build and validate a spec from its plain-dict form.

        Unknown keys are rejected, same discipline as ``RunConfig`` —
        a typoed knob must not silently fall back to a default.
        """
        data = dict(data)
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown campaign keys: {sorted(unknown)}")
        if "sweep" in data:
            data["sweep"] = _flatten_sweep(data["sweep"])
        for section, section_cls in (("limits", LimitsConfig),
                                     ("retry", RetryConfig)):
            if section in data:
                data[section] = build_section(section_cls, data[section])
        return cls(**data).validate()

    @classmethod
    def load(cls, path: str | Path) -> "CampaignConfig":
        """Load from a ``.json`` or ``.toml`` file (dispatch by suffix)."""
        return cls.from_dict(read_config_file(path))

    def dump(self, path: str | Path) -> Path:
        """Write to a ``.json`` or ``.toml`` file (dispatch by suffix)."""
        data = self.as_dict()
        if Path(path).suffix == ".toml":
            # dotted keys are not valid TOML bare keys; nest them so the
            # emitter writes `params.m_nu = [...]`-style dotted tables
            data["sweep"] = _nest_sweep(data["sweep"])
        return write_config_file(data, path)


def _flatten_sweep(sweep: dict, prefix: str = "") -> dict:
    """Canonicalize a sweep table to dotted-string keys.

    TOML dotted keys parse as nested tables (``params.m_nu = [...]``
    arrives as ``{"params": {"m_nu": [...]}}``); JSON specs carry the
    dotted strings literally.  Both forms collapse to the same flat
    mapping, preserving spec order.
    """
    flat: dict = {}
    for key, value in sweep.items():
        dotted = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, dict):
            flat.update(_flatten_sweep(value, dotted))
        else:
            flat[dotted] = list(value) if isinstance(value, tuple) else value
    return flat


def _nest_sweep(flat: dict) -> dict:
    """Inverse of :func:`_flatten_sweep` (for the TOML emitter)."""
    nested: dict = {}
    for dotted, values in flat.items():
        parts = dotted.split(".")
        cursor = nested
        for part in parts[:-1]:
            cursor = cursor.setdefault(part, {})
        cursor[parts[-1]] = values
    return nested
