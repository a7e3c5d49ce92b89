"""Declarative run configuration for the orchestration layer.

A :class:`RunConfig` is everything a production run needs to be started,
killed, and restarted without the original driver script: the scenario
(which driver), the phase-space geometry, the step schedule, the
checkpoint cadence and retention, the guard thresholds, and the
wall-clock budget.  It round-trips through plain dicts, JSON, and TOML
(read via :mod:`tomllib`; written by a small emitter here, since the
stdlib has no TOML writer), so a run is reproducible from a single small
text file — the discipline the paper's restart chains on Fugaku rely on.

The schema is deliberately flat and typed: nested dataclasses, no
free-form nesting except ``params`` (scenario-specific IC knobs).
``RunConfig.validate()`` rejects anything the runner could not execute,
at load time rather than minutes into a job.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

#: Scenarios the runner knows how to build (see runtime.scenarios).
SCENARIOS = ("plasma", "gravitational", "hybrid")

#: Guard escalation policies (see GuardConfig; "rollback" restores the
#: newest valid checkpoint and retries instead of exiting).
POLICIES = ("off", "warn", "abort", "rollback")

#: Pencil-engine backends the runner can build ("off" = no engine, the
#: plain serial kernels inside the drivers; "threads" = the thread-sharded
#: :class:`repro.perf.pencil.PencilEngine`).
ENGINE_BACKENDS = ("off", "threads")

#: Engine kinds: "pencil" shards each sweep over threads
#: (:class:`repro.perf.pencil.PencilEngine`, switched on by ``backend``);
#: "domain" pins 3-D spatial blocks to persistent shared-memory workers
#: (:class:`repro.parallel.domain.DomainEngine`, tuned by ``topology``).
ENGINES = ("pencil", "domain")


@dataclass
class GridConfig:
    """Phase-space geometry (mirrors :class:`repro.core.mesh.PhaseSpaceGrid`)."""

    nx: tuple[int, ...] = (32,)
    nu: tuple[int, ...] = (32,)
    box_size: float = 12.566370614359172  # 4*pi, the plasma default
    v_max: float = 6.0
    dtype: str = "float64"


@dataclass
class ScheduleConfig:
    """The step schedule.

    ``kind="time"`` advances in fixed proper-time steps ``dt`` (plasma,
    static gravity); ``kind="scale_factor"`` advances through a monotone
    scale-factor ladder from ``a_start`` to ``a_end`` (hybrid), spaced
    uniformly in ``ln a`` (``"log"``) or in ``a`` (``"linear"``).
    """

    kind: str = "time"
    n_steps: int = 10
    dt: float = 0.1
    a_start: float = 1.0 / 11.0  # z = 10, the paper's starting epoch
    a_end: float = 1.0
    spacing: str = "log"


@dataclass
class CheckpointConfig:
    """Checkpoint cadence and retention.

    Either cadence may be ``None`` (disabled — the default, because TOML
    has no null and a missing key must mean the same thing as the
    default; the runner always checkpoints on drain, abort, and
    completion regardless).  When both are set a checkpoint lands when
    *either* fires.  ``keep_last`` rotates the checkpoint directory down
    to the K newest files after every write.
    """

    every_steps: int | None = None
    every_seconds: float | None = None
    keep_last: int = 3


@dataclass
class GuardConfig:
    """Per-step health monitors and their escalation policies.

    Each guard is ``"off"``, ``"warn"`` (log to telemetry, keep going),
    ``"abort"`` (write a final checkpoint, mark the run aborted, exit)
    or ``"rollback"`` (restore the newest valid checkpoint, optionally
    shrink dt, and re-run — see :class:`RecoveryConfig`; the attempt
    budget exhausting falls back to the abort path).
    """

    nan: str = "abort"
    negative_f: str = "warn"
    negative_f_tol: float = 0.0
    conservation: str = "warn"
    max_mass_drift: float = 1.0e-6
    max_energy_drift: float = 0.1
    stall: str = "off"
    max_step_seconds: float = 60.0


@dataclass
class EngineConfig:
    """Where the Vlasov sweeps run (:mod:`repro.core.engine`).

    Applies to all three scenarios: each stepper forwards the built
    engine to its driver's :class:`~repro.core.vlasov.VlasovSolver`.
    ``backend="off"`` (default) builds the serial
    :class:`~repro.core.engine.SweepEngine`; ``backend="threads"`` builds
    a :class:`repro.perf.pencil.PencilEngine` of ``n_workers`` threads,
    which shards directional sweeps into pencils (bitwise-identical to
    serial — see ``docs/PERFORMANCE.md``).

    ``engine="domain"`` selects the persistent-worker domain engine
    instead (:class:`repro.parallel.domain.DomainEngine`): f lives
    sharded across worker processes in shared memory for the whole run,
    halos land as the kernel's ghost planes, and the field solve runs
    on the parent.  ``topology`` is its workers-per-spatial-axis grid
    (e.g. ``[2, 2, 1]``; null auto-factors ``n_workers`` over the
    longest axes); ``backend`` is pencil-only and ignored.  The supervision knobs tune the domain engine alone: a dead
    or timed-out worker round (``task_timeout`` seconds; null waits
    forever) is retried on fresh workers ``max_retries`` times with
    exponential backoff from ``backoff_base`` seconds, then the engine
    degrades permanently to host sweeps on a threads ``PencilEngine``
    (domain → pencil(threads); same bits, only slower).
    """

    engine: str = "pencil"
    backend: str = "off"
    n_workers: int | None = None
    topology: list | None = None
    max_retries: int = 2
    backoff_base: float = 0.05
    task_timeout: float | None = None


@dataclass
class DiagnosticsConfig:
    """The always-on analysis tier (:mod:`repro.serve.pipeline`).

    ``every_steps`` is the submission cadence (``None``, the default,
    disables the tier entirely — TOML has no null, so a missing key and
    the default agree).  The background worker computes moment fields
    and binned spectra and stores them as chunked snapshots under the
    run directory's ``diagnostics/``; ``queue_max``/``on_full`` bound
    the submit queue and pick the full-queue policy (``"block"`` never
    loses a product, ``"drop"`` never stalls the step loop).
    """

    every_steps: int | None = None
    n_bins: int = 16
    queue_max: int = 2
    on_full: str = "block"
    spectra: bool = True
    n_chunks: int = 8


@dataclass
class RecoveryConfig:
    """The ``rollback`` guard policy's budget and aggressiveness.

    ``max_attempts`` bounds how many rollbacks one run may perform
    before the trip escalates to the abort path (exit 70).  Each
    rollback multiplies the stepper's dt by ``dt_scale``; the default
    1.0 re-runs with identical arithmetic, which keeps recovery
    **bitwise-identical** to a fault-free run when the underlying cause
    was transient (an injected fault, a cosmic-ray flip).  Set it below
    1.0 to trade that reproducibility for stability when the trip is a
    genuine timestep problem.
    """

    max_attempts: int = 3
    dt_scale: float = 1.0


@dataclass
class FaultsConfig:
    """Deterministic chaos injection (:mod:`repro.runtime.faults`).

    ``events`` is a list of fault-event tables (``kind``, ``step``,
    optional ``count``/``magnitude``); empty (the default) disables
    injection entirely.  ``seed`` feeds the plan's RNG, so which
    cells/bytes a fault touches is exactly reproducible.
    """

    seed: int = 0
    events: list = field(default_factory=list)


@dataclass
class RunConfig:
    """One production run, declaratively.

    ``params`` carries scenario-specific IC knobs (perturbation
    amplitude/mode for the kinetic scenarios; neutrino mass, seed and
    tree toggle for the hybrid one) — see
    :mod:`repro.runtime.scenarios` for the keys each scenario reads.
    """

    scenario: str = "plasma"
    name: str = "run"
    scheme: str = "slmpp5"
    grid: GridConfig = field(default_factory=GridConfig)
    schedule: ScheduleConfig = field(default_factory=ScheduleConfig)
    checkpoint: CheckpointConfig = field(default_factory=CheckpointConfig)
    guards: GuardConfig = field(default_factory=GuardConfig)
    engine: EngineConfig = field(default_factory=EngineConfig)
    diagnostics: DiagnosticsConfig = field(default_factory=DiagnosticsConfig)
    recovery: RecoveryConfig = field(default_factory=RecoveryConfig)
    faults: FaultsConfig = field(default_factory=FaultsConfig)
    params: dict = field(default_factory=dict)
    wall_clock_budget: float | None = None
    #: Artificial per-step pause [s] — a pacing aid for signal/stall
    #: testing; leave at 0.0 for real runs.
    step_delay: float = 0.0

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------

    def validate(self) -> "RunConfig":
        """Raise ``ValueError`` on anything the runner cannot execute."""
        if self.scenario not in SCENARIOS:
            raise ValueError(
                f"unknown scenario {self.scenario!r}; expected one of {SCENARIOS}"
            )
        g, s, c = self.grid, self.schedule, self.checkpoint
        if len(g.nx) != len(g.nu):
            raise ValueError("grid.nx and grid.nu must have the same length")
        if g.dtype not in ("float32", "float64"):
            raise ValueError("grid.dtype must be 'float32' or 'float64'")
        if s.kind not in ("time", "scale_factor"):
            raise ValueError("schedule.kind must be 'time' or 'scale_factor'")
        if s.n_steps < 1:
            raise ValueError("schedule.n_steps must be >= 1")
        if s.kind == "time" and s.dt <= 0.0:
            raise ValueError("schedule.dt must be positive")
        if s.kind == "scale_factor" and not 0.0 < s.a_start < s.a_end:
            raise ValueError("need 0 < schedule.a_start < schedule.a_end")
        if s.spacing not in ("log", "linear"):
            raise ValueError("schedule.spacing must be 'log' or 'linear'")
        if self.scenario == "hybrid" and s.kind != "scale_factor":
            raise ValueError("hybrid runs need a scale_factor schedule")
        if c.every_steps is not None and c.every_steps < 1:
            raise ValueError("checkpoint.every_steps must be >= 1 or null")
        if c.every_seconds is not None and c.every_seconds <= 0.0:
            raise ValueError("checkpoint.every_seconds must be positive or null")
        if c.keep_last < 1:
            raise ValueError("checkpoint.keep_last must be >= 1")
        for guard in ("nan", "negative_f", "conservation", "stall"):
            policy = getattr(self.guards, guard)
            if policy not in POLICIES:
                raise ValueError(
                    f"guards.{guard} policy {policy!r} not in {POLICIES}"
                )
        e = self.engine
        if e.engine not in ENGINES:
            raise ValueError(f"engine.engine {e.engine!r} not in {ENGINES}")
        if e.backend not in ENGINE_BACKENDS:
            raise ValueError(
                f"engine.backend {e.backend!r} not in {ENGINE_BACKENDS}"
            )
        if e.n_workers is not None and e.n_workers < 1:
            raise ValueError("engine.n_workers must be >= 1 or null")
        if e.topology is not None:
            if len(e.topology) != len(g.nx):
                raise ValueError(
                    f"engine.topology has {len(e.topology)} axes for a "
                    f"{len(g.nx)}-D grid"
                )
            if any(int(p) < 1 for p in e.topology):
                raise ValueError("engine.topology entries must be >= 1")
        if e.max_retries < 0:
            raise ValueError("engine.max_retries must be >= 0")
        if e.task_timeout is not None and e.task_timeout <= 0.0:
            raise ValueError("engine.task_timeout must be positive or null")
        d = self.diagnostics
        if d.every_steps is not None and d.every_steps < 1:
            raise ValueError("diagnostics.every_steps must be >= 1 or null")
        if d.n_bins < 1:
            raise ValueError("diagnostics.n_bins must be >= 1")
        if d.queue_max < 1:
            raise ValueError("diagnostics.queue_max must be >= 1")
        if d.on_full not in ("block", "drop"):
            raise ValueError("diagnostics.on_full must be 'block' or 'drop'")
        if d.n_chunks < 1:
            raise ValueError("diagnostics.n_chunks must be >= 1")
        r = self.recovery
        if r.max_attempts < 1:
            raise ValueError("recovery.max_attempts must be >= 1")
        if not 0.0 < r.dt_scale <= 1.0:
            raise ValueError("recovery.dt_scale must be in (0, 1]")
        for event in self.faults.events:
            from .faults import FaultEvent  # deferred: keeps import order free

            if not isinstance(event, dict):
                raise ValueError("faults.events entries must be tables/dicts")
            FaultEvent(**event)  # validates kind/step/count
        if self.wall_clock_budget is not None and self.wall_clock_budget <= 0.0:
            raise ValueError("wall_clock_budget must be positive or null")
        if self.step_delay < 0.0:
            raise ValueError("step_delay must be >= 0")
        return self

    # ------------------------------------------------------------------
    # dict / file round-trips
    # ------------------------------------------------------------------

    def as_dict(self) -> dict:
        """Plain-dict form (tuples become lists; JSON/TOML-ready)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        """Build and validate a config from its plain-dict form.

        Unknown keys are rejected — a typoed guard name must not
        silently fall back to its default threshold.
        """
        data = dict(data)
        kwargs: dict = {}
        for section, section_cls in (
            ("grid", GridConfig),
            ("schedule", ScheduleConfig),
            ("checkpoint", CheckpointConfig),
            ("guards", GuardConfig),
            ("engine", EngineConfig),
            ("diagnostics", DiagnosticsConfig),
            ("recovery", RecoveryConfig),
            ("faults", FaultsConfig),
        ):
            if section in data:
                kwargs[section] = build_section(section_cls, data.pop(section))
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        kwargs.update(data)
        config = cls(**kwargs)
        config.grid.nx = tuple(int(n) for n in config.grid.nx)
        config.grid.nu = tuple(int(n) for n in config.grid.nu)
        return config.validate()

    @classmethod
    def load(cls, path: str | Path) -> "RunConfig":
        """Load from a ``.json`` or ``.toml`` file (dispatch by suffix)."""
        return cls.from_dict(read_config_file(path))

    def dump(self, path: str | Path) -> Path:
        """Write to a ``.json`` or ``.toml`` file (dispatch by suffix)."""
        return write_config_file(self.as_dict(), path)


def apply_override(data: dict, dotted_key: str, value) -> dict:
    """Set one dotted-path key in a config's plain-dict form, in place.

    ``apply_override(d, "grid.nx", [64])`` is the campaign sweep
    primitive: it navigates (creating empty sections as needed, so a
    sweep may set a key the base config left at its default) and
    assigns.  Validation is *not* done here — the caller feeds the
    result to :meth:`RunConfig.from_dict`, whose unknown-key rejection
    catches a typoed path exactly like a typoed config file.  Returns
    ``data`` for chaining.
    """
    parts = dotted_key.split(".")
    cursor = data
    for part in parts[:-1]:
        nxt = cursor.setdefault(part, {})
        if not isinstance(nxt, dict):
            raise ValueError(
                f"override path {dotted_key!r}: {part!r} is not a section"
            )
        cursor = nxt
    cursor[parts[-1]] = value
    return data


def build_section(section_cls, data) -> object:
    """Instantiate one nested config dataclass, rejecting unknown keys."""
    if dataclasses.is_dataclass(data):
        return data
    known = {f.name for f in dataclasses.fields(section_cls)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(
            f"unknown {section_cls.__name__} keys: {sorted(unknown)}"
        )
    return section_cls(**data)


def read_config_file(path: str | Path) -> dict:
    """The plain-dict contents of a ``.json`` or ``.toml`` config file."""
    path = Path(path)
    if path.suffix == ".toml":
        import tomllib

        return tomllib.loads(path.read_text())
    if path.suffix == ".json":
        return json.loads(path.read_text())
    raise ValueError(f"config must be .json or .toml, got {path.name!r}")


def write_config_file(data: dict, path: str | Path) -> Path:
    """Write a plain-dict config as ``.json`` or ``.toml`` (by suffix)."""
    path = Path(path)
    if path.suffix == ".toml":
        path.write_text(toml_dumps(data))
    elif path.suffix == ".json":
        path.write_text(json.dumps(data, indent=2) + "\n")
    else:
        raise ValueError(f"config must be .json or .toml, got {path.name!r}")
    return path


# ----------------------------------------------------------------------
# minimal TOML emitter (stdlib reads TOML but cannot write it)
# ----------------------------------------------------------------------


def _toml_scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, str):
        return json.dumps(value)  # TOML basic strings are JSON-compatible
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_toml_scalar(v) for v in value) + "]"
    if isinstance(value, dict):  # inline table (fault events inside a list)
        return (
            "{" + ", ".join(
                f"{k} = {_toml_scalar(v)}"
                for k, v in value.items() if v is not None
            ) + "}"
        )
    raise TypeError(f"cannot emit {type(value).__name__} as TOML")


def toml_dumps(data: dict) -> str:
    """Emit a nested dict of scalars/lists/dicts as TOML.

    ``None`` values are omitted (TOML has no null; readers treat a
    missing key as the dataclass default, which round-trips correctly).
    Dict values become ``[table]`` sections, nested dicts dotted tables.
    """
    lines: list[str] = []

    def emit(table: dict, prefix: str) -> None:
        scalars = {k: v for k, v in table.items() if not isinstance(v, dict)}
        subtables = {k: v for k, v in table.items() if isinstance(v, dict)}
        if prefix and (scalars or not subtables):
            lines.append(f"[{prefix}]")
        for key, value in scalars.items():
            if value is None:
                continue
            lines.append(f"{key} = {_toml_scalar(value)}")
        if scalars:
            lines.append("")
        for key, sub in subtables.items():
            emit(sub, f"{prefix}.{key}" if prefix else key)

    emit(data, "")
    return "\n".join(lines).rstrip() + "\n"
