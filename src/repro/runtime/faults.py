"""Deterministic chaos injection for the fault-tolerance layer.

The paper's 400-trillion-grid campaigns survive Fugaku's node-scale
failure rate because restart-and-retry is engineered, not hoped for.
The only way to *know* the recovery machinery works is to make failures
happen on demand: this module is the chaos harness that every recovery
path in the runtime is proven against.

A :class:`FaultPlan` is a seeded, declarative schedule of faults.  Each
:class:`FaultEvent` fires **exactly once**, at the first opportunity on
or after its scheduled step, and which bytes/cells it touches is drawn
from the plan's own RNG — so a chaos run is exactly reproducible from
its spec, the same discipline as the simulation ICs.

Fault kinds (``FAULT_KINDS``):

``kill_worker``
    SIGKILL one **domain worker** process mid-sweep (the engine's fault
    hook sends it a suicide call).  Exercises the domain engine's
    supervision: retry on a respawned fleet, then degrade.
``stall_worker``
    Occupy a domain worker with a sleep longer than the engine's
    ``task_timeout``.  Exercises the command-round timeout path.
``corrupt_checkpoint``
    Flip bytes of the newest checkpoint *after* it lands on disk.
    Exercises checksum verify-on-read and quarantine.
``inject_nan`` / ``inject_negative``
    Poison cells of the distribution function after a step.  Exercises
    the guard suite and the ``rollback`` escalation policy.
``stall_step``
    Sleep inside the step's measured wall clock.  Exercises the stall
    guard.
``kill_run``
    SIGKILL the **whole run process** at a step boundary — the node
    death the campaign supervisor's retry machinery exists for.
``freeze_run``
    Actually sleep (up to ``magnitude`` seconds) at a step boundary
    without appending telemetry — a hung run.  Exercises heartbeat
    stall detection and lease reclaim; the sleep is bounded so a drill
    whose supervision is broken still terminates.
``oom_run``
    Allocate and hold ``magnitude`` MB of ballast, pushing the run's
    RSS over a campaign ``[limits]`` budget.  Exercises the resource
    watchdog's drain→kill ladder.

The three run-level kinds fire through :meth:`FaultPlan.run_level`,
which persists a fired ledger (``faults_fired.jsonl``) in the run
directory *before* acting: a retried attempt that resumes from a
checkpoint behind the fault's step re-reads the same config but does
not re-fire the fault — without the ledger a ``kill_run`` would kill
every retry forever.

Plans load from a config section, an environment variable
(``REPRO_FAULTS`` — inline JSON or a path to a JSON file), or the CLI
(``repro run --faults ...``); see :meth:`FaultPlan.from_spec`.

Every fired fault is published as a ``fault_injected`` telemetry event
and recorded in :attr:`FaultPlan.log`, so a chaos run's telemetry shows
both the injections and the recoveries they provoked.
"""

from __future__ import annotations

import json
import os
import signal
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .telemetry import emit_event

__all__ = ["FAULT_KINDS", "FaultEvent", "FaultPlan"]

#: Every fault kind a plan may schedule.
FAULT_KINDS = (
    "kill_worker",
    "stall_worker",
    "corrupt_checkpoint",
    "inject_nan",
    "inject_negative",
    "stall_step",
    "kill_run",
    "freeze_run",
    "oom_run",
)

#: Kinds that take down (or bloat) the whole run process; their firing
#: is persisted to the run directory so retries do not re-fire them.
RUN_LEVEL_KINDS = ("oom_run", "freeze_run", "kill_run")

#: The persistent one-shot ledger for run-level faults.
FIRED_LEDGER = "faults_fired.jsonl"

#: Environment variable the CLI/runner consult for an ambient plan.
FAULTS_ENV = "REPRO_FAULTS"


# -- picklable worker payloads (module-level: sent to worker processes) --


def _kill_self() -> None:  # pragma: no cover - dies before reporting
    """Suicide task: SIGKILL the worker process executing it."""
    os.kill(os.getpid(), signal.SIGKILL)


def _occupy(seconds: float) -> None:  # pragma: no cover - runs in worker
    """Stall task: hold a worker slot busy for ``seconds``."""
    time.sleep(seconds)


@dataclass
class FaultEvent:
    """One scheduled fault: what, when, and how hard.

    ``count`` is the number of cells (state injection) or bytes
    (checkpoint corruption) touched; ``magnitude`` is the injected
    negative amplitude (``inject_negative``) or the sleep length in
    seconds (``stall_worker`` / ``stall_step``).
    """

    kind: str
    step: int = 1
    count: int = 4
    magnitude: float = 1.0
    fired_at: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.step < 1:
            raise ValueError("fault step must be >= 1")
        if self.count < 1:
            raise ValueError("fault count must be >= 1")

    @property
    def fired(self) -> bool:
        """Whether this one-shot event has already gone off."""
        return self.fired_at is not None

    def as_dict(self) -> dict:
        """JSON-ready form (the telemetry / config representation)."""
        return {
            "kind": self.kind,
            "step": self.step,
            "count": self.count,
            "magnitude": self.magnitude,
        }


class FaultPlan:
    """A seeded one-shot schedule of faults, armed per step by the runner.

    The runner calls :meth:`begin_step` before each step and then offers
    the plan its injection points (state mutation after the advance,
    file corruption after a checkpoint write, the engine's worker hook
    before a domain-engine sweep).  An event fires at the **first** offered
    opportunity at or after its scheduled step — so a ``kill_worker``
    scheduled for step 2 of a run whose engine only sweeps on step 3
    fires on step 3, once.
    """

    def __init__(self, events, seed: int = 0) -> None:
        self.events: list[FaultEvent] = [
            e if isinstance(e, FaultEvent) else FaultEvent(**e) for e in events
        ]
        self.seed = int(seed)
        self.rng = np.random.default_rng(self.seed)
        self.step = 0
        #: Every fired event, in firing order: ``(step_fired, event_dict)``.
        self.log: list[dict] = []
        #: Held ballast buffers (``oom_run``) — alive for the process's
        #: lifetime so the inflated RSS stays visible to the watchdog.
        self._ballast: list[bytearray] = []

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def from_spec(cls, spec) -> "FaultPlan | None":
        """Build a plan from any accepted spec form (``None`` passes through).

        Accepts a :class:`FaultPlan`, a list of event dicts, a dict
        ``{"seed": ..., "events": [...]}``, inline JSON text, or a path
        to a JSON file holding either of the JSON forms.
        """
        if spec is None:
            return None
        if isinstance(spec, FaultPlan):
            return spec
        if isinstance(spec, (str, Path)):
            text = str(spec)
            if text.lstrip().startswith(("{", "[")):
                spec = json.loads(text)
            else:
                spec = json.loads(Path(text).read_text())
        if isinstance(spec, (list, tuple)):
            spec = {"events": list(spec)}
        if not isinstance(spec, dict):
            raise ValueError(f"cannot build a FaultPlan from {type(spec).__name__}")
        unknown = set(spec) - {"seed", "events"}
        if unknown:
            raise ValueError(f"unknown fault-plan keys: {sorted(unknown)}")
        return cls(spec.get("events", []), seed=spec.get("seed", 0))

    @classmethod
    def from_env(cls) -> "FaultPlan | None":
        """Plan from ``REPRO_FAULTS`` (inline JSON or a file path), if set."""
        spec = os.environ.get(FAULTS_ENV, "").strip()
        return cls.from_spec(spec) if spec else None

    # ------------------------------------------------------------------
    # arming and firing
    # ------------------------------------------------------------------

    def begin_step(self, step: int) -> None:
        """Arm the plan for the step about to execute (1-based)."""
        self.step = int(step)

    @property
    def exhausted(self) -> bool:
        """Whether every scheduled event has fired."""
        return all(e.fired for e in self.events)

    def _take(self, kind: str) -> FaultEvent | None:
        """Fire (and return) the next due unfired event of ``kind``."""
        for event in self.events:
            if event.kind == kind and not event.fired and self.step >= event.step:
                event.fired_at = self.step
                entry = {"fired_at": self.step, **event.as_dict()}
                self.log.append(entry)
                emit_event("fault_injected", **entry)
                return event
        return None

    # -- injection points, one per failure domain ----------------------

    def wants_state(self) -> bool:
        """Whether any unfired event still needs access to f.

        The runner consults this before materializing the distribution
        function for :meth:`mutate_state` — under the domain engine,
        reading ``stepper.f`` gathers the worker-resident state, a
        full-domain copy that must not happen every step just to offer
        an injection point no event will ever take.
        """
        return any(
            e.kind in ("inject_nan", "inject_negative") and not e.fired
            for e in self.events
        )

    def mutate_state(self, f: np.ndarray) -> list[dict]:
        """Poison cells of f (NaN / negative), in place; returns firings."""
        fired = []
        event = self._take("inject_nan")
        if event is not None:
            idx = self.rng.integers(0, f.size, size=event.count)
            f.reshape(-1)[idx] = np.nan
            fired.append(self.log[-1])
        event = self._take("inject_negative")
        if event is not None:
            idx = self.rng.integers(0, f.size, size=event.count)
            f.reshape(-1)[idx] = -abs(event.magnitude)
            fired.append(self.log[-1])
        return fired

    def stall_seconds(self) -> float:
        """Seconds of artificial stall due this step (0.0 when none)."""
        event = self._take("stall_step")
        return float(event.magnitude) if event is not None else 0.0

    def corrupt_file(self, path: str | Path) -> dict | None:
        """Flip ``count`` seeded byte positions of a file on disk.

        In-place by design — simulating corruption *after* a clean
        atomic write, the silent-bit-flip case the checksums exist for.
        """
        event = self._take("corrupt_checkpoint")
        if event is None:
            return None
        path = Path(path)
        data = bytearray(path.read_bytes())
        if not data:
            return self.log[-1]
        for pos in self.rng.integers(0, len(data), size=event.count):
            data[pos] ^= 0xFF
        path.write_bytes(bytes(data))
        return self.log[-1]

    def run_level(self, run_dir: str | Path) -> None:
        """Fire due run-level faults (oom / freeze / kill this process).

        Called by the runner at each step boundary, after the
        checkpoint logic.  Each firing is appended to the run
        directory's :data:`FIRED_LEDGER` **before** the fault acts, and
        ledger entries suppress re-firing: a retried attempt (a fresh
        process re-reading the same ``[faults]`` config) resumes past
        the fault instead of dying to it again — which is exactly what
        makes a supervised chaos drill terminate.
        """
        run_dir = Path(run_dir)
        ledger = run_dir / FIRED_LEDGER
        already: set[str] = set()
        if ledger.exists():
            for line in ledger.read_text().splitlines():
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError:  # torn tail: fault still fired
                    continue
                already.add(f"{entry.get('kind')}@{entry.get('step')}")
        for kind in RUN_LEVEL_KINDS:
            for event in self.events:
                if (event.kind != kind or event.fired
                        or self.step < event.step):
                    continue
                key = f"{kind}@{event.step}"
                if key in already:
                    event.fired_at = self.step  # fired by a prior attempt
                    continue
                event.fired_at = self.step
                entry = {"fired_at": self.step, **event.as_dict()}
                self.log.append(entry)
                with open(ledger, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(entry) + "\n")
                    fh.flush()
                    os.fsync(fh.fileno())
                emit_event("fault_injected", **entry)
                if kind == "oom_run":
                    self._ballast.append(bytearray(int(event.magnitude) << 20))
                elif kind == "freeze_run":
                    time.sleep(float(event.magnitude))
                elif kind == "kill_run":  # pragma: no cover - dies here
                    os.kill(os.getpid(), signal.SIGKILL)

    def worker_fault(self, engine, pool) -> None:
        """Domain-engine fault hook: sabotage the worker fleet mid-step.

        Wired by the runner as ``engine.fault_hook``; called by the
        engine at the start of each sweep, before its command round, so
        the kill/stall lands *mid-step*.  ``pool.submit`` hands the call
        to one worker, round-robin.  Drains every due event (two
        ``stall_worker`` events occupy two workers).
        """
        while self._take("kill_worker") is not None:
            pool.submit(_kill_self)
        while (event := self._take("stall_worker")) is not None:
            pool.submit(_occupy, float(event.magnitude))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        fired = sum(e.fired for e in self.events)
        return (
            f"FaultPlan(seed={self.seed}, events={len(self.events)}, "
            f"fired={fired}, step={self.step})"
        )
