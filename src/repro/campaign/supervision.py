"""Supervised campaign execution: failure classes, retries, watchdogs.

The paper's flagship run held 147,456 Fugaku nodes for days; at that
scale restart-and-retry is engineered into the *job* layer, not hoped
for.  This module is that layer for the campaign tier — everything the
scheduler needs to treat a run as a supervised job rather than a
fire-and-forget subprocess.  Who may write a run directory is not its
business: every runner holds its run directory's lock
(:func:`~repro.io.atomic.directory_lock`), and the scheduler holds the
campaign directory's.

:func:`classify_exit`
    Maps every terminal outcome onto a **failure class**: ``done``
    (exit 0), ``resumable`` (exit 75 — an orderly drain; the run's
    checkpoint chain continues it), ``permanent`` (exit 70 — a guard
    abort a human must look at), ``transient`` (signal death, a run
    directory held by another process, spawn failure — retry and it
    will likely just work).

:class:`RetryPolicy`
    Capped exponential backoff, plus the per-point and per-campaign
    attempt budgets (:class:`~repro.campaign.config.RetryConfig`).

:class:`Supervisor`
    The scheduler-side watchdog.  One :meth:`attempt` executes one run
    under supervision: a monitor loop watching the telemetry file's
    mtime (the heartbeat the runner refreshes from inside its steps)
    against :class:`~repro.campaign.config.LimitsConfig`'s
    ``stall_seconds``, a drain→kill ladder for a run that stops
    (``DRAIN`` flag + SIGTERM, then SIGKILL after the grace window),
    and the terminal exit code classified into an :class:`Outcome`.
    The run's wall-clock and RSS budgets are the run's own
    (``wall_clock_budget``, ``rss_budget_mb``: it drains itself, exit
    75).  Every supervision action is published as a ``supervision_*``
    event to the campaign's ``supervisor.jsonl`` stream.

Retried ``transient``/``resumable`` attempts re-enter the run's own
checkpoint chain through ``SimulationRunner``'s auto-resume, so a
retried campaign stays **bitwise-identical** to an unfaulted one — the
property the campaign chaos drill asserts.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from pathlib import Path

from ..runtime.runner import (
    DRAIN_NAME,
    EXIT_COMPLETE,
    EXIT_GUARD_ABORT,
    EXIT_RESUMABLE,
    TELEMETRY_NAME,
)
from .config import LimitsConfig, RetryConfig

__all__ = [
    "FAILURE_CLASSES",
    "Outcome",
    "RetryPolicy",
    "Supervisor",
    "classify_exit",
]

#: Every failure class an attempt can land in.
FAILURE_CLASSES = ("done", "transient", "resumable", "permanent")


def classify_exit(exit_code: int | None) -> str:
    """Map one terminal exit code onto its failure class.

    ``None`` (no exit code — the attempt never produced one: spawn
    failure, a held run directory on the thread executor) and negative
    codes (signal death) are ``transient``; unknown positive codes are
    ``transient`` too (``repro run`` exits 2 on a held run directory),
    on the theory that anything that is not a deliberate contract code
    was an environmental accident worth one more try.
    """
    if exit_code == EXIT_COMPLETE:
        return "done"
    if exit_code == EXIT_RESUMABLE:
        return "resumable"
    if exit_code == EXIT_GUARD_ABORT:
        return "permanent"
    return "transient"


@dataclass
class Outcome:
    """One supervised attempt's terminal result."""

    exit_code: int | None
    cls: str
    reason: str = ""

    @property
    def final(self) -> bool:
        """Whether this outcome ends the point's dispatch loop."""
        return self.cls in ("done", "permanent")

    def as_dict(self) -> dict:
        return {"exit_code": self.exit_code, "class": self.cls,
                "reason": self.reason}


class RetryPolicy:
    """Capped exponential backoff and the attempt budgets."""

    def __init__(self, config: RetryConfig) -> None:
        self.config = config
        self._campaign_spent = 0
        self._lock = threading.Lock()

    def delay(self, attempt: int) -> float:
        """Seconds to wait before retry number ``attempt`` (1-based)."""
        c = self.config
        return min(c.backoff_cap, c.backoff_base * 2.0 ** max(0, attempt - 1))

    def should_retry(self, outcome: Outcome, attempt: int) -> bool:
        """Whether a point on its ``attempt``-th try gets another one.

        Consults the failure class, the per-point budget, and the
        shared per-campaign budget (charged one token per granted
        retry, atomically — K concurrent dispatch loops share it).
        """
        if outcome.final:
            return False
        if outcome.cls == "resumable" and not self.config.retry_resumable:
            return False
        if attempt >= self.config.max_attempts:
            return False
        if self.config.campaign_budget is not None:
            with self._lock:
                if self._campaign_spent >= self.config.campaign_budget:
                    return False
                self._campaign_spent += 1
        return True


# ----------------------------------------------------------------------
# the supervisor
# ----------------------------------------------------------------------


@dataclass
class _Attempt:
    """Bookkeeping for one in-flight supervised attempt."""

    run_id: str
    run_dir: Path
    started: float
    drain_requested_at: float | None = None  # set when it first stalls
    killed: bool = False


class Supervisor:
    """The scheduler-side watchdog: stalls, retries, classification.

    One supervisor lives for one scheduler invocation; it owns the
    campaign's retry policy and the event stream (``sink(kind,
    **fields)``, normally the campaign's ``supervisor.jsonl`` writer).
    :meth:`attempt` blocks (it runs on a scheduler worker thread) for
    the duration of one supervised run.  A run that cannot be spawned
    is a ``transient`` outcome, retried on the same executor: falling
    back to an in-process executor would drop the process isolation
    and the kill rung without a word.
    """

    def __init__(self, limits: LimitsConfig | None = None,
                 retry: RetryConfig | None = None, sink=None) -> None:
        self.limits = limits or LimitsConfig()
        self.retry = retry or RetryConfig()
        self.policy = RetryPolicy(self.retry)
        self._sink = sink

    # -- events ---------------------------------------------------------

    def emit(self, kind: str, **fields) -> None:
        """Publish one supervision event (never raises)."""
        if self._sink is None:
            return
        try:
            self._sink(kind, **fields)
        except Exception:  # pragma: no cover - defensive
            pass

    # -- the supervised attempt -----------------------------------------

    def attempt(self, executor, run_id: str, run_dir: Path,
                config_path: Path, max_steps: int | None,
                attempt: int) -> Outcome:
        """Execute one run under full supervision; classify the result."""
        run_dir = Path(run_dir)
        # a DRAIN flag left by a previous stall drain must not
        # immediately re-drain the retry
        (run_dir / DRAIN_NAME).unlink(missing_ok=True)
        self.emit("supervision_dispatch", run_id=run_id, attempt=attempt,
                  executor=executor.name)

        result: dict = {}
        done = threading.Event()

        def _execute() -> None:
            try:
                result["code"] = executor.execute(run_dir, config_path,
                                                  max_steps)
            except Exception as exc:  # spawn failure: retried as transient
                result["error"] = f"{type(exc).__name__}: {exc}"
            finally:
                done.set()

        state = _Attempt(run_id, run_dir, started=time.time())
        thread = threading.Thread(
            target=_execute, name=f"exec-{run_id}", daemon=True
        )
        thread.start()
        while not done.wait(timeout=self.limits.poll_seconds):
            self._monitor_tick(executor, state)
        return self._classify(state, result, attempt)

    # -- monitor internals ----------------------------------------------

    def _monitor_tick(self, executor, state: _Attempt) -> None:
        """One watchdog pass: the heartbeat, and the drain→kill ladder.

        The heartbeat is the newer of the telemetry file's mtime (the
        runner appends one record per step, and touches the file from
        inside a step at most every
        :data:`~repro.runtime.runner.DRAIN_POLL_SECONDS`) and the
        dispatch time: a run that is just starting is not stalled.
        """
        lim = self.limits
        now = time.time()
        try:
            beat = (state.run_dir / TELEMETRY_NAME).stat().st_mtime
        except OSError:
            beat = state.started
        age = now - max(beat, state.started)
        if age <= lim.stall_seconds:
            return
        if state.drain_requested_at is None:
            self.emit("supervision_stalled", run_id=state.run_id,
                      heartbeat_age=round(age, 3),
                      elapsed=round(now - state.started, 3))
            # rung 1: ask nicely — DRAIN flag (any executor, any host
            # sharing the filesystem) plus SIGTERM when a handle exists
            (state.run_dir / DRAIN_NAME).touch()
            executor.request_drain(state.run_dir)
            state.drain_requested_at = now
            self.emit("supervision_drain", run_id=state.run_id,
                      reason="stalled")
        elif (not state.killed
              and now - state.drain_requested_at > lim.grace_seconds):
            # rung 2: the drain did not land inside the grace window
            if executor.request_kill(state.run_dir):
                state.killed = True
                self.emit("supervision_kill", run_id=state.run_id,
                          reason="stalled")

    def _classify(self, state: _Attempt, result: dict,
                  attempt: int) -> Outcome:
        """Fold the execute thread's result into a classified Outcome."""
        if "error" in result:
            outcome = Outcome(None, "transient", reason=result["error"])
        else:
            code = result.get("code")
            reason = "exit"
            if state.killed:
                reason = "killed:stalled"
            elif state.drain_requested_at is not None:
                reason = "drained:stalled"
            outcome = Outcome(code, classify_exit(code), reason=reason)
        self.emit("supervision_outcome", run_id=state.run_id,
                  attempt=attempt, **outcome.as_dict())
        return outcome
