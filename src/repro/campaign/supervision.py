"""Supervised campaign execution: leases, failure classes, watchdogs.

The paper's flagship run held 147,456 Fugaku nodes for days; at that
scale restart-and-retry is engineered into the *job* layer, not hoped
for.  This module is that layer for the campaign tier — everything the
scheduler needs to treat a run as a supervised lease-holding job rather
than a fire-and-forget subprocess:

:class:`RunLease`
    An atomic ``lease.json`` per run directory (owner, nonce, deadline,
    attempt).  Acquisition is exclusive-create; an expired lease may be
    *broken* and retaken, with a nonce re-read deciding races between
    two breakers.  The lease is the single source of truth for "someone
    is executing this run" — the scheduler's monitor renews it while
    the run's telemetry shows progress, a ``repro campaign worker``
    renews it from its heartbeat thread, and a lease that stops being
    renewed marks its run orphaned and reclaimable.

:func:`classify_exit`
    Maps every terminal outcome onto a **failure class**: ``done``
    (exit 0), ``resumable`` (exit 75 — an orderly drain; the run's
    checkpoint chain continues it), ``permanent`` (exit 70 — a guard
    abort a human must look at), ``transient`` (signal death, lease
    expiry, spawn failure — retry and it will likely just work).

:class:`RetryPolicy`
    Capped exponential backoff with deterministic seeded jitter, plus
    the per-point and per-campaign attempt budgets
    (:class:`~repro.campaign.config.RetryConfig`).

:class:`Supervisor`
    The scheduler-side watchdog.  One :meth:`attempt` executes one run
    under supervision: lease held, monitor loop watching telemetry
    mtime (the heartbeat the runner already provides), per-run
    wall-clock and RSS budgets (:class:`~repro.campaign.config.LimitsConfig`)
    enforced by a drain→kill ladder (``DRAIN`` flag + SIGTERM, then
    SIGKILL after the grace window), and the terminal exit code
    classified into an :class:`Outcome`.  Every supervision action is
    published as a ``lease_*`` / ``supervision_*`` event to the
    campaign's ``supervisor.jsonl`` stream.

Retried ``transient``/``resumable`` attempts re-enter the run's own
checkpoint chain through ``SimulationRunner``'s auto-resume, so a
retried campaign stays **bitwise-identical** to an unfaulted one — the
property the campaign chaos drill asserts.
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..io.atomic import atomic_write_json
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
    "LEASE_NAME",
    "LeaseExpired",
    "ExecutorUnavailable",
    "Outcome",
    "RetryPolicy",
    "RunLease",
    "Supervisor",
    "classify_exit",
    "read_last_rss_mb",
]

LEASE_NAME = "lease.json"

#: Every failure class an attempt can land in.
FAILURE_CLASSES = ("done", "transient", "resumable", "permanent")

#: Consecutive spawn failures of one executor before the scheduler
#: degrades to the next backend in the chain (queue→processes→threads).
DEGRADE_AFTER = 2


class LeaseExpired(Exception):
    """A run's lease stopped being renewed: the holder is presumed dead."""


class ExecutorUnavailable(Exception):
    """The execution backend itself is broken (spawn failure, no worker)."""


def classify_exit(exit_code: int | None) -> str:
    """Map one terminal exit code onto its failure class.

    ``None`` (no exit code — the attempt died before producing one:
    lease expiry, spawn failure) and negative codes (signal death) are
    ``transient``; unknown positive codes are ``transient`` too, on the
    theory that anything that is not a deliberate contract code was an
    environmental accident worth one more try.
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
    spawn_failure: bool = False

    @property
    def final(self) -> bool:
        """Whether this outcome ends the point's dispatch loop."""
        return self.cls in ("done", "permanent")

    def as_dict(self) -> dict:
        return {"exit_code": self.exit_code, "class": self.cls,
                "reason": self.reason}


class RetryPolicy:
    """Capped exponential backoff with deterministic seeded jitter."""

    def __init__(self, config: RetryConfig) -> None:
        self.config = config
        self._rng = np.random.default_rng(config.seed)
        self._campaign_spent = 0
        self._lock = threading.Lock()

    def delay(self, attempt: int) -> float:
        """Seconds to wait before retry number ``attempt`` (1-based)."""
        c = self.config
        base = min(c.backoff_cap, c.backoff_base * 2.0 ** max(0, attempt - 1))
        with self._lock:
            jitter = float(self._rng.random())
        return base * (1.0 + c.jitter * jitter)

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


class RunLease:
    """An atomic per-run-directory lease: ``lease.json``.

    Acquisition is ``O_CREAT | O_EXCL`` — exactly one claimant wins a
    free lease.  A lease whose deadline has passed may be broken and
    retaken by anyone: the breaker writes a replacement via tmp +
    ``os.replace`` and then re-reads the file; the nonce says which of
    two simultaneous breakers actually won.  Renewal and release verify
    ownership the same way, so a reclaimed lease cannot be resurrected
    by its previous (stalled) holder.
    """

    def __init__(self, run_dir: Path, data: dict) -> None:
        self.run_dir = Path(run_dir)
        self.path = self.run_dir / LEASE_NAME
        self.data = data

    # -- construction ---------------------------------------------------

    @classmethod
    def acquire(cls, run_dir: str | Path, owner: str, duration: float,
                attempt: int = 1) -> "RunLease | None":
        """Claim the run's lease; ``None`` when a live holder exists.

        An expired lease on disk is broken and retaken atomically.
        """
        run_dir = Path(run_dir)
        path = run_dir / LEASE_NAME
        now = time.time()
        data = {
            "owner": owner,
            "nonce": uuid.uuid4().hex,
            "pid": os.getpid(),
            "acquired": now,
            "deadline": now + float(duration),
            "duration": float(duration),
            "attempt": int(attempt),
        }
        payload = json.dumps(data, indent=2) + "\n"
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            existing = cls.load(run_dir)
            if existing is not None and not existing.expired():
                return None
            # break the expired lease: last replace wins, nonce decides
            atomic_write_json(path, data)
            survivor = cls.load(run_dir)
            if survivor is None or survivor.data.get("nonce") != data["nonce"]:
                return None  # a racing breaker won
            return cls(run_dir, data)
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(payload)
        return cls(run_dir, data)

    @classmethod
    def load(cls, run_dir: str | Path) -> "RunLease | None":
        """The lease currently on disk (``None`` if absent/unreadable)."""
        path = Path(run_dir) / LEASE_NAME
        try:
            data = json.loads(path.read_text())
        except (FileNotFoundError, json.JSONDecodeError):
            return None
        if not isinstance(data, dict):
            return None
        return cls(run_dir, data)

    # -- state ----------------------------------------------------------

    @property
    def owner(self) -> str:
        return str(self.data.get("owner", ""))

    @property
    def attempt(self) -> int:
        return int(self.data.get("attempt", 1))

    def expired(self, now: float | None = None) -> bool:
        """Whether the deadline has passed (the holder stopped renewing)."""
        now = time.time() if now is None else now
        return now > float(self.data.get("deadline", 0.0))

    def _owned_on_disk(self) -> bool:
        current = RunLease.load(self.run_dir)
        return (current is not None
                and current.data.get("nonce") == self.data.get("nonce"))

    def renew(self, duration: float | None = None) -> bool:
        """Push the deadline out; ``False`` if the lease was reclaimed."""
        if not self._owned_on_disk():
            return False
        duration = float(duration if duration is not None
                         else self.data.get("duration", 30.0))
        self.data["deadline"] = time.time() + duration
        atomic_write_json(self.path, self.data)
        return True

    def release(self) -> None:
        """Drop the lease (only if still ours); idempotent."""
        if self._owned_on_disk():
            self.path.unlink(missing_ok=True)

    @staticmethod
    def break_lease(run_dir: str | Path) -> None:
        """Forcibly delete whatever lease is on disk (reclaim)."""
        (Path(run_dir) / LEASE_NAME).unlink(missing_ok=True)


# ----------------------------------------------------------------------
# heartbeat helpers
# ----------------------------------------------------------------------


def heartbeat_age(run_dir: str | Path, since: float,
                  include_lease: bool = True) -> float:
    """Seconds since the run last showed life, relative to ``since``.

    Life is the newest of: the lease file's mtime (renewals), the
    telemetry stream's mtime (the runner appends one record per step),
    and ``since`` itself (dispatch time — a run that has not produced
    its first record yet is not stalled, just starting).

    ``include_lease=False`` restricts life to *run progress* (telemetry
    only).  The supervisor's own monitor must use this form: it renews
    the lease itself, so counting the lease mtime would declare its own
    renewals to be the run's heartbeat and a frozen run would never
    look stalled.
    """
    run_dir = Path(run_dir)
    newest = since
    names = (LEASE_NAME, TELEMETRY_NAME) if include_lease else (TELEMETRY_NAME,)
    for name in names:
        try:
            newest = max(newest, (run_dir / name).stat().st_mtime)
        except OSError:
            pass
    return time.time() - newest


def read_last_rss_mb(telemetry_path: str | Path) -> float | None:
    """Peak RSS [MB] from the newest complete telemetry record.

    Reads only the file's tail (a week-long stream never needs to be
    scanned) and tolerates torn final lines; ``None`` when no record
    carries an ``rss_mb`` yet.
    """
    try:
        with open(telemetry_path, "rb") as fh:
            fh.seek(0, os.SEEK_END)
            size = fh.tell()
            fh.seek(max(0, size - 65536))
            tail = fh.read().decode("utf-8", errors="replace")
    except OSError:
        return None
    for line in reversed(tail.splitlines()):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(record, dict) and "rss_mb" in record:
            return float(record["rss_mb"])
    return None


# ----------------------------------------------------------------------
# the supervisor
# ----------------------------------------------------------------------


@dataclass
class _Attempt:
    """Bookkeeping for one in-flight supervised attempt."""

    run_id: str
    run_dir: Path
    started: float
    drain_requested_at: float | None = None
    killed: bool = False
    violations: list = field(default_factory=list)


class Supervisor:
    """The scheduler-side watchdog: leases, budgets, classification.

    One supervisor lives for one scheduler invocation; it owns the
    campaign's retry policy, the degradation counters, and the event
    stream (``sink(kind, **fields)``, normally the campaign's
    ``supervisor.jsonl`` writer).  :meth:`attempt` blocks (it runs on a
    scheduler worker thread) for the duration of one supervised run.
    """

    def __init__(self, campaign_dir: str | Path,
                 limits: LimitsConfig | None = None,
                 retry: RetryConfig | None = None,
                 sink=None, owner: str | None = None) -> None:
        self.campaign_dir = Path(campaign_dir)
        self.limits = limits or LimitsConfig()
        self.retry = retry or RetryConfig()
        self.policy = RetryPolicy(self.retry)
        self.owner = owner or f"sched-{os.getpid()}"
        self._sink = sink
        self._spawn_failures: dict[int, int] = {}  # id(executor) -> streak
        self._lock = threading.Lock()

    # -- events ---------------------------------------------------------

    def emit(self, kind: str, **fields) -> None:
        """Publish one supervision event (never raises)."""
        if self._sink is None:
            return
        try:
            self._sink(kind, **fields)
        except Exception:  # pragma: no cover - defensive
            pass

    # -- degradation ----------------------------------------------------

    def note_spawn_result(self, executor, failed: bool) -> int:
        """Track consecutive spawn failures per executor instance."""
        with self._lock:
            key = id(executor)
            if failed:
                self._spawn_failures[key] = self._spawn_failures.get(key, 0) + 1
            else:
                self._spawn_failures[key] = 0
            return self._spawn_failures[key]

    def should_degrade(self, executor) -> bool:
        """Whether this executor's spawn-failure streak warrants swapping."""
        with self._lock:
            return self._spawn_failures.get(id(executor), 0) >= DEGRADE_AFTER

    # -- the supervised attempt -----------------------------------------

    def attempt(self, executor, run_id: str, run_dir: Path,
                config_path: Path, max_steps: int | None,
                attempt: int) -> Outcome:
        """Execute one run under full supervision; classify the result."""
        run_dir = Path(run_dir)
        lim = self.limits
        # a DRAIN flag left by a previous over-budget drain must not
        # immediately re-drain the retry
        (run_dir / DRAIN_NAME).unlink(missing_ok=True)

        stale = RunLease.load(run_dir)
        if stale is not None:
            if not stale.expired():
                return Outcome(None, "transient", reason="lease_held")
            self.emit("lease_expired", run_id=run_id, owner=stale.owner,
                      attempt=stale.attempt)
            RunLease.break_lease(run_dir)
            self.emit("lease_reclaimed", run_id=run_id, by=self.owner)

        remote = getattr(executor, "remote", False)
        lease = None
        if not remote:
            lease = RunLease.acquire(run_dir, self.owner, lim.lease_seconds,
                                     attempt=attempt)
            if lease is None:
                return Outcome(None, "transient", reason="lease_held")
            self.emit("lease_acquired", run_id=run_id, owner=self.owner,
                      attempt=attempt)
        self.emit("supervision_dispatch", run_id=run_id, attempt=attempt,
                  executor=executor.name)

        result: dict = {}
        done = threading.Event()

        def _execute() -> None:
            try:
                result["code"] = executor.execute(run_dir, config_path,
                                                  max_steps)
            except LeaseExpired as exc:
                result["lease_expired"] = str(exc)
            except Exception as exc:  # spawn/backend failure
                result["error"] = f"{type(exc).__name__}: {exc}"
                result["unavailable"] = isinstance(exc, ExecutorUnavailable)
            finally:
                done.set()

        state = _Attempt(run_id, run_dir, started=time.time())
        thread = threading.Thread(
            target=_execute, name=f"exec-{run_id}", daemon=True
        )
        thread.start()
        try:
            while not done.wait(timeout=lim.poll_seconds):
                self._monitor_tick(executor, state, lease)
        finally:
            if lease is not None:
                lease.release()
                self.emit("lease_released", run_id=run_id, owner=self.owner)
        return self._classify(executor, state, result, attempt)

    # -- monitor internals ----------------------------------------------

    def _monitor_tick(self, executor, state: _Attempt,
                      lease: RunLease | None) -> None:
        """One watchdog pass: heartbeat, budgets, the drain→kill ladder."""
        lim = self.limits
        now = time.time()
        if getattr(executor, "remote", False):
            return  # the queue executor polls/reclaims on its own
        age = heartbeat_age(state.run_dir, state.started,
                            include_lease=False)
        stalled = age > lim.lease_seconds
        if lease is not None and not stalled:
            # renew lazily — only once the deadline is within half the
            # lease duration, not on every tick (a rewrite per 0.25 s
            # poll is measurable disk traffic at K runs in flight)
            deadline = float(lease.data.get("deadline", 0.0))
            if now > deadline - lim.lease_seconds / 2.0:
                lease.renew(lim.lease_seconds)
        over_wall = (lim.wall_seconds is not None
                     and now - state.started > lim.wall_seconds)
        over_rss = False
        if lim.rss_mb is not None:
            # only trust telemetry appended by THIS attempt: the tail
            # record of a drained previous attempt still carries its
            # ballast-inflated peak RSS, and acting on it would drain
            # every retry at startup forever
            tpath = state.run_dir / TELEMETRY_NAME
            try:
                fresh = tpath.stat().st_mtime >= state.started
            except OSError:
                fresh = False
            if fresh:
                rss = read_last_rss_mb(tpath)
                over_rss = rss is not None and rss > lim.rss_mb
        if not (stalled or over_wall or over_rss):
            return
        violation = ("stalled" if stalled
                     else "over_wall" if over_wall else "over_rss")
        if violation not in state.violations:
            state.violations.append(violation)
            self.emit(f"supervision_{violation}", run_id=state.run_id,
                      heartbeat_age=round(age, 3),
                      elapsed=round(now - state.started, 3))
        if state.drain_requested_at is None:
            # rung 1: ask nicely — DRAIN flag (any executor, any host
            # sharing the filesystem) plus SIGTERM when a handle exists
            (state.run_dir / DRAIN_NAME).touch()
            executor.request_drain(state.run_dir)
            state.drain_requested_at = now
            self.emit("supervision_drain", run_id=state.run_id,
                      reason=violation)
        elif (not state.killed
              and now - state.drain_requested_at > lim.grace_seconds):
            # rung 2: the drain did not land inside the grace window
            if executor.request_kill(state.run_dir):
                state.killed = True
                self.emit("supervision_kill", run_id=state.run_id,
                          reason=violation)

    def _classify(self, executor, state: _Attempt, result: dict,
                  attempt: int) -> Outcome:
        """Fold the execute thread's result into a classified Outcome."""
        if "lease_expired" in result:
            self.emit("lease_expired", run_id=state.run_id,
                      detail=result["lease_expired"])
            self.note_spawn_result(executor, failed=False)
            outcome = Outcome(None, "transient", reason="lease_expired")
        elif "error" in result:
            self.note_spawn_result(executor, failed=True)
            outcome = Outcome(None, "transient", reason=result["error"],
                              spawn_failure=True)
        else:
            self.note_spawn_result(executor, failed=False)
            code = result.get("code")
            reason = "exit"
            if state.killed:
                reason = f"killed:{state.violations[0]}"
            elif state.violations:
                reason = f"drained:{state.violations[0]}"
            outcome = Outcome(code, classify_exit(code), reason=reason)
        self.emit("supervision_outcome", run_id=state.run_id,
                  attempt=attempt, **outcome.as_dict())
        return outcome
