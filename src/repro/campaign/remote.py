"""Spool-backed remote execution: job tickets, workers, result files.

This is the campaign's batch-queue analog.  On Fugaku the paper's runs
went through a batch scheduler: the submitting process never held the
job's process handle — it wrote a submission, and the system reported
terminal status back.  :class:`QueueExecutor` reproduces that seam on a
shared filesystem:

* **submit** — the scheduler writes an atomic *job ticket* into
  ``<campaign_dir>/spool/jobs/``;
* **claim** — a separate ``repro campaign worker`` process (possibly on
  another host sharing the filesystem) takes the run's
  :class:`~repro.campaign.supervision.RunLease`, deletes the ticket,
  and executes the run in-process while a heartbeat thread renews the
  lease;
* **report** — the worker writes an atomic *result file* into
  ``<campaign_dir>/spool/results/`` carrying the 0/75/70 exit code;
* **poll** — the scheduler's :meth:`QueueExecutor.execute` polls for
  the result instead of holding a subprocess handle.

Failure detection falls out of the lease protocol rather than process
plumbing: a worker that is SIGKILLed mid-run simply stops renewing the
lease, the executor's poll sees the expired lease, reclaims it, and
raises :class:`~repro.campaign.supervision.LeaseExpired` — which the
supervisor classifies as ``transient`` and re-dispatches.  A ticket
that nobody claims while no worker heartbeat is fresh raises
:class:`~repro.campaign.supervision.ExecutorUnavailable`, feeding the
scheduler's executor-degradation chain (queue → processes → threads).

Wall-clock budgets are enforced co-operatively for queue runs: the
executor touches the run directory's ``DRAIN`` flag when the budget is
exceeded and the worker's runner drains to exit 75 at its next step —
there is deliberately no remote hard-kill, because the only authority a
shared filesystem gives us over a foreign host is the lease.
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from pathlib import Path

from ..io.atomic import atomic_write_json
from ..runtime.runner import DRAIN_NAME
from .executors import Executor
from .supervision import ExecutorUnavailable, LeaseExpired, RunLease

__all__ = [
    "QueueExecutor",
    "run_worker",
    "spool_dirs",
]

#: A worker heartbeat file older than this is a dead worker.
WORKER_TTL = 15.0

#: Grace before an unclaimed ticket with no live worker is withdrawn.
UNCLAIMED_GRACE = 10.0


def spool_dirs(campaign_dir: str | Path) -> tuple[Path, Path, Path]:
    """Create (if needed) and return the (jobs, results, workers) dirs."""
    spool = Path(campaign_dir) / "spool"
    jobs, results, workers = spool / "jobs", spool / "results", spool / "workers"
    for d in (jobs, results, workers):
        d.mkdir(parents=True, exist_ok=True)
    return jobs, results, workers


def _read_json(path: Path) -> dict | None:
    try:
        data = json.loads(path.read_text())
    except (FileNotFoundError, json.JSONDecodeError):
        return None
    return data if isinstance(data, dict) else None


def _live_workers(workers_dir: Path, ttl: float = WORKER_TTL) -> list[str]:
    """Worker ids whose heartbeat file is fresher than ``ttl`` seconds."""
    now = time.time()
    alive = []
    for hb in workers_dir.glob("*.json"):
        try:
            if now - hb.stat().st_mtime <= ttl:
                alive.append(hb.stem)
        except OSError:
            pass
    return alive


class QueueExecutor(Executor):
    """Submit runs to the campaign spool; poll results from workers.

    Requires ``campaign_dir`` (the spool lives under it).  ``limits``
    supplies the lease duration workers renew against and the optional
    wall budget enforced via the ``DRAIN`` flag.
    """

    name = "queue"
    remote = True

    #: Poll cadence while waiting on a result.
    POLL_SECONDS = 0.2

    def __init__(self, campaign_dir: Path | None = None,
                 limits=None) -> None:
        super().__init__(campaign_dir, limits)
        if self.campaign_dir is None:
            raise ValueError("QueueExecutor requires campaign_dir")

    def _lease_seconds(self) -> float:
        return float(getattr(self.limits, "lease_seconds", None) or 30.0)

    def execute(self, run_dir: Path, config_path: Path,
                max_steps: int | None = None) -> int:
        run_dir = Path(run_dir)
        run_dir.mkdir(parents=True, exist_ok=True)
        jobs, results, workers = spool_dirs(self.campaign_dir)
        run_id = run_dir.name
        ticket_path = jobs / f"{run_id}.json"
        result_path = results / f"{run_id}.json"
        nonce = uuid.uuid4().hex
        result_path.unlink(missing_ok=True)  # stale result from a prior attempt
        atomic_write_json(ticket_path, {
            "run_id": run_id,
            "nonce": nonce,
            "run_dir": str(run_dir.resolve()),
            "config_path": str(Path(config_path).resolve()),
            "max_steps": max_steps,
            "lease_seconds": self._lease_seconds(),
            "submitted": time.time(),
        })

        submitted = time.time()
        wall = getattr(self.limits, "wall_seconds", None)
        drained = False
        while True:
            result = _read_json(result_path)
            if result is not None and result.get("nonce") == nonce:
                result_path.unlink(missing_ok=True)
                code = result.get("exit_code")
                # a worker interrupted mid-write reports no code: treat
                # as a transient crash (1 is not a contract code)
                return int(code) if code is not None else 1

            lease = RunLease.load(run_dir)
            claimed = not ticket_path.exists()
            if lease is not None and lease.expired():
                # the claiming worker died: reclaim and report upward
                RunLease.break_lease(run_dir)
                ticket_path.unlink(missing_ok=True)
                raise LeaseExpired(
                    f"{run_id}: worker {lease.owner!r} stopped renewing"
                )
            if not claimed and lease is None:
                waited = time.time() - submitted
                if (waited > UNCLAIMED_GRACE
                        and not _live_workers(workers)):
                    ticket_path.unlink(missing_ok=True)
                    raise ExecutorUnavailable(
                        f"{run_id}: no live worker after {waited:.1f}s"
                    )
            if (wall is not None and not drained
                    and time.time() - submitted > wall):
                # co-operative budget enforcement: the worker's runner
                # checks this flag every step and drains to exit 75
                (run_dir / DRAIN_NAME).touch()
                drained = True
            time.sleep(self.POLL_SECONDS)

    def request_kill(self, run_dir: Path) -> bool:
        return False  # no remote hard-kill; the lease is the authority


def run_worker(campaign_dir: str | Path, poll: float = 0.5,
               once: bool = False, worker_id: str | None = None,
               max_jobs: int | None = None) -> int:
    """Claim and execute spool jobs until drained (or forever).

    One worker process services one campaign spool.  Runs execute
    *in-process* (the worker is the run — killing the worker kills the
    run, which is exactly what makes lease reclaim observable), so
    parallelism comes from starting several workers.

    Returns the number of jobs executed.  ``once`` drains the currently
    visible queue and returns instead of polling forever; ``max_jobs``
    stops after that many executions.
    """
    from ..runtime import RunConfig, SimulationRunner

    campaign_dir = Path(campaign_dir)
    jobs, results, workers = spool_dirs(campaign_dir)
    worker_id = worker_id or f"worker-{os.getpid()}"
    heartbeat_path = workers / f"{worker_id}.json"
    executed = 0

    def beat() -> None:
        atomic_write_json(heartbeat_path, {
            "worker": worker_id, "pid": os.getpid(), "time": time.time(),
        })

    try:
        while True:
            beat()
            claimed_any = False
            for ticket_path in sorted(jobs.glob("*.json")):
                ticket = _read_json(ticket_path)
                if ticket is None:
                    continue
                run_dir = Path(ticket["run_dir"])
                duration = float(ticket.get("lease_seconds", 30.0))
                lease = RunLease.acquire(run_dir, worker_id, duration)
                if lease is None:
                    continue  # someone live holds it
                ticket_path.unlink(missing_ok=True)  # claim complete
                claimed_any = True
                executed += 1
                _execute_claimed(ticket, lease, duration, beat,
                                 results, worker_id,
                                 RunConfig, SimulationRunner)
                if max_jobs is not None and executed >= max_jobs:
                    return executed
            if once and not claimed_any:
                return executed
            if not claimed_any:
                time.sleep(poll)
    finally:
        heartbeat_path.unlink(missing_ok=True)


def _execute_claimed(ticket: dict, lease: RunLease, duration: float,
                     beat, results: Path, worker_id: str,
                     RunConfig, SimulationRunner) -> None:
    """Run one claimed job under a renewing lease; report the result."""
    run_dir = Path(ticket["run_dir"])
    stop = threading.Event()

    def renew_loop() -> None:
        while not stop.wait(timeout=max(0.1, duration / 3.0)):
            beat()
            if not lease.renew(duration):
                return  # reclaimed from under us; the run is forfeit

    renewer = threading.Thread(target=renew_loop, daemon=True,
                               name=f"lease-{ticket['run_id']}")
    renewer.start()
    code: int | None = None
    error = ""
    try:
        config = RunConfig.load(ticket["config_path"])
        runner = SimulationRunner.create(config, run_dir)
        code = runner.run(max_steps=ticket.get("max_steps"))
    except Exception as exc:
        # a crashed run must not take the worker down; exit 1 is not a
        # contract code, so the supervisor classifies it transient
        code = 1
        error = f"{type(exc).__name__}: {exc}"
        with open(run_dir / "executor.log", "a", encoding="utf-8") as log:
            log.write(f"[{worker_id}] run raised {error}\n")
    finally:
        stop.set()
        renewer.join(timeout=2.0)
        atomic_write_json(results / f"{ticket['run_id']}.json", {
            "run_id": ticket["run_id"],
            "nonce": ticket.get("nonce"),
            "exit_code": code,
            "error": error,
            "worker": worker_id,
            "finished": time.time(),
        })
        lease.release()
