"""The campaign scheduler: K runs in flight, manifest always current.

A :class:`Campaign` owns one **campaign directory**::

    <campaign_dir>/
        campaign.json        # manifest: spec + per-run state
        runs/
            p0000/           # one SimulationRunner run directory each
                config.json  # the materialized RunConfig for this point
                run.json     # (written by the runner)
                telemetry.jsonl
                checkpoints/
            p0001/
            ...

Scheduling is an asyncio fan-out: every pending point becomes a task,
a semaphore admits ``effective_concurrency()`` of them at once (K
clamped by the shared CPU budget), and each task hands its run to
:meth:`Supervisor.attempt` on a worker thread — one dispatch path, whose
retries stay on the campaign's one executor.  All manifest mutations
happen on the event-loop thread, one atomic rewrite per transition —
kill the scheduler at any instant and ``campaign.json`` is complete and
at worst one transition stale.

Resume is a property of the layers below, composed: the manifest says
which points are not ``done`` (those are re-dispatched; done runs are
never touched), and each re-dispatched run re-enters its own directory
through ``SimulationRunner``'s auto-resume — newest valid checkpoint,
quarantine scan, rollback budget and all.  ``repro campaign resume``
is therefore idempotent: run it until the exit code is 0.

One scheduler drives a campaign at a time: :meth:`Campaign.run` holds
the campaign directory's lock (:func:`~repro.io.atomic.directory_lock`)
and raises :class:`~repro.io.atomic.DirectoryLocked` without touching
``campaign.json`` while another live process holds it.

Campaign exit codes extend the single-run contract upward: 0 when every
point is done; 70 when any point failed with a guard abort (someone
must look); else 75 (everything outstanding is resumable — requeue).
"""

from __future__ import annotations

import asyncio
import sys
from pathlib import Path

from ..io.atomic import directory_lock
from ..runtime.runner import EXIT_COMPLETE, EXIT_GUARD_ABORT, EXIT_RESUMABLE
from ..runtime.telemetry import TelemetryWriter
from .aggregate import aggregate_rows
from .config import CampaignConfig
from .executors import Executor, build_executor
from .manifest import CampaignManifest
from .supervision import Supervisor

__all__ = ["RUNS_DIR", "RUN_CONFIG_NAME", "SUPERVISOR_LOG", "Campaign"]

RUNS_DIR = "runs"
RUN_CONFIG_NAME = "config.json"

#: Campaign-level supervision event stream (``supervision_*``
#: records), next to ``campaign.json``.
SUPERVISOR_LOG = "supervisor.jsonl"


class Campaign:
    """Drives one campaign spec inside one campaign directory.

    Use :meth:`create` to materialize (or re-enter) a campaign
    directory from a spec, :meth:`resume` to re-enter one from its
    manifest alone, then :meth:`run` — which may be invoked repeatedly;
    every invocation dispatches only the points still owed work.
    """

    def __init__(self, config: CampaignConfig, campaign_dir: str | Path,
                 manifest: CampaignManifest) -> None:
        self.config = config
        self.campaign_dir = Path(campaign_dir)
        self.manifest = manifest

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def create(cls, config: CampaignConfig,
               campaign_dir: str | Path) -> "Campaign":
        """Materialize a campaign directory (idempotent re-entry).

        Every point gets its run directory and a ``config.json`` the
        executors (and a human with ``repro run``) can drive directly.
        An existing manifest is preserved — creating over a partially
        executed campaign re-enters it rather than resetting state — and
        must hold the spec's points: a spec whose base or sweep differs
        is a ``ValueError``, with nothing written (the spec's
        ``concurrency`` and ``executor`` may differ).  All of it happens
        under the directory's lock (:class:`~repro.io.atomic.DirectoryLocked`
        when another process holds it), released before :meth:`run`
        takes it again.
        """
        config.validate()
        campaign_dir = Path(campaign_dir)
        points = config.points()
        campaign_dir.mkdir(parents=True, exist_ok=True)
        with directory_lock(campaign_dir):
            manifest = None
            if (campaign_dir / "campaign.json").exists():
                manifest = CampaignManifest.load(campaign_dir)
                held = CampaignConfig.from_dict(manifest.data["spec"]).points()
                if [(p.run_id, p.config) for p in held] != \
                        [(p.run_id, p.config) for p in points]:
                    raise ValueError(
                        f"its {len(points)} points differ from the "
                        f"{len(held)} of {campaign_dir}'s manifest"
                    )
            for point in points:
                run_dir = campaign_dir / RUNS_DIR / point.run_id
                run_dir.mkdir(parents=True, exist_ok=True)
                config_path = run_dir / RUN_CONFIG_NAME
                if not config_path.exists():
                    point.config.dump(config_path)
            if manifest is None:
                manifest = CampaignManifest.create(
                    campaign_dir, config.as_dict(), points
                )
        return cls(config, campaign_dir, manifest)

    @classmethod
    def resume(cls, campaign_dir: str | Path) -> "Campaign":
        """Re-enter an existing campaign directory from its manifest."""
        manifest = CampaignManifest.load(campaign_dir)
        config = CampaignConfig.from_dict(manifest.data["spec"])
        return cls(config, campaign_dir, manifest)

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------

    def run(self, executor: Executor | None = None,
            max_steps: int | None = None) -> int:
        """Dispatch every non-done point; return the campaign exit code.

        ``executor`` overrides the spec's choice (tests inject chaos
        through exactly this seam); ``max_steps`` caps the steps each
        run takes this invocation (defaults to the spec's, usually
        unset).  Every point runs through the
        :class:`~repro.campaign.supervision.Supervisor` — the stall
        watchdog, failure-classified retries with backoff on the same
        executor, and the ``supervisor.jsonl`` event stream.  The
        campaign directory's lock is held throughout, and the manifest
        is re-read under it: another scheduler may have moved it on
        since this one loaded it.
        """
        with directory_lock(self.campaign_dir):
            self.manifest = CampaignManifest.load(self.campaign_dir)
            return asyncio.run(self._run_async(executor, max_steps))

    async def _run_async(self, executor: Executor | None,
                         max_steps: int | None) -> int:
        owns_executor = executor is None
        if executor is None:
            executor = build_executor(self.config.executor)
        if max_steps is None:
            max_steps = self.config.max_steps
        stale = self.manifest.reset_stale_running()
        if stale:
            print(f"campaign: re-queued {len(stale)} orphaned running "
                  f"run(s): {', '.join(stale)}", file=sys.stderr)
        pending = self.manifest.pending()
        k = self.config.effective_concurrency()
        self.manifest.record_dispatch(k, executor.name)
        print(f"campaign: {self.config.name} — {len(pending)} of "
              f"{len(self.manifest.runs)} runs pending, {k} in flight "
              f"({executor.name} executor)", file=sys.stderr)
        semaphore = asyncio.Semaphore(k)
        writer = TelemetryWriter(self.campaign_dir / SUPERVISOR_LOG)
        supervisor = Supervisor(self.config.limits, self.config.retry,
                                sink=writer.event)

        async def dispatch(run_id: str) -> int | None:
            async with semaphore:
                run_dir = self.manifest.run_dir(run_id)
                config_path = run_dir / RUN_CONFIG_NAME
                while True:
                    attempt = self.manifest.runs[run_id]["attempts"] + 1
                    self.manifest.mark(run_id, "running")
                    outcome = await asyncio.to_thread(
                        supervisor.attempt, executor, run_id, run_dir,
                        config_path, max_steps, attempt,
                    )
                    if outcome.cls == "done":
                        self.manifest.mark(run_id, "done",
                                           exit_code=outcome.exit_code,
                                           outcome=outcome.as_dict())
                        print(f"campaign: {run_id} done (exit "
                              f"{outcome.exit_code})", file=sys.stderr)
                        return outcome.exit_code
                    retry = supervisor.policy.should_retry(outcome, attempt)
                    self.manifest.mark(run_id, "failed",
                                       exit_code=outcome.exit_code,
                                       outcome=outcome.as_dict())
                    print(f"campaign: {run_id} failed "
                          f"(exit {outcome.exit_code}, {outcome.cls}: "
                          f"{outcome.reason})"
                          + (" — retrying" if retry else ""),
                          file=sys.stderr)
                    if not retry:
                        return outcome.exit_code
                    delay = supervisor.policy.delay(attempt)
                    supervisor.emit("supervision_retry", run_id=run_id,
                                    attempt=attempt,
                                    delay=round(delay, 3))
                    await asyncio.sleep(delay)

        try:
            await asyncio.gather(*(dispatch(rid) for rid in pending))
        finally:
            if owns_executor:
                executor.close()
            writer.close()
        return self.exit_code()

    def exit_code(self) -> int:
        """The campaign-level 0/75/70 rollup of the manifest's states."""
        entries = self.manifest.runs.values()
        if all(e["state"] == "done" for e in entries):
            return EXIT_COMPLETE
        if any(e["state"] == "failed"
               and e["exit_code"] == EXIT_GUARD_ABORT for e in entries):
            return EXIT_GUARD_ABORT
        return EXIT_RESUMABLE

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    def aggregate(self) -> list[dict]:
        """Cross-run result rows (see :mod:`repro.campaign.aggregate`)."""
        return aggregate_rows(self.manifest)
