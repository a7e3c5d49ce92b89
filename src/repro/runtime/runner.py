"""The run orchestrator: config → stepper → guarded, resumable run.

A :class:`SimulationRunner` owns one **run directory**::

    <run_dir>/
        lock                # flock'd by the one live runner
        run.json            # manifest: config + status + last step
        telemetry.jsonl     # one record per step (runtime.telemetry)
        checkpoints/
            ck_00000010.npz # rotated, keep_last newest survive
        diagnostics/        # serving tier (config [diagnostics] section):
            snap_*.npz      #   moment-field snapshots
            products.jsonl  #   one spectra record per stored snapshot

and turns any scenario's driver into a production run with the paper's
operational discipline:

* **checkpoint cadence** — on every multiple of N steps and/or every
  T seconds, whichever fires first, with keep-last-K rotation.  The
  multiples of N and the schedule's last step are the leapfrog's
  **sync points**: the step that lands on one applies the pending half
  kick (``Stepper.synchronize()``) before the guards look at it, so
  those checkpoints are synchronous and a run's step-kN checkpoint is
  bitwise the final one of the same run scheduled for kN steps.  Every
  other checkpoint (T seconds, drain, abort) holds the carried state
  and its pending kick, and continues the same chain on resume;
* **auto-resume** — on start, the newest *valid* checkpoint in the run
  directory is loaded (checksum-corrupt or truncated files are
  quarantined with a note and left for post-mortem); a fresh directory
  starts from the scenario's deterministic initial conditions.  Resume
  is **bit-exact**: run N steps, or run k, kill, resume N-k — identical
  f and particles (a checkpoint carries a fixed schedule's dt too);
* **graceful drain** — SIGINT/SIGTERM finish the in-flight step, land a
  checkpoint, mark the run ``interrupted`` and exit with the distinct
  resumable status (:data:`EXIT_RESUMABLE`, BSD's EX_TEMPFAIL).  The
  run's own budgets (``wall_clock_budget``, ``rss_budget_mb``) and
  ``max_steps`` drain through the same path;
* **heartbeat** — ``telemetry.jsonl`` is touched at timer section exits,
  at most every :data:`DRAIN_POLL_SECONDS`: a supervisor's stall
  horizon bounds one sweep, not one step;
* **guards** — per-step health checks (:mod:`repro.runtime.guards`);
  an ``abort``-policy trip writes a final checkpoint *before* exiting
  with :data:`EXIT_GUARD_ABORT`, so the offending state is preserved;
  a ``rollback``-policy trip is a resume: the same restore step as a
  run's start (stepper from the config, newest valid checkpoint, fresh
  ledger and guards), after which dt is scaled by ``recovery.dt_scale``
  per attempt onto that checkpoint — bounded by ``recovery.max_attempts``
  per invocation, after which it escalates to the abort path
  (:mod:`repro.runtime.recovery`);
* **always-on analysis** — with ``diagnostics.every_steps`` set, a
  :class:`~repro.serve.pipeline.DiagnosticsPipeline` stores moment
  fields and binned spectra under ``diagnostics/`` at that cadence, on
  the step thread inside the ``diagnostics_submit`` timer section; its
  lifecycle lands in the telemetry stream as ``diagnostics_*`` events
  and the stored products read back through
  :func:`repro.serve.read_products`;
* **chaos injection** — an optional :class:`~repro.runtime.faults.FaultPlan`
  (the ``[faults]`` config section) fires deterministic worker kills,
  checkpoint corruption, NaN/negative-f injection, and step stalls
  against the machinery above, each once per run directory (resumes
  included); every injection and recovery lands in the telemetry stream
  as an event record.

Exit-code contract (also in ``docs/RUNTIME.md``):

====================  =====  ==============================================
name                  value  meaning
====================  =====  ==============================================
EXIT_COMPLETE             0  schedule finished; synchronous final checkpoint
EXIT_RESUMABLE           75  interrupted/budgets/max_steps; resume continues
EXIT_GUARD_ABORT         70  a guard tripped at abort; state checkpointed
                             (also: rollback budget exhausted)
====================  =====  ==============================================

An exception that escapes the step loop (a domain worker lost past its
retries, a full disk under a checkpoint) is re-raised after ``run.json``
records ``status: "failed"``, ``exit_code: null`` and ``reason:
"error:<ExceptionType>"``; the newest valid checkpoint is where
``repro resume`` continues.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time
from pathlib import Path

from ..diagnostics.timers import ConservationLedger, StepTimer
from ..io.atomic import atomic_write_json, directory_lock
from ..io.snapshot import IOTimer
from ..perf.fft import get_default_backend
from .config import RunConfig
from .faults import FaultPlan
from .guards import GuardSuite
from .recovery import CheckpointState, find_latest_valid_checkpoint
from .scenarios import Stepper, build_engine, build_stepper
from .telemetry import TelemetryWriter, peak_rss_mb, set_event_sink

__all__ = [
    "DRAIN_NAME",
    "EXIT_COMPLETE",
    "EXIT_RESUMABLE",
    "EXIT_GUARD_ABORT",
    "CheckpointState",
    "SimulationRunner",
    "find_latest_valid_checkpoint",
]

EXIT_COMPLETE = 0
EXIT_RESUMABLE = 75
EXIT_GUARD_ABORT = 70

MANIFEST_NAME = "run.json"
TELEMETRY_NAME = "telemetry.jsonl"
CHECKPOINT_DIR = "checkpoints"
DIAGNOSTICS_DIR = "diagnostics"
#: Drain-request flag: a supervisor (campaign watchdog, an operator on
#: another host sharing the filesystem) touches this file in the run
#: directory and the runner drains resumable at a step boundary — the
#: filesystem analog of SIGTERM, and the only drain channel that
#: reaches in-process (thread-executor) runs.
DRAIN_NAME = "DRAIN"
#: The flag is looked for after the first step and then at most this
#: often: a ``stat`` per step costs ~20 us inside a run of 1 ms steps
#: (2-vCPU VM), while a supervisor's drain grace window is seconds.  The
#: heartbeat (a touch of the telemetry file) keeps the same pace.
DRAIN_POLL_SECONDS = 0.05


def checkpoint_name(step: int) -> str:
    """Canonical checkpoint filename for a schedule position."""
    return f"ck_{step:08d}.npz"


class SimulationRunner:
    """Drives one configured run inside one run directory.

    Use :meth:`create` to start (or re-enter) a run directory from a
    config, :meth:`resume` to re-enter one from its manifest alone, then
    :meth:`run` — which may be called repeatedly; every invocation picks
    up from the newest valid checkpoint.
    """

    def __init__(self, config: RunConfig, run_dir: str | Path) -> None:
        self.config = config.validate()
        self.run_dir = Path(run_dir)
        self.timer = StepTimer()
        self.io_timer = IOTimer()
        self.ledger = ConservationLedger()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def create(cls, config: RunConfig, run_dir: str | Path) -> "SimulationRunner":
        """Set up (or re-enter) a run directory for a config."""
        runner = cls(config, run_dir)
        runner.run_dir.mkdir(parents=True, exist_ok=True)
        (runner.run_dir / CHECKPOINT_DIR).mkdir(exist_ok=True)
        if not (runner.run_dir / MANIFEST_NAME).exists():
            runner._write_manifest(status="created", exit_code=None, last_step=0)
        return runner

    @classmethod
    def resume(cls, run_dir: str | Path) -> "SimulationRunner":
        """Re-enter an existing run directory from its manifest."""
        run_dir = Path(run_dir)
        manifest_path = run_dir / MANIFEST_NAME
        if not manifest_path.exists():
            raise FileNotFoundError(f"{run_dir} has no {MANIFEST_NAME} manifest")
        manifest = json.loads(manifest_path.read_text())
        config = RunConfig.from_dict(manifest["config"])
        return cls(config, run_dir)

    # ------------------------------------------------------------------
    # the run loop
    # ------------------------------------------------------------------

    def run(self, max_steps: int | None = None) -> int:
        """Advance the schedule; returns the exit-code-contract status.

        Every invocation first restores: it builds the stepper from the
        config and adopts the newest valid checkpoint (a fresh directory
        starts from the initial conditions).  A ``rollback`` guard trip
        restores the same way, then scales the restored dt by
        ``recovery.dt_scale`` per attempt onto that checkpoint.
        ``max_steps`` caps the steps taken by *this invocation* (a
        deterministic stand-in for the wall-clock budget; the run exits
        resumable when the cap lands before the schedule's end).  The
        config's ``[faults]`` section is the chaos plan; each of its
        faults fires once per run directory.

        The run holds the run directory's lock throughout; a directory
        another live process is running raises
        :class:`~repro.io.atomic.DirectoryLocked` before anything in it
        is touched.
        """
        self.run_dir.mkdir(parents=True, exist_ok=True)
        with directory_lock(self.run_dir):
            return self._run(max_steps)

    def _run(self, max_steps: int | None) -> int:
        config = self.config
        ck_cfg = config.checkpoint
        ck_dir = self.run_dir / CHECKPOINT_DIR
        ck_dir.mkdir(parents=True, exist_ok=True)

        def on_step_cadence(index: int) -> bool:
            # absolute multiples, so a resumed or rolled-back run lands
            # its checkpoints and sync points on the same steps
            return (ck_cfg.every_steps is not None
                    and index % ck_cfg.every_steps == 0)

        fault_plan = None
        if config.faults.events:
            fault_plan = FaultPlan(config.faults.events, self.run_dir,
                                   seed=config.faults.seed)

        # The telemetry stream opens first so that *everything* below —
        # quarantines during the restore scan, worker failures,
        # fault injections, rollbacks — lands in it as event records.
        # The ``finally`` below restores the sink and closes what was
        # opened whether or not the run started: a refused resume too.
        telemetry_path = self.run_dir / TELEMETRY_NAME
        telemetry = TelemetryWriter(telemetry_path)
        prev_sink = set_event_sink(telemetry.event)

        def heartbeat() -> None:
            try:
                os.utime(telemetry_path)
            except OSError:
                pass  # a missed beat is a late one, not an error

        self.timer.set_heartbeat(heartbeat, DRAIN_POLL_SECONDS)
        engine = pipeline = None
        old_handlers: dict[int, object] = {}
        started = False
        rollbacks = 0
        restored_at, retries = None, 0  # the last rollback's restore point
        try:
            engine = build_engine(config)
            if fault_plan is not None:
                engine.fault_hook = fault_plan.worker_fault

            stepper, guard_suite = self._restore(engine, ck_dir)
            last_diag_step = stepper.index

            # The serving tier: moment fields and spectra stored under
            # diagnostics/ at its own cadence.
            diag_cfg = config.diagnostics
            if diag_cfg.every_steps is not None:
                from ..serve.pipeline import DiagnosticsPipeline

                pipeline = DiagnosticsPipeline(
                    self.run_dir / DIAGNOSTICS_DIR,
                    stepper.grid,
                    n_bins=diag_cfg.n_bins,
                )

            interrupts: list[str] = []

            def _drain(signum, frame):  # noqa: ARG001 - signal handler shape
                interrupts.append(signal.Signals(signum).name)

            try:
                for sig in (signal.SIGINT, signal.SIGTERM):
                    old_handlers[sig] = signal.signal(sig, _drain)
            except ValueError:
                pass  # not the main thread; rely on budget/max_steps draining

            start = time.monotonic()
            last_ck_time = next_drain_poll = start
            drain_flag = self.run_dir / DRAIN_NAME
            prev_sections: dict[str, float] = {}
            steps_taken = 0
            saved_at = None  # the step of the newest cadence checkpoint
            self._write_manifest(status="running", exit_code=None,
                                 last_step=stepper.index)
            started = True

            # (status, exit_code, reason, message): set by whatever ends
            # the run early; the schedule's end is the default
            stop = None
            while stop is None and stepper.index < stepper.n_steps:
                if fault_plan is not None:
                    fault_plan.begin_step(stepper.index + 1)
                t0 = time.monotonic()
                with self.timer.section("step"):
                    dt = stepper.advance()
                    # a sync point: the guards, the ledger and the
                    # checkpoint below all see the synchronous state
                    if (stepper.index >= stepper.n_steps
                            or on_step_cadence(stepper.index)):
                        stepper.synchronize()
                wall = time.monotonic() - t0
                steps_taken += 1
                if fault_plan is not None:
                    # an injection poisons f in place: tell the stepper,
                    # so the fields and reductions of the old f go stale
                    if fault_plan.mutate_state(stepper.f):
                        stepper.notify_f_mutated()
                    # A stall is simulated by inflating the measured
                    # wall clock — deterministic, and it exercises the
                    # stall guard without actually sleeping.
                    wall += fault_plan.stall_seconds()
                if config.step_delay > 0.0:
                    time.sleep(config.step_delay)

                self.ledger.update(**stepper.conserved())
                reports = guard_suite.check_step(stepper, wall)
                record = self._record(stepper, dt, wall, reports,
                                      prev_sections)
                telemetry.append(record)

                if reports and GuardSuite.should_abort(reports):
                    worst = next(r for r in reports if r.policy == "abort")
                    stop = ("aborted", EXIT_GUARD_ABORT, f"guard:{worst.guard}",
                            f"runner: aborting on guard — {worst.message}")
                elif reports and GuardSuite.should_rollback(reports):
                    worst = next(r for r in reports if r.policy == "rollback")
                    budget = config.recovery.max_attempts
                    if rollbacks >= budget:
                        stop = ("aborted", EXIT_GUARD_ABORT,
                                "rollback_exhausted",
                                f"runner: rollback budget exhausted "
                                f"({rollbacks}/{budget}) — aborting on "
                                f"guard: {worst.message}")
                    else:
                        # a rollback is a resume, then a smaller step:
                        # the n-th rollback onto one restore point runs
                        # at its dt * dt_scale**n
                        rollbacks += 1
                        stepper, guard_suite = self._restore(
                            engine, ck_dir, quiet=True)
                        retries = (retries + 1
                                   if stepper.index == restored_at else 1)
                        restored_at = stepper.index
                        dt_factor = 1.0
                        if stepper.rescale_dt(
                                config.recovery.dt_scale ** retries):
                            dt_factor = stepper.dt / config.schedule.dt
                        elif config.recovery.dt_scale != 1.0:
                            print("runner: this scenario cannot rescale dt "
                                  "— rolling back at the original step "
                                  "size", file=sys.stderr)
                        telemetry.event(
                            "rollback", attempt=rollbacks, budget=budget,
                            reason=f"guard:{worst.guard}",
                            restored_step=stepper.index, dt_factor=dt_factor,
                        )
                        last_diag_step = stepper.index
                        last_ck_time = time.monotonic()
                        print(f"runner: rollback {rollbacks}/{budget} to "
                              f"step {stepper.index} on guard — "
                              f"{worst.message}", file=sys.stderr)
                        continue
                if stop is not None:
                    break

                done = stepper.index >= stepper.n_steps
                if pipeline is not None and (
                    stepper.index - last_diag_step >= diag_cfg.every_steps
                    or (done and stepper.index != last_diag_step)
                ):
                    # the whole product — moments of f (block by block,
                    # no copy of f), snapshot, spectra — is stored before
                    # the submit returns.  The carried f owes a half
                    # kick: the velocities are corrected by its shift,
                    # f itself is not kicked.
                    with self.timer.section("diagnostics_submit"):
                        dv, dv_particles = stepper.pending_velocity()
                        pipeline.submit(
                            stepper.index, stepper.coordinate(),
                            stepper.f, stepper.particles,
                            velocity_shift=dv,
                            particle_velocity_shift=dv_particles,
                        )
                    last_diag_step = stepper.index
                due = not done and (
                    on_step_cadence(stepper.index)
                    or (ck_cfg.every_seconds is not None
                        and time.monotonic() - last_ck_time
                        >= ck_cfg.every_seconds)
                )
                if due:
                    path = self._checkpoint(stepper, ck_dir)
                    saved_at = stepper.index
                    if fault_plan is not None:
                        fault_plan.corrupt_file(path)
                    last_ck_time = time.monotonic()

                if fault_plan is not None:
                    # run-level chaos (kill/freeze/oom this whole run)
                    # fires after the checkpoint logic so the pre-fault
                    # state is on disk for the retry to resume from; the
                    # kill variant does not return.
                    fault_plan.run_level()

                poll = time.monotonic() >= next_drain_poll
                if poll:
                    next_drain_poll = time.monotonic() + DRAIN_POLL_SECONDS
                if interrupts:
                    stop = ("interrupted", EXIT_RESUMABLE,
                            f"signal:{interrupts[0]}",
                            f"runner: drained on {interrupts[0]} at step "
                            f"{stepper.index}/{stepper.n_steps} — resumable")
                elif poll and drain_flag.exists():
                    # consume the flag: the retry that resumes this run
                    # must not immediately re-drain
                    drain_flag.unlink(missing_ok=True)
                    stop = ("interrupted", EXIT_RESUMABLE, "drain_requested",
                            f"runner: drained on drain_requested at step "
                            f"{stepper.index}/{stepper.n_steps} — resumable")
                elif (config.wall_clock_budget is not None
                      and time.monotonic() - start >= config.wall_clock_budget):
                    stop = ("interrupted", EXIT_RESUMABLE, "wall_clock_budget",
                            f"runner: wall-clock budget exhausted at step "
                            f"{stepper.index}/{stepper.n_steps} — resumable")
                elif (config.rss_budget_mb is not None
                      and record["rss_mb"] > config.rss_budget_mb):
                    stop = ("interrupted", EXIT_RESUMABLE, "rss_budget_mb",
                            f"runner: peak RSS {record['rss_mb']:.0f} MB over "
                            f"the {config.rss_budget_mb:g} MB budget at step "
                            f"{stepper.index}/{stepper.n_steps} — resumable")
                elif (not done and max_steps is not None
                      and steps_taken >= max_steps):
                    stop = ("interrupted", EXIT_RESUMABLE, "max_steps", None)
            status, exit_code, reason, message = stop or (
                "complete", EXIT_COMPLETE, "schedule",
                f"runner: complete — {stepper.index} steps in {self.run_dir}")
            # a stop on a cadence step has its checkpoint already
            if saved_at != stepper.index:
                self._checkpoint(stepper, ck_dir)
            if message is not None:
                print(message, file=sys.stdout if status == "complete"
                      else sys.stderr)
        except BaseException as exc:
            # the manifest says the run died of it; the caller sees it
            status, exit_code = "failed", None
            reason = f"error:{type(exc).__name__}"
            raise
        finally:
            self.timer.set_heartbeat(None)
            for sig, handler in old_handlers.items():
                signal.signal(sig, handler)
            # The pipeline closes BEFORE the sink is restored: its
            # closing summary lands in this run's telemetry.
            if pipeline is not None:
                pipeline.close()
            set_event_sink(prev_sink)
            telemetry.close()
            if engine is not None:
                engine.close()
            if started:
                self._write_manifest(status=status, exit_code=exit_code,
                                     last_step=stepper.index, reason=reason,
                                     rollbacks=rollbacks)
        return exit_code

    # ------------------------------------------------------------------
    # pieces
    # ------------------------------------------------------------------

    def _restore(self, engine, ck_dir: Path,
                 quiet: bool = False) -> tuple[Stepper, GuardSuite]:
        """Build the stepper and adopt the newest valid checkpoint.

        The one restore path, for a run's start and a rollback alike: a
        fresh stepper from the config (deterministic ICs), which adopts
        the newest checkpoint that reads back (checksum-corrupt ones are
        quarantined); when none survives, the run restarts from step 0.
        The conservation ledger and the guard suite are rebuilt from the
        restored state: a trip (a NaN, say) has already poisoned the
        incremental drift tracking.  ``quiet`` keeps the resume notes
        off stderr (a rollback announces itself).
        """
        stepper = build_stepper(self.config, timer=self.timer, engine=engine)
        state = find_latest_valid_checkpoint(
            ck_dir, timer=self.io_timer, quarantine_corrupt=True
        )
        if state is not None:
            if not quiet:
                for path, reason in state.skipped:
                    print(f"runner: skipping unreadable checkpoint "
                          f"{path.name}: {reason}", file=sys.stderr)
            if state.f is not None:
                if state.grid != stepper.grid:
                    raise RuntimeError(
                        f"checkpoint {state.path.name} was written for a "
                        "different grid than this config builds — refusing "
                        "to restore it"
                    )
                stepper.restore(state.f, state.particles, state.header)
                note = (f"runner: resumed from {state.path.name} "
                        f"(step {stepper.index}/{stepper.n_steps})")
            else:
                note = ("runner: no valid checkpoint survives in "
                        f"{ck_dir.name}/ — restarting from step 0")
            if not quiet:
                print(note, file=sys.stderr)
        self.ledger = ConservationLedger()
        self.ledger.register(**stepper.conserved())
        return stepper, GuardSuite(self.config.guards, self.ledger)

    def _record(self, stepper: Stepper, dt: float, wall: float,
                reports, prev_sections: dict[str, float]) -> dict:
        """Build one telemetry record (and roll the section deltas)."""
        deltas = {}
        for name, stats in self.timer.sections.items():
            total = stats.total
            delta = total - prev_sections.get(name, 0.0)
            if delta > 0.0:
                deltas[name] = delta
            prev_sections[name] = total
        return {
            "step": stepper.index,
            "coord": stepper.coordinate(),
            "dt": dt,
            "wall_s": wall,
            "conserved": dict(self.ledger.latest),
            "drifts": self.ledger.as_dict(),
            "sections": deltas,
            "fft": get_default_backend().counters(),
            "io": {
                "bytes_written": self.io_timer.bytes_written,
                "bytes_read": self.io_timer.bytes_read,
                "write_seconds": self.io_timer.write_seconds,
                "read_seconds": self.io_timer.read_seconds,
            },
            "rss_mb": peak_rss_mb(),
            "guards": [r.as_dict() for r in reports],
        }

    def _checkpoint(self, stepper: Stepper, ck_dir: Path) -> Path:
        """Write a checkpoint at the stepper's position, then rotate."""
        path = stepper.save(ck_dir / checkpoint_name(stepper.index),
                            timer=self.io_timer)
        self._rotate(ck_dir)
        return path

    def _rotate(self, ck_dir: Path) -> None:
        """Keep only the ``keep_last`` newest checkpoints.

        Quarantined ``*.corrupt`` files rotate on the same budget: they
        escape the ``ck_*.npz`` glob by design (the restart chain must
        not re-read them), but under repeated corruption they would
        otherwise accumulate without bound.  The newest files of each
        family survive — recent corpses are post-mortem evidence, a
        deep history of them is just disk.  A rollback restores the
        newest valid checkpoint, and rotation runs only after a newer
        write, so it never takes a restore point a rollback still needs.
        """
        keep = self.config.checkpoint.keep_last
        for stale in sorted(ck_dir.glob("ck_*.npz"))[:-keep]:
            stale.unlink(missing_ok=True)
        for stale in sorted(ck_dir.glob("ck_*.npz.corrupt"))[:-keep]:
            stale.unlink(missing_ok=True)

    def _write_manifest(self, status: str, exit_code: int | None,
                        last_step: int, reason: str = "",
                        rollbacks: int = 0) -> None:
        """Atomically rewrite ``run.json`` (tmp + rename, like checkpoints)."""
        manifest = {
            "format": 1,
            "name": self.config.name,
            "scenario": self.config.scenario,
            "status": status,
            "exit_code": exit_code,
            "reason": reason,
            "last_step": last_step,
            "n_steps": self.config.schedule.n_steps,
            "rollbacks": rollbacks,
            "updated": time.time(),
            "config": self.config.as_dict(),
        }
        atomic_write_json(self.run_dir / MANIFEST_NAME, manifest)

    def manifest(self) -> dict:
        """The current manifest contents."""
        return json.loads((self.run_dir / MANIFEST_NAME).read_text())
