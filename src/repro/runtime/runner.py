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
  directory is loaded (corrupt or truncated files are skipped with a
  note and left for post-mortem); a fresh directory starts from the
  scenario's deterministic initial conditions.  Resume is **bit-exact**:
  run N steps, or run k, kill, resume N-k — identical f and particles;
* **graceful drain** — SIGINT/SIGTERM finish the in-flight step, land a
  checkpoint, mark the run ``interrupted`` and exit with the distinct
  resumable status (:data:`EXIT_RESUMABLE`, BSD's EX_TEMPFAIL).  The
  wall-clock budget and ``max_steps`` drain through the same path;
* **guards** — per-step health checks (:mod:`repro.runtime.guards`);
  an ``abort``-policy trip writes a final checkpoint *before* exiting
  with :data:`EXIT_GUARD_ABORT`, so the offending state is preserved;
  a ``rollback``-policy trip restores the newest valid checkpoint
  (quarantining checksum-corrupt ones), optionally shrinks dt, rebuilds
  the ledger/guards, and re-runs — bounded by ``recovery.max_attempts``,
  after which it escalates to the abort path
  (:mod:`repro.runtime.recovery`);
* **always-on analysis** — with ``diagnostics.every_steps`` set, a
  :class:`~repro.serve.pipeline.DiagnosticsPipeline` worker stores
  moment fields and binned spectra under ``diagnostics/`` at that
  cadence, off the step critical path; its lifecycle lands in the
  telemetry stream as ``diagnostics_*`` events and the stored products
  read back through :func:`repro.serve.read_products`;
* **chaos injection** — an optional :class:`~repro.runtime.faults.FaultPlan`
  (``[faults]`` config section, or the ``run()`` argument) fires
  deterministic worker kills, checkpoint corruption, NaN/negative-f
  injection, and step stalls against the machinery above;
  every injection and recovery lands in the telemetry stream as an
  event record.

Exit-code contract (also in ``docs/RUNTIME.md``):

====================  =====  ==============================================
name                  value  meaning
====================  =====  ==============================================
EXIT_COMPLETE             0  schedule finished; synchronous final checkpoint
EXIT_RESUMABLE           75  interrupted/budget/max_steps; resume continues
EXIT_GUARD_ABORT         70  a guard tripped at abort; state checkpointed
                             (also: rollback budget exhausted)
====================  =====  ==============================================
"""

from __future__ import annotations

import json
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
from .recovery import (
    CheckpointState,
    RecoveryManager,
    find_latest_valid_checkpoint,
)
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
#: (2-vCPU VM), while a supervisor's drain grace window is seconds.
DRAIN_POLL_SECONDS = 0.05


def checkpoint_name(step: int) -> str:
    """Canonical checkpoint filename for a schedule position."""
    return f"ck_{step:08d}.npz"


def _adopt(stepper: Stepper, state: CheckpointState) -> None:
    """Restore ``stepper`` from a recovered checkpoint (resume and
    rollback alike), refusing one written for a different grid."""
    if state.grid != stepper.grid:
        raise RuntimeError(
            f"checkpoint {state.path.name} was written for a different "
            "grid than this config builds — refusing to restore it"
        )
    stepper.restore(state.f, state.particles, state.header)


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
        #: While a rollback is pending (state restored, no newer
        #: checkpoint written yet), the checkpoint it restored from —
        #: rotation must never delete it (see :meth:`_rotate`).
        self._rollback_protect: Path | None = None

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

    def run(self, max_steps: int | None = None,
            fault_plan: "FaultPlan | None" = None) -> int:
        """Advance the schedule; returns the exit-code-contract status.

        ``max_steps`` caps the steps taken by *this invocation* (a
        deterministic stand-in for the wall-clock budget; the run exits
        resumable when the cap lands before the schedule's end).
        ``fault_plan`` injects chaos (tests/drills); when omitted, the
        config's ``[faults]`` section is the plan.

        The run holds the run directory's lock throughout; a directory
        another live process is running raises
        :class:`~repro.io.atomic.DirectoryLocked` before anything in it
        is touched.
        """
        self.run_dir.mkdir(parents=True, exist_ok=True)
        with directory_lock(self.run_dir):
            return self._run(max_steps, fault_plan)

    def _run(self, max_steps: int | None,
             fault_plan: "FaultPlan | None") -> int:
        config = self.config
        ck_cfg = config.checkpoint
        ck_dir = self.run_dir / CHECKPOINT_DIR
        ck_dir.mkdir(parents=True, exist_ok=True)

        def on_step_cadence(index: int) -> bool:
            # absolute multiples, so a resumed or rolled-back run lands
            # its checkpoints and sync points on the same steps
            return (ck_cfg.every_steps is not None
                    and index % ck_cfg.every_steps == 0)

        if fault_plan is None and config.faults.events:
            fault_plan = FaultPlan(config.faults.events, seed=config.faults.seed)

        # The telemetry stream opens first so that *everything* below —
        # quarantines during the resume scan, engine degradations,
        # fault injections, rollbacks — lands in it as event records.
        # The ``finally`` below restores the sink and closes what was
        # opened whether or not the run started: a refused resume too.
        telemetry = TelemetryWriter(self.run_dir / TELEMETRY_NAME)
        prev_sink = set_event_sink(telemetry.event)
        engine = pipeline = None
        old_handlers: dict[int, object] = {}
        started = False
        try:
            engine = build_engine(config)
            if fault_plan is not None:
                engine.fault_hook = fault_plan.worker_fault

            stepper = build_stepper(config, timer=self.timer, engine=engine)

            # The serving tier: a background worker storing moment fields
            # and spectra under diagnostics/ at its own cadence.  It gets
            # the telemetry writer's *bound method* as its sink, not the
            # contextual emit_event — the contextvar installed above is
            # invisible from the worker thread.
            diag_cfg = config.diagnostics
            if diag_cfg.every_steps is not None:
                from ..serve.pipeline import DiagnosticsPipeline

                pipeline = DiagnosticsPipeline(
                    self.run_dir / DIAGNOSTICS_DIR,
                    stepper.grid,
                    n_bins=diag_cfg.n_bins,
                    event_sink=telemetry.event,
                )

            state = find_latest_valid_checkpoint(
                ck_dir, timer=self.io_timer, quarantine_corrupt=True
            )
            if state is not None:
                for path, reason in state.skipped:
                    print(f"runner: skipping unreadable checkpoint {path.name}: "
                          f"{reason}", file=sys.stderr)
                if state.f is not None:
                    _adopt(stepper, state)
                    print(f"runner: resumed from {state.path.name} "
                          f"(step {stepper.index}/{stepper.n_steps})",
                          file=sys.stderr)
                else:
                    print("runner: no valid checkpoint survives in "
                          f"{ck_dir.name}/ — restarting from step 0",
                          file=sys.stderr)

            last_diag_step = stepper.index
            recovery = RecoveryManager(ck_dir, config.recovery,
                                       timer=self.io_timer)
            self.ledger = ConservationLedger()
            self.ledger.register(**stepper.conserved())
            guard_suite = GuardSuite(config.guards, self.ledger)

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
            status, exit_code, reason = "running", EXIT_COMPLETE, ""
            self._write_manifest(status="running", exit_code=None,
                                 last_step=stepper.index)
            started = True

            while stepper.index < stepper.n_steps:
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
                    # reading stepper.f can be a full gather (domain
                    # engine), so only materialize it while an unfired
                    # state-injection event still needs the target —
                    # and tell the stepper about in-place mutations so
                    # worker-resident copies of f re-sync
                    if fault_plan.wants_state():
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
                telemetry.append(self._record(stepper, dt, wall, reports,
                                              prev_sections))

                if reports and GuardSuite.should_abort(reports):
                    self._checkpoint(stepper, ck_dir)
                    worst = next(r for r in reports if r.policy == "abort")
                    status, exit_code = "aborted", EXIT_GUARD_ABORT
                    reason = f"guard:{worst.guard}"
                    print(f"runner: aborting on guard — {worst.message}",
                          file=sys.stderr)
                    break

                if reports and GuardSuite.should_rollback(reports):
                    worst = next(r for r in reports
                                 if r.policy == "rollback")
                    if recovery.exhausted:
                        self._checkpoint(stepper, ck_dir)
                        status, exit_code = "aborted", EXIT_GUARD_ABORT
                        reason = "rollback_exhausted"
                        print("runner: rollback budget exhausted "
                              f"({recovery.attempts}/"
                              f"{recovery.config.max_attempts}) — aborting "
                              f"on guard: {worst.message}", file=sys.stderr)
                        break
                    stepper = self._rollback(
                        recovery, f"guard:{worst.guard}", engine
                    )
                    guard_suite = GuardSuite(config.guards, self.ledger)
                    last_diag_step = stepper.index
                    last_ck_time = time.monotonic()
                    print(f"runner: rollback {recovery.attempts}/"
                          f"{recovery.config.max_attempts} to step "
                          f"{stepper.index} on guard — {worst.message}",
                          file=sys.stderr)
                    continue

                done = stepper.index >= stepper.n_steps
                if pipeline is not None and (
                    stepper.index - last_diag_step >= diag_cfg.every_steps
                    or (done and stepper.index != last_diag_step)
                ):
                    # the submit reduces f to its moments on this
                    # thread, block by block (no copy of f); FFTs and
                    # disk I/O happen on the worker.  The carried f
                    # owes a half kick: the velocities are corrected by
                    # its shift, f itself is not kicked.
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
                    if fault_plan is not None:
                        fault_plan.corrupt_file(path)
                    last_ck_time = time.monotonic()

                if fault_plan is not None:
                    # run-level chaos (kill/freeze/oom this whole run)
                    # fires after the checkpoint logic so the pre-fault
                    # state is on disk for the retry to resume from; the
                    # kill variant does not return.
                    fault_plan.run_level(self.run_dir)

                poll = time.monotonic() >= next_drain_poll
                if poll:
                    next_drain_poll = time.monotonic() + DRAIN_POLL_SECONDS
                if interrupts or (poll and drain_flag.exists()):
                    self._checkpoint(stepper, ck_dir)
                    status, exit_code = "interrupted", EXIT_RESUMABLE
                    if interrupts:
                        reason = f"signal:{interrupts[0]}"
                    else:
                        reason = "drain_requested"
                        # consume the flag: the retry that resumes this
                        # run must not immediately re-drain
                        drain_flag.unlink(missing_ok=True)
                    print(f"runner: drained on {reason.split(':')[-1]} at "
                          f"step {stepper.index}/{stepper.n_steps} — "
                          "resumable", file=sys.stderr)
                    break
                if (config.wall_clock_budget is not None
                        and time.monotonic() - start >= config.wall_clock_budget):
                    self._checkpoint(stepper, ck_dir)
                    status, exit_code = "interrupted", EXIT_RESUMABLE
                    reason = "wall_clock_budget"
                    print(f"runner: wall-clock budget exhausted at step "
                          f"{stepper.index}/{stepper.n_steps} — resumable",
                          file=sys.stderr)
                    break
                if max_steps is not None and steps_taken >= max_steps:
                    if stepper.index < stepper.n_steps:
                        self._checkpoint(stepper, ck_dir)
                        status, exit_code = "interrupted", EXIT_RESUMABLE
                        reason = "max_steps"
                    break
            if status == "running":  # the while condition ended the loop
                self._checkpoint(stepper, ck_dir)
                status, exit_code, reason = "complete", EXIT_COMPLETE, "schedule"
                print(f"runner: complete — {stepper.index} steps "
                      f"in {self.run_dir}")
        finally:
            for sig, handler in old_handlers.items():
                signal.signal(sig, handler)
            # The pipeline drains and closes BEFORE the telemetry stream:
            # its worker publishes diagnostics_* events through
            # telemetry.event right up to the closing summary.
            if pipeline is not None:
                pipeline.close()
            set_event_sink(prev_sink)
            telemetry.close()
            if engine is not None:
                engine.close()
            if started:
                self._write_manifest(status=status, exit_code=exit_code,
                                     last_step=stepper.index, reason=reason,
                                     rollbacks=recovery.attempts)
        return exit_code

    # ------------------------------------------------------------------
    # pieces
    # ------------------------------------------------------------------

    def _rollback(self, recovery: RecoveryManager, reason: str,
                  engine) -> Stepper:
        """Restore the newest valid state and rebuild the observers.

        A fresh stepper is built from the config (deterministic ICs —
        exactly the resume path) and, when a valid checkpoint survives,
        adopts its state; when none does, the run restarts from step 0.
        The conservation ledger is rebuilt from the restored state: the
        trip that brought us here (a NaN, say) has already poisoned the
        incremental drift tracking, so the old observers cannot be
        trusted.  Returns the replacement stepper.
        """
        state = recovery.begin_attempt(reason)
        self._rollback_protect = (
            state.path if state is not None and state.f is not None else None
        )
        stepper = build_stepper(self.config, timer=self.timer, engine=engine)
        if state is not None and state.f is not None:
            _adopt(stepper, state)
        if recovery.config.dt_scale != 1.0:
            if not stepper.rescale_dt(recovery.dt_factor):
                print("runner: this scenario cannot rescale dt — "
                      "rolling back at the original step size",
                      file=sys.stderr)
        self.ledger = ConservationLedger()
        self.ledger.register(**stepper.conserved())
        return stepper

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
        # A newer valid checkpoint now exists: whatever rollback restore
        # was pending is superseded, so the old restore point may rotate.
        self._rollback_protect = None
        self._rotate(ck_dir)
        return path

    def _rotate(self, ck_dir: Path) -> None:
        """Keep only the ``keep_last`` newest checkpoints.

        Quarantined ``*.corrupt`` files rotate on the same budget: they
        escape the ``ck_*.npz`` glob by design (the restart chain must
        not re-read them), but under repeated corruption they would
        otherwise accumulate without bound.  The newest files of each
        family survive — recent corpses are post-mortem evidence, a
        deep history of them is just disk.

        Invariant: while a rollback is pending (state restored from a
        checkpoint, nothing newer written yet) the restored-from file is
        never deleted, no matter how the retention window lands — losing
        it would leave a re-tripping run nothing to roll back onto.
        """
        keep = self.config.checkpoint.keep_last
        protect = self._rollback_protect
        files = sorted(ck_dir.glob("ck_*.npz"))
        for stale in files[:-keep]:
            if protect is not None and stale.name == protect.name:
                continue
            stale.unlink(missing_ok=True)
        assert protect is None or protect.exists(), (
            f"rotation deleted the pending rollback restore point "
            f"{protect.name}"
        )
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
