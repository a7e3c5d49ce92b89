"""Fault-tolerance: chaos injection, quarantine, rollback, failed runs.

Two tiers live here. The fast tests (FaultPlan mechanics, checkpoint
integrity, the restart-from-zero warning, runs that fail on an error or
a full disk) run in tier-1. The ``chaos`` -marked integration drills run
whole simulations with faults injected — a domain worker SIGKILLed or
stalled mid-step, a checkpoint corrupted on disk, NaNs planted in f —
and assert the headline guarantee: the run completes, or fails and
resumes from its checkpoints, with a final distribution function
**bitwise-identical** to a fault-free run. They are excluded from
tier-1 by the ``-m "not chaos"`` addopts and exercised by the dedicated
CI chaos job (``pytest -m chaos``).
"""

from __future__ import annotations

import errno
import json

import numpy as np
import pytest

from repro.io.snapshot import (
    QUARANTINE_SUFFIX,
    SnapshotIntegrityError,
    read_checkpoint,
    read_snapshot,
    write_checkpoint,
)
from repro.runtime import (
    EXIT_COMPLETE,
    EXIT_GUARD_ABORT,
    EXIT_RESUMABLE,
    FaultPlan,
    RunConfig,
    SimulationRunner,
    iter_records,
    read_events,
    set_event_sink,
)
from repro.runtime.config import (
    CheckpointConfig,
    EngineConfig,
    FaultsConfig,
    GridConfig,
    GuardConfig,
    RecoveryConfig,
    ScheduleConfig,
)
from repro.runtime.recovery import find_latest_valid_checkpoint
from repro.runtime.runner import CHECKPOINT_DIR, TELEMETRY_NAME, checkpoint_name
from repro.runtime.scenarios import Stepper

from .helpers import failed_run_resumes


def chaos_config(n_steps=8, **overrides) -> RunConfig:
    base = dict(
        scenario="plasma",
        name="t-chaos",
        grid=GridConfig(nx=(24,), nu=(24,), box_size=4 * np.pi, v_max=6.0),
        schedule=ScheduleConfig(kind="time", dt=0.1, n_steps=n_steps),
        checkpoint=CheckpointConfig(every_steps=1, keep_last=16),
    )
    base.update(overrides)
    return RunConfig(**base)


def final_f(run_dir, step):
    _, f, _, _ = read_checkpoint(run_dir / CHECKPOINT_DIR / checkpoint_name(step))
    return f


def reference_f(tmp_path, n_steps=8):
    """Final f of a fault-free serial run — the bitwise yardstick."""
    runner = SimulationRunner.create(chaos_config(n_steps), tmp_path / "ref")
    assert runner.run() == EXIT_COMPLETE
    return final_f(tmp_path / "ref", n_steps)


# ----------------------------------------------------------------------
# FaultPlan mechanics (tier-1)
# ----------------------------------------------------------------------


class TestFaultPlan:
    def test_events_fire_once_at_their_step(self, tmp_path):
        plan = FaultPlan([{"kind": "inject_nan", "step": 3, "count": 4}],
                         tmp_path, seed=1)
        f = np.ones((8, 8))
        plan.begin_step(2)
        plan.mutate_state(f)
        assert np.isfinite(f).all()  # not due yet
        plan.begin_step(3)
        plan.mutate_state(f)
        assert np.isnan(f).any()  # fired
        assert [(e["kind"], e["fired_at"]) for e in plan.log] == [
            ("inject_nan", 3)]
        f2 = np.ones((8, 8))
        plan.begin_step(4)
        plan.mutate_state(f2)
        assert np.isfinite(f2).all()  # one-shot: never refires
        assert len(plan.log) == 1

    def test_an_event_fires_once_per_run_directory(self, tmp_path):
        """A plan built on a run directory persists each firing; a later
        plan there (a resume, a retry) finds it fired."""
        events = [{"kind": "inject_nan", "step": 3},
                  {"kind": "inject_nan", "step": 3},
                  {"kind": "stall_step", "step": 5, "magnitude": 2.0}]
        first = FaultPlan(events, tmp_path, seed=1)
        first.begin_step(3)
        for _ in range(3):  # one event of a kind per injection point
            first.mutate_state(np.ones(16))
        assert len(first.log) == 2  # both NaN events, not the stall

        again = FaultPlan(events, tmp_path, seed=1)
        again.begin_step(5)
        f = np.ones(16)
        assert not again.mutate_state(f) and np.isfinite(f).all()
        assert again.stall_seconds() == 2.0  # the one that had not fired
        assert [e.fired_at for e in again.events] == [3, 3, 5]
        last = FaultPlan(events, tmp_path)
        last.begin_step(6)
        assert last.stall_seconds() == 0.0 and not last.log

    def test_negative_injection_and_stall(self, tmp_path):
        plan = FaultPlan(
            [
                {"kind": "inject_negative", "step": 1, "count": 2,
                 "magnitude": 0.5},
                {"kind": "stall_step", "step": 1, "magnitude": 0.25},
            ],
            tmp_path, seed=2,
        )
        f = np.ones(64)
        plan.begin_step(1)
        plan.mutate_state(f)
        assert f.min() == -0.5
        assert plan.stall_seconds() == 0.25
        assert plan.stall_seconds() == 0.0  # one-shot

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="kind"):
            FaultPlan([{"kind": "set_on_fire", "step": 1}], tmp_path)

    def test_corrupt_file_is_seeded_deterministic(self, tmp_path):
        original = bytes(range(256)) * 8
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        a.write_bytes(original)
        b.write_bytes(original)
        for path in (a, b):  # one run directory each: each plan fires
            run_dir = tmp_path / path.stem
            run_dir.mkdir()
            plan = FaultPlan(
                [{"kind": "corrupt_checkpoint", "step": 1, "count": 16}],
                run_dir, seed=5,
            )
            plan.begin_step(1)
            plan.corrupt_file(path)
        assert a.read_bytes() == b.read_bytes() != original


# ----------------------------------------------------------------------
# Checkpoint integrity + quarantine (tier-1)
# ----------------------------------------------------------------------


def _plasma_checkpoint(tmp_path, name="ck_00000001.npz", step=1):
    from repro.core import PhaseSpaceGrid

    grid = PhaseSpaceGrid(nx=(8,), nu=(8,), box_size=1.0, v_max=2.0,
                          dtype=np.float64)
    rng = np.random.default_rng(0)
    f = rng.random(grid.shape)
    return write_checkpoint(tmp_path / name, grid, f, step=step), f


def _diagnostics_snapshot(tmp_path):
    """One product stored by the diagnostics pipeline; returns its path."""
    from repro.core import PhaseSpaceGrid
    from repro.serve import DiagnosticsPipeline
    from repro.serve.pipeline import snapshot_name

    grid = PhaseSpaceGrid(nx=(8,), nu=(8,), box_size=1.0, v_max=2.0,
                          dtype=np.float64)
    f = np.random.default_rng(0).random(grid.shape)
    with DiagnosticsPipeline(tmp_path / "diag", grid) as pipe:
        pipe.submit(1, {"t": 0.0}, f)
    return tmp_path / "diag" / snapshot_name(1)


def _rewrite_members(path, mutate_header=None, flip=None):
    """Re-pack an npz with a mutated header, or one byte of array
    ``flip`` inverted, but valid zip-member CRCs."""
    with np.load(path) as data:
        members = {k: data[k] for k in data.files}
    if mutate_header is not None:
        header = json.loads(bytes(members["header"]).decode())
        mutate_header(header)
        members["header"] = np.frombuffer(
            json.dumps(header).encode(), dtype=np.uint8
        )
    if flip is not None:
        raw = members[flip].view(np.uint8).reshape(-1)
        raw[raw.size // 2] ^= 0xFF
    np.savez(path, **members)


class TestCheckpointIntegrity:
    def test_v3_header_carries_per_array_crc32(self, tmp_path):
        path, _ = _plasma_checkpoint(tmp_path)
        _, _, _, header = read_checkpoint(path)
        assert header["version"] == 3
        assert set(header["checksums"]) == {"f"}

    def test_checksum_mismatch_raises_integrity_error(self, tmp_path):
        path, _ = _plasma_checkpoint(tmp_path)

        def tamper(header):
            header["checksums"]["f"] ^= 1

        _rewrite_members(path, tamper)
        with pytest.raises(SnapshotIntegrityError, match="checksum"):
            read_checkpoint(path)
        # a diagnostics product is the same container: one flipped byte
        snap = _diagnostics_snapshot(tmp_path)
        _rewrite_members(snap, flip="density")
        with pytest.raises(SnapshotIntegrityError, match="'density'"):
            read_snapshot(snap)

    def test_header_stripped_of_checksums_is_refused_and_quarantined(
        self, tmp_path
    ):
        """A header that lost its ``checksums`` key is damage, not an
        older format: the read raises and the resume scan quarantines
        the file and restores the previous checkpoint."""
        old_path, f_old = _plasma_checkpoint(tmp_path, "ck_00000001.npz", 1)
        new_path, _ = _plasma_checkpoint(tmp_path, "ck_00000002.npz", 2)
        _rewrite_members(new_path, lambda header: header.pop("checksums"))
        with pytest.raises(SnapshotIntegrityError, match="no checksums"):
            read_checkpoint(new_path)
        state = find_latest_valid_checkpoint(tmp_path, quarantine_corrupt=True)
        assert state.path == old_path
        assert np.array_equal(state.f, f_old)
        assert (tmp_path / ("ck_00000002.npz" + QUARANTINE_SUFFIX)).exists()

    def test_scan_quarantines_corrupt_newest_and_restores_previous(
        self, tmp_path
    ):
        old_path, f_old = _plasma_checkpoint(tmp_path, "ck_00000001.npz", 1)
        new_path, _ = _plasma_checkpoint(tmp_path, "ck_00000002.npz", 2)
        raw = bytearray(new_path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        new_path.write_bytes(bytes(raw))

        events = []
        prev = set_event_sink(lambda kind, **fields: events.append(kind))
        try:
            state = find_latest_valid_checkpoint(
                tmp_path, quarantine_corrupt=True
            )
        finally:
            set_event_sink(prev)
        assert state.path == old_path
        assert np.array_equal(state.f, f_old)
        assert not new_path.exists()
        assert (tmp_path / ("ck_00000002.npz" + QUARANTINE_SUFFIX)).exists()
        assert events == ["checkpoint_quarantined"]

    def test_scan_without_flag_leaves_files_alone(self, tmp_path):
        path, _ = _plasma_checkpoint(tmp_path)
        path.write_bytes(b"not a zip")
        state = find_latest_valid_checkpoint(tmp_path)
        assert state.f is None and len(state.skipped) == 1
        assert path.exists()


# ----------------------------------------------------------------------
# Restart-from-zero warning (tier-1)
# ----------------------------------------------------------------------


class TestRestartFromZero:
    def test_all_invalid_checkpoints_warn_and_restart(self, tmp_path, capsys):
        cfg = chaos_config(4)
        runner = SimulationRunner.create(cfg, tmp_path / "run")
        assert runner.run(max_steps=2) == 75
        ck_dir = tmp_path / "run" / CHECKPOINT_DIR
        for ck in ck_dir.glob("ck_*.npz"):
            ck.write_bytes(b"garbage")
        resumed = SimulationRunner.resume(tmp_path / "run")
        assert resumed.run() == EXIT_COMPLETE
        assert resumed.manifest()["last_step"] == 4
        err = capsys.readouterr().err
        assert "restarting from step 0" in err
        # the garbage files were quarantined out of the restart chain
        assert list(ck_dir.glob("ck_*.npz" + QUARANTINE_SUFFIX))


# ----------------------------------------------------------------------
# Runs that fail: the manifest says so, and the checkpoints resume (tier-1)
# ----------------------------------------------------------------------


class TestFailedRuns:
    def test_an_error_in_the_step_loop_marks_the_run_failed(
        self, tmp_path, monkeypatch
    ):
        """An exception escaping the step loop re-raises after ``run.json``
        records it: ``failed``, no exit code, the exception's type."""
        advance = Stepper.advance

        def failing_advance(stepper):
            if stepper.index == 2:
                raise RuntimeError("injected")
            return advance(stepper)

        monkeypatch.setattr(Stepper, "advance", failing_advance)
        runner = SimulationRunner.create(chaos_config(4), tmp_path / "run")
        with pytest.raises(RuntimeError, match="injected"):
            runner.run()
        manifest = runner.manifest()
        assert (manifest["status"], manifest["exit_code"], manifest["reason"],
                manifest["last_step"]) == ("failed", None, "error:RuntimeError", 2)

    # the traceback holds the checkpoint writer's view of f while the
    # engine closes: the segment's finalizer must not report it too
    @pytest.mark.filterwarnings(
        "error::pytest.PytestUnraisableExceptionWarning")
    def test_full_disk_at_a_cadence_checkpoint_fails_clean_and_resumes(
        self, tmp_path, monkeypatch
    ):
        """ENOSPC inside the atomic write of step 3's cadence checkpoint of
        a domain-engine run: the run fails with no staged or torn file
        and no shared-memory segment left, and resumes from step 2 to the
        uninterrupted run's final f, bitwise."""
        from repro.io import atomic, snapshot

        n = 6
        ref = reference_f(tmp_path, n)
        full = [checkpoint_name(3)]

        def full_disk(path, write_fn):
            if path.name not in full:
                return atomic.atomic_write(path, write_fn)
            full.clear()  # the disk has room again for the resume

            def torn(fh):  # half the container lands, then the disk is full
                write_fn(fh)
                fh.truncate(fh.tell() // 2)
                raise OSError(errno.ENOSPC, "No space left on device")

            return atomic.atomic_write(path, torn)

        monkeypatch.setattr(snapshot, "atomic_write", full_disk)
        cfg = chaos_config(n, engine=EngineConfig(engine="domain", topology=[2]))
        f_final = failed_run_resumes(cfg, tmp_path / "enospc", OSError)
        assert not full
        assert f_final.tobytes() == ref.tobytes()


# ----------------------------------------------------------------------
# A rollback is a resume: its dt compounds and survives the next one
# (tier-1)
# ----------------------------------------------------------------------


class TestRollbackThenResume:
    def test_rescaled_dt_survives_a_resume(self, tmp_path):
        """A NaN at step 3 rolls back to the step-2 checkpoint at half
        the dt; the run is drained by ``max_steps = 5`` and resumed.
        The resume continues at the rescaled dt from the checkpoint,
        does not roll back again, and ends on the uninterrupted run."""
        cfg = chaos_config(
            8,
            grid=GridConfig(nx=(16,), nu=(16,), box_size=4 * np.pi,
                            v_max=6.0),
            checkpoint=CheckpointConfig(every_steps=2, keep_last=3),
            guards=GuardConfig(nan="rollback"),
            recovery=RecoveryConfig(max_attempts=3, dt_scale=0.5),
            faults=FaultsConfig(seed=1, events=[
                {"kind": "inject_nan", "step": 3},
            ]),
        )
        whole = tmp_path / "whole"
        assert SimulationRunner.create(cfg, whole).run() == EXIT_COMPLETE
        split = tmp_path / "split"
        assert SimulationRunner.create(cfg, split).run(max_steps=5) \
            == EXIT_RESUMABLE
        n_first = len(list(iter_records(split / TELEMETRY_NAME)))
        assert SimulationRunner.resume(split).run() == EXIT_COMPLETE

        assert final_f(split, 8).tobytes() == final_f(whole, 8).tobytes()
        records = list(iter_records(split / TELEMETRY_NAME))
        assert not [r for r in records[n_first:]
                    if r.get("event") == "rollback"]
        first = next(i for i, r in enumerate(records)
                     if r.get("event") == "rollback")
        dts = [r["dt"] for r in records[first:] if "event" not in r]
        assert len(dts) == 6 and set(dts) == {0.05}

    def test_dt_scale_compounds_over_rollbacks_onto_one_checkpoint(
        self, tmp_path
    ):
        """A trip that repeats before a newer checkpoint lands rolls back
        onto the same restore point twice: the second attempt runs at
        dt * dt_scale**2, not at the first attempt's dt again."""
        cfg = chaos_config(
            8,
            checkpoint=CheckpointConfig(every_steps=2, keep_last=16),
            guards=GuardConfig(nan="rollback"),
            recovery=RecoveryConfig(max_attempts=3, dt_scale=0.5),
            faults=FaultsConfig(seed=1, events=[
                {"kind": "inject_nan", "step": 3},
                {"kind": "inject_nan", "step": 3},
            ]),
        )
        runner = SimulationRunner.create(cfg, tmp_path / "twice")
        assert runner.run() == EXIT_COMPLETE
        assert runner.manifest()["rollbacks"] == 2
        records = list(iter_records(tmp_path / "twice" / TELEMETRY_NAME))
        rollbacks = [(i, r) for i, r in enumerate(records)
                     if r.get("event") == "rollback"]
        assert [(r["restored_step"], r["dt_factor"])
                for _, r in rollbacks] == [(2, 0.5), (2, 0.25)]
        dts = [r["dt"] for r in records[rollbacks[-1][0]:]
               if "event" not in r]
        assert len(dts) == 6 and set(dts) == {0.025}


# ----------------------------------------------------------------------
# Chaos drills: whole runs under injected faults
# ----------------------------------------------------------------------


def event_kinds(run_dir) -> list[str]:
    return [e["event"] for e in read_events(run_dir / TELEMETRY_NAME)]


@pytest.fixture
def no_leaked_segments():
    """Every shared-memory segment a drill creates is unlinked by its end."""
    from repro.perf.substrate import LIVE_SEGMENTS

    yield
    assert not LIVE_SEGMENTS


@pytest.mark.chaos
class TestChaosRuns:
    N = 8

    def engine(self, **over):
        """Two domain workers: the package's one supervised process
        transport.  This grid's drifts run at CFL ~1.1 on the workers
        like the kicks, each landing a wider halo."""
        base = dict(engine="domain", topology=[2], task_timeout=60.0)
        base.update(over)
        return EngineConfig(**base)

    def test_worker_kill_completes_bitwise_identical(
        self, tmp_path, no_leaked_segments
    ):
        ref = reference_f(tmp_path, self.N)
        cfg = chaos_config(
            self.N,
            engine=self.engine(),
            faults=FaultsConfig(seed=7, events=[
                {"kind": "kill_worker", "step": 2},
            ]),
        )
        runner = SimulationRunner.create(cfg, tmp_path / "kill")
        assert runner.run() == EXIT_COMPLETE
        assert np.array_equal(ref, final_f(tmp_path / "kill", self.N))
        kinds = event_kinds(tmp_path / "kill")
        assert "fault_injected" in kinds and "domain_worker_failure" in kinds

    def test_stall_past_retries_fails_and_resumes_bitwise(
        self, tmp_path, no_leaked_segments
    ):
        """A worker busy past ``task_timeout`` fails the command round;
        with no retries left the run fails, and its resume ends on the
        fault-free answer."""
        from repro.parallel.domain import DomainWorkerError

        ref = reference_f(tmp_path, self.N)
        cfg = chaos_config(
            self.N, engine=self.engine(task_timeout=0.5, max_retries=0),
            faults=FaultsConfig(seed=3, events=[
                {"kind": "stall_worker", "step": 2, "magnitude": 3.0},
            ]),
        )
        # one stalled worker holds up the whole round (a barrier); the
        # resume re-runs step 2, where the stall has already fired
        f_final = failed_run_resumes(cfg, tmp_path / "stall",
                                     DomainWorkerError)
        assert np.array_equal(ref, f_final)
        events = read_events(tmp_path / "stall" / TELEMETRY_NAME)
        (failure,) = [e for e in events if e["event"] == "domain_worker_failure"]
        assert "timed out after 0.5s" in failure["error"]

    def test_corruption_and_nan_roll_back_to_previous_checkpoint(
        self, tmp_path, no_leaked_segments
    ):
        """The demo drill: kill + corrupt + NaN in one run.

        The NaN trips the rollback guard after the newest checkpoint was
        corrupted on disk, so recovery must quarantine it and restore the
        one before — and the finished run is still bit-exact.
        """
        ref = reference_f(tmp_path, self.N)
        cfg = chaos_config(
            self.N,
            engine=self.engine(),
            guards=GuardConfig(nan="rollback"),
            faults=FaultsConfig(seed=7, events=[
                {"kind": "kill_worker", "step": 2},
                {"kind": "corrupt_checkpoint", "step": 4},
                {"kind": "inject_nan", "step": 5, "count": 4},
            ]),
        )
        runner = SimulationRunner.create(cfg, tmp_path / "drill")
        assert runner.run() == EXIT_COMPLETE
        assert np.array_equal(ref, final_f(tmp_path / "drill", self.N))

        events = read_events(tmp_path / "drill" / TELEMETRY_NAME)
        by_kind = {e["event"]: e for e in events}
        assert by_kind["checkpoint_quarantined"]["quarantined_to"] == (
            checkpoint_name(4) + QUARANTINE_SUFFIX
        )
        rollback = by_kind["rollback"]
        assert rollback["restored_step"] == 3
        assert rollback["dt_factor"] == 1.0
        assert runner.manifest()["rollbacks"] == 1
        ck_dir = tmp_path / "drill" / CHECKPOINT_DIR
        assert (ck_dir / (checkpoint_name(4) + QUARANTINE_SUFFIX)).exists()
        assert "domain_worker_failure" in by_kind

    def test_rollback_budget_exhaustion_aborts_70(self, tmp_path):
        cfg = chaos_config(
            self.N,
            guards=GuardConfig(nan="rollback"),
            recovery=RecoveryConfig(max_attempts=1),
            faults=FaultsConfig(seed=1, events=[
                {"kind": "inject_nan", "step": 2},
                {"kind": "inject_nan", "step": 3},
            ]),
        )
        runner = SimulationRunner.create(cfg, tmp_path / "exhaust")
        assert runner.run() == EXIT_GUARD_ABORT
        manifest = runner.manifest()
        assert manifest["status"] == "aborted"
        assert manifest["reason"] == "rollback_exhausted"
        assert manifest["rollbacks"] == 1

    def test_abort_policy_still_aborts_immediately(self, tmp_path):
        cfg = chaos_config(
            self.N,
            guards=GuardConfig(nan="abort"),
            faults=FaultsConfig(seed=1, events=[
                {"kind": "inject_nan", "step": 2},
            ]),
        )
        runner = SimulationRunner.create(cfg, tmp_path / "abort")
        assert runner.run() == EXIT_GUARD_ABORT
        assert runner.manifest()["reason"] == "guard:nan"
        assert runner.manifest()["rollbacks"] == 0

    def test_dt_scale_shrinks_the_step_after_rollback(self, tmp_path):
        cfg = chaos_config(
            self.N,
            guards=GuardConfig(nan="rollback"),
            recovery=RecoveryConfig(max_attempts=3, dt_scale=0.5),
            faults=FaultsConfig(seed=1, events=[
                {"kind": "inject_nan", "step": 3},
            ]),
        )
        runner = SimulationRunner.create(cfg, tmp_path / "shrink")
        assert runner.run() == EXIT_COMPLETE
        records = [
            r for r in read_events(tmp_path / "shrink" / TELEMETRY_NAME)
        ]
        rollback = next(e for e in records if e["event"] == "rollback")
        assert rollback["dt_factor"] == 0.5
        from repro.runtime import read_telemetry

        steps = read_telemetry(tmp_path / "shrink" / TELEMETRY_NAME)
        assert steps[-1]["dt"] == pytest.approx(0.05)
