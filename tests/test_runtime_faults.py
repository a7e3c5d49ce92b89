"""Fault-tolerance: chaos injection, quarantine, rollback, fallbacks.

Two tiers live here. The fast tests (FaultPlan mechanics, checkpoint
integrity, the restart-from-zero warning) run in tier-1. The ``chaos`` -marked integration drills run whole
simulations with faults injected — a domain worker SIGKILLed or stalled
mid-step, a checkpoint corrupted on disk, NaNs planted in f — and
assert the headline guarantee: the run still completes with a final distribution
function **bitwise-identical** to a fault-free run. They are excluded
from tier-1 by the ``-m "not chaos"`` addopts and exercised by the
dedicated CI chaos job (``pytest -m chaos``).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.io import snapshot as snapshot_mod
from repro.io.snapshot import (
    QUARANTINE_SUFFIX,
    SnapshotIntegrityError,
    read_checkpoint,
    write_checkpoint,
)
from repro.runtime import (
    EXIT_COMPLETE,
    EXIT_GUARD_ABORT,
    FaultPlan,
    RunConfig,
    SimulationRunner,
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
    def test_events_fire_once_at_their_step(self):
        plan = FaultPlan([{"kind": "inject_nan", "step": 3, "count": 4}], seed=1)
        f = np.ones((8, 8))
        plan.begin_step(2)
        plan.mutate_state(f)
        assert np.isfinite(f).all()  # not due yet
        plan.begin_step(3)
        plan.mutate_state(f)
        assert np.isnan(f).any()  # fired
        assert plan.exhausted and len(plan.log) == 1
        f2 = np.ones((8, 8))
        plan.begin_step(4)
        plan.mutate_state(f2)
        assert np.isfinite(f2).all()  # one-shot: never refires

    def test_negative_injection_and_stall(self):
        plan = FaultPlan(
            [
                {"kind": "inject_negative", "step": 1, "count": 2,
                 "magnitude": 0.5},
                {"kind": "stall_step", "step": 1, "magnitude": 0.25},
            ],
            seed=2,
        )
        f = np.ones(64)
        plan.begin_step(1)
        plan.mutate_state(f)
        assert f.min() == -0.5
        assert plan.stall_seconds() == 0.25
        assert plan.stall_seconds() == 0.0  # one-shot

    def test_from_spec_accepts_json_path_and_none(self, tmp_path):
        assert FaultPlan.from_spec(None) is None
        inline = FaultPlan.from_spec('[{"kind": "inject_nan", "step": 2}]')
        assert inline.events[0].kind == "inject_nan"
        spec = tmp_path / "plan.json"
        spec.write_text(json.dumps(
            {"seed": 9, "events": [{"kind": "kill_worker", "step": 1}]}
        ))
        loaded = FaultPlan.from_spec(spec)
        assert loaded.seed == 9 and loaded.events[0].kind == "kill_worker"
        assert FaultPlan.from_spec(loaded) is loaded

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            FaultPlan([{"kind": "set_on_fire", "step": 1}])

    def test_corrupt_file_is_seeded_deterministic(self, tmp_path):
        original = bytes(range(256)) * 8
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        a.write_bytes(original)
        b.write_bytes(original)
        for path in (a, b):
            plan = FaultPlan(
                [{"kind": "corrupt_checkpoint", "step": 1, "count": 16}],
                seed=5,
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


def _rewrite_members(path, mutate_header):
    """Re-pack an npz with a mutated header but valid zip-member CRCs."""
    with np.load(path) as data:
        members = {k: data[k] for k in data.files}
    header = json.loads(bytes(members["header"]).decode())
    mutate_header(header)
    members["header"] = np.frombuffer(
        json.dumps(header).encode(), dtype=np.uint8
    )
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

    def test_crc_can_be_disabled(self, tmp_path, monkeypatch):
        monkeypatch.setattr(snapshot_mod, "CHECKSUMS_ENABLED", False)
        path, f = _plasma_checkpoint(tmp_path)
        _, f_read, _, header = read_checkpoint(path)
        assert "checksums" not in header
        assert np.array_equal(f, f_read)

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
        transport.  This grid's drifts run at CFL ~1.1, so they take the
        host fallback and the kicks are the worker rounds that fail."""
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
        assert "domain_degraded" not in kinds  # a respawn was enough

    def test_stall_degrades_engine_but_not_the_answer(
        self, tmp_path, no_leaked_segments
    ):
        """A worker busy past ``task_timeout`` fails the command round;
        with no retries left the engine degrades to host sweeps."""
        ref = reference_f(tmp_path, self.N)
        cfg = chaos_config(
            self.N,
            engine=self.engine(task_timeout=0.5, max_retries=0),
            # one stalled worker holds up the whole round (a barrier)
            faults=FaultsConfig(seed=3, events=[
                {"kind": "stall_worker", "step": 2, "magnitude": 3.0},
            ]),
        )
        runner = SimulationRunner.create(cfg, tmp_path / "stall")
        assert runner.run() == EXIT_COMPLETE
        assert np.array_equal(ref, final_f(tmp_path / "stall", self.N))
        events = read_events(tmp_path / "stall" / TELEMETRY_NAME)
        (failure,) = [e for e in events if e["event"] == "domain_worker_failure"]
        assert "timed out after 0.5s" in failure["error"]
        assert [e["event"] for e in events].count("domain_degraded") == 1

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
