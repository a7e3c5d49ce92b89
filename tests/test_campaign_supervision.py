"""Campaign supervision tier: leases, retries, watchdogs.

Tier-1 covers the protocol pieces in isolation (lease semantics,
failure classification, retry budgets) and fast thread-executor
integrations (transient retry, permanent no-retry, stale-``running``
reconciliation, spawn failures retried on the same executor).  The ``chaos``-marked drill runs
the acceptance scenario for real: an 8-point processes campaign
surviving kill/freeze/oom injections bitwise-identically.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.campaign import (
    Campaign,
    CampaignConfig,
    CampaignManifest,
    LimitsConfig,
    Outcome,
    RetryConfig,
    RetryPolicy,
    RunLease,
    ThreadExecutor,
    classify_exit,
)
from repro.campaign.scheduler import SUPERVISOR_LOG
from repro.io.snapshot import read_checkpoint
from repro.runtime import (
    EXIT_COMPLETE,
    EXIT_GUARD_ABORT,
    EXIT_RESUMABLE,
    RunConfig,
    SimulationRunner,
)
from repro.runtime.runner import CHECKPOINT_DIR, DRAIN_NAME, checkpoint_name
from repro.runtime.telemetry import read_events, read_telemetry


def plasma_base(n_steps=3, nx=16, nu=16) -> dict:
    return {
        "scenario": "plasma",
        "grid": {"nx": [nx], "nu": [nu], "box_size": 4 * np.pi, "v_max": 6.0},
        "schedule": {"kind": "time", "dt": 0.1, "n_steps": n_steps},
    }


def fast_retry(**kw) -> RetryConfig:
    """Retry config with test-speed backoff."""
    base = dict(backoff_base=0.01, backoff_cap=0.05, jitter=0.0)
    base.update(kw)
    return RetryConfig(**base)


def small_campaign(tmp_path, n_points=1, n_steps=2, **config_kw) -> Campaign:
    sweep = {"params.mode": list(range(1, n_points + 1))} if n_points > 1 else {}
    kw = dict(
        name="t-sup", base=plasma_base(n_steps=n_steps), sweep=sweep,
        executor="threads", concurrency=min(n_points, 3),
        cpu_budget=3, retry=fast_retry(),
    )
    kw.update(config_kw)
    config = CampaignConfig(**kw).validate()
    return Campaign.create(config, tmp_path / "c")


def supervisor_events(campaign, kind=None) -> list[dict]:
    return read_events(campaign.campaign_dir / SUPERVISOR_LOG, kind)


def dead_pid() -> int:
    """A PID that no longer names a live process."""
    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    proc.wait()
    return proc.pid


class TestRunLease:
    def test_exclusive_acquire(self, tmp_path):
        first = RunLease.acquire(tmp_path, "a", duration=30.0)
        assert first is not None and first.owner == "a"
        assert RunLease.acquire(tmp_path, "b", duration=30.0) is None
        loaded = RunLease.load(tmp_path)
        assert loaded.owner == "a" and not loaded.expired()

    def test_expired_lease_broken_and_retaken(self, tmp_path):
        first = RunLease.acquire(tmp_path, "a", duration=0.01)
        time.sleep(0.05)
        second = RunLease.acquire(tmp_path, "b", duration=30.0, attempt=2)
        assert second is not None and second.owner == "b"
        assert second.attempt == 2
        # the stalled previous holder can neither renew nor release
        assert first.renew() is False
        first.release()
        assert RunLease.load(tmp_path).owner == "b"

    def test_renew_pushes_deadline(self, tmp_path):
        lease = RunLease.acquire(tmp_path, "a", duration=0.2)
        before = lease.data["deadline"]
        time.sleep(0.05)
        assert lease.renew() is True
        assert RunLease.load(tmp_path).data["deadline"] > before

    def test_release_and_missing_load(self, tmp_path):
        lease = RunLease.acquire(tmp_path, "a", duration=30.0)
        lease.release()
        assert RunLease.load(tmp_path) is None
        lease.release()  # idempotent


class TestClassification:
    def test_contract_codes(self):
        assert classify_exit(EXIT_COMPLETE) == "done"
        assert classify_exit(EXIT_RESUMABLE) == "resumable"
        assert classify_exit(EXIT_GUARD_ABORT) == "permanent"

    def test_accidents_are_transient(self):
        assert classify_exit(-9) == "transient"   # SIGKILL
        assert classify_exit(None) == "transient"  # never produced a code
        assert classify_exit(1) == "transient"     # uncontracted crash

    def test_retry_policy_classes(self):
        policy = RetryPolicy(fast_retry(max_attempts=3))
        done = Outcome(0, "done")
        perm = Outcome(70, "permanent")
        trans = Outcome(None, "transient")
        resum = Outcome(75, "resumable")
        assert not policy.should_retry(done, 1)
        assert not policy.should_retry(perm, 1)
        assert policy.should_retry(trans, 1)
        assert policy.should_retry(trans, 2)
        assert not policy.should_retry(trans, 3)  # per-point budget
        # resumable drains belong to the next resume pass by default
        assert not policy.should_retry(resum, 1)
        opted = RetryPolicy(fast_retry(retry_resumable=True))
        assert opted.should_retry(resum, 1)

    def test_campaign_budget_shared(self):
        policy = RetryPolicy(fast_retry(max_attempts=10, campaign_budget=2))
        trans = Outcome(None, "transient")
        assert policy.should_retry(trans, 1)
        assert policy.should_retry(trans, 1)
        assert not policy.should_retry(trans, 1)  # budget spent

    def test_backoff_deterministic_and_capped(self):
        a = RetryPolicy(RetryConfig(backoff_base=0.1, backoff_cap=0.5,
                                    jitter=0.2, seed=7))
        b = RetryPolicy(RetryConfig(backoff_base=0.1, backoff_cap=0.5,
                                    jitter=0.2, seed=7))
        delays = [a.delay(n) for n in range(1, 6)]
        assert delays == [b.delay(n) for n in range(1, 6)]
        assert delays[0] < delays[1] < delays[2]
        assert max(delays) <= 0.5 * 1.2  # cap * (1 + jitter)


class FlakyExecutor(ThreadExecutor):
    """Raises (a spawn failure) the first N times a run is dispatched."""

    def __init__(self, failures=1):
        self.failures = failures
        self.calls = 0
        self._lock = threading.Lock()

    def execute(self, run_dir, config_path, max_steps=None):
        with self._lock:
            self.calls += 1
            if self.calls <= self.failures:
                raise RuntimeError("backend hiccup")
        return super().execute(run_dir, config_path, max_steps)


class TestSupervisedRetries:
    def test_transient_spawn_failure_retried_to_done(self, tmp_path):
        campaign = small_campaign(tmp_path)
        assert campaign.run(executor=FlakyExecutor(failures=1)) == EXIT_COMPLETE
        entry = campaign.manifest.runs["p0000"]
        assert entry["attempts"] == 2
        history = entry["history"]
        assert [h["class"] for h in history] == ["transient", "done"]
        assert supervisor_events(campaign, "supervision_retry")
        outcomes = supervisor_events(campaign, "supervision_outcome")
        assert outcomes[-1]["class"] == "done"

    def test_permanent_guard_abort_never_retried(self, tmp_path):
        base = plasma_base(n_steps=2)
        base["guards"] = {"nan": "abort"}
        base["faults"] = {"events": [{"kind": "inject_nan", "step": 1}]}
        config = CampaignConfig(name="t-perm", base=base,
                                executor="threads", retry=fast_retry(),
                                ).validate()
        campaign = Campaign.create(config, tmp_path / "c")
        assert campaign.run() == EXIT_GUARD_ABORT
        entry = campaign.manifest.runs["p0000"]
        assert entry["attempts"] == 1  # permanent: one attempt, no retry
        assert entry["history"][-1]["class"] == "permanent"
        assert not supervisor_events(campaign, "supervision_retry")

    def test_attempt_exhaustion_leaves_point_failed(self, tmp_path):
        campaign = small_campaign(tmp_path)
        flaky = FlakyExecutor(failures=99)
        campaign.config.retry = fast_retry(max_attempts=2)
        code = campaign.run(executor=flaky)
        assert code == EXIT_RESUMABLE
        entry = campaign.manifest.runs["p0000"]
        assert entry["state"] == "failed"
        assert entry["attempts"] == 2


class TestDrainFlag:
    def test_drain_file_drains_resumable_and_is_consumed(self, tmp_path):
        config = RunConfig.from_dict(plasma_base(n_steps=3))
        run_dir = tmp_path / "r"
        run_dir.mkdir()
        (run_dir / DRAIN_NAME).touch()
        runner = SimulationRunner.create(config, run_dir)
        assert runner.run() == EXIT_RESUMABLE
        manifest = json.loads((run_dir / "run.json").read_text())
        assert manifest["status"] == "interrupted"
        assert manifest["reason"] == "drain_requested"
        assert not (run_dir / DRAIN_NAME).exists()  # consumed
        # only one step ran before the flag was honored
        assert len(read_telemetry(run_dir / "telemetry.jsonl")) == 1
        # the resume completes the schedule
        assert SimulationRunner.resume(run_dir).run() == EXIT_COMPLETE


class TestStaleRunning:
    def test_dead_pid_running_entries_requeued(self, tmp_path):
        campaign = small_campaign(tmp_path, n_points=2)
        campaign.manifest.mark("p0000", "running", owner="ghost")
        campaign.manifest.runs["p0000"]["pid"] = dead_pid()
        campaign.manifest.save()
        resumed = Campaign.resume(campaign.campaign_dir)
        assert resumed.manifest.reset_stale_running() == ["p0000"]
        assert resumed.manifest.runs["p0000"]["state"] == "queued"

    def test_live_pid_running_entries_kept(self, tmp_path):
        campaign = small_campaign(tmp_path)
        campaign.manifest.mark("p0000", "running", owner="me")
        assert campaign.manifest.reset_stale_running() == []
        assert campaign.manifest.runs["p0000"]["state"] == "running"

    def test_resume_after_scheduler_death_completes(self, tmp_path):
        campaign = small_campaign(tmp_path, n_points=2)
        campaign.manifest.mark("p0001", "running", owner="ghost")
        campaign.manifest.runs["p0001"]["pid"] = dead_pid()
        campaign.manifest.save()
        resumed = Campaign.resume(campaign.campaign_dir)
        assert resumed.run() == EXIT_COMPLETE
        assert resumed.manifest.status == "complete"


class TestDispatchRecorded:
    def test_effective_concurrency_persisted(self, tmp_path):
        campaign = small_campaign(tmp_path, n_points=2)
        assert campaign.run() == EXIT_COMPLETE
        reloaded = CampaignManifest.load(campaign.campaign_dir)
        dispatch = reloaded.data["dispatch"]
        assert len(dispatch) == 1
        assert dispatch[0]["executor"] == "threads"
        assert (dispatch[0]["concurrency"]
                == campaign.config.effective_concurrency())
        # every invocation appends its own record
        Campaign.resume(campaign.campaign_dir).run()
        reloaded = CampaignManifest.load(campaign.campaign_dir)
        assert len(reloaded.data["dispatch"]) == 2


class ScriptedExecutor(ThreadExecutor):
    """Per-run script: exit codes, one-shot raises, else real runs."""

    def __init__(self, script):
        self.script = dict(script)
        self._lock = threading.Lock()

    def execute(self, run_dir, config_path, max_steps=None):
        with self._lock:
            action = self.script.get(run_dir.name)
            if action == "raise_once":
                self.script.pop(run_dir.name)
        if action == "raise_once":
            raise RuntimeError("scripted hiccup")
        if isinstance(action, int):
            return action
        return super().execute(run_dir, config_path, max_steps)


class TestStatusAndLogs:
    def make_mixed_campaign(self, tmp_path) -> Campaign:
        """3 points: done / permanent-failed / retried-then-done."""
        campaign = small_campaign(tmp_path, n_points=3)
        scripted = ScriptedExecutor({
            "p0001": EXIT_GUARD_ABORT,
            "p0002": "raise_once",
        })
        assert campaign.run(executor=scripted) == EXIT_GUARD_ABORT
        return campaign

    def test_status_table_shows_attempts_and_classes(self, tmp_path, capsys):
        from repro.cli import main

        campaign = self.make_mixed_campaign(tmp_path)
        assert main(["campaign", "status", str(campaign.campaign_dir)]) == 0
        table = capsys.readouterr().out
        assert "2/3 runs done" in table
        assert "permanent" in table  # p0001's failure class
        assert "done" in table
        for line in table.splitlines():
            if line.lstrip().startswith("p0002"):
                assert " 2 " in line  # retried: two attempts
                break
        else:  # pragma: no cover - table must list every point
            pytest.fail("p0002 missing from status table")

    def test_status_watch_returns_on_terminal_state(self, tmp_path, capsys):
        from repro.cli import main

        campaign = self.make_mixed_campaign(tmp_path)
        code = main(["campaign", "status", str(campaign.campaign_dir),
                     "--watch"])
        assert code == 0
        assert "[failed]" in capsys.readouterr().out

    def test_process_executor_log_captures_runner_output(self, tmp_path):
        config = CampaignConfig(
            name="t-log", base=plasma_base(n_steps=2),
            executor="processes", concurrency=1,
        ).validate()
        campaign = Campaign.create(config, tmp_path / "c")
        assert campaign.run() == EXIT_COMPLETE
        log = (campaign.manifest.run_dir("p0000") / "executor.log").read_text()
        assert "runner: complete" in log  # stdout+stderr captured


class BrokenProcessesExecutor(ThreadExecutor):
    """Pretends to be the 'processes' backend but never spawns."""

    name = "processes"

    def __init__(self):
        pass

    def execute(self, run_dir, config_path, max_steps=None):
        raise OSError("cannot fork")


class TestSpawnFailure:
    def test_unspawnable_backend_retried_in_place(self, tmp_path):
        """A backend that cannot spawn is retried on itself, never
        swapped for an in-process one: the point ends transient."""
        campaign = small_campaign(tmp_path)
        campaign.config.retry = fast_retry(max_attempts=3)
        code = campaign.run(executor=BrokenProcessesExecutor())
        assert code == EXIT_RESUMABLE
        dispatches = supervisor_events(campaign, "supervision_dispatch")
        assert len(dispatches) == 3
        assert {d["executor"] for d in dispatches} == {"processes"}
        assert not supervisor_events(campaign, "supervision_degrade")
        entry = campaign.manifest.runs["p0000"]
        assert entry["state"] == "failed" and entry["attempts"] == 3
        assert [h["class"] for h in entry["history"]] == ["transient"] * 3
        assert "cannot fork" in entry["history"][-1]["reason"]


# ----------------------------------------------------------------------
# chaos drills (excluded from tier-1; CI runs them with `-m chaos`)
# ----------------------------------------------------------------------


def probe_child_rss_mb(tmp_path) -> float:
    """Peak RSS [MB] of one unfaulted `repro run` child process."""
    import repro

    config = RunConfig.from_dict(plasma_base(n_steps=1))
    config_path = tmp_path / "probe.json"
    config.dump(config_path)
    env = dict(os.environ)
    pkg_root = str(os.path.dirname(os.path.dirname(repro.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_root, env.get("PYTHONPATH")) if p
    )
    run_dir = tmp_path / "probe.run"
    subprocess.run(
        [sys.executable, "-m", "repro", "run", str(config_path),
         "--run-dir", str(run_dir)],
        env=env, check=True, capture_output=True,
    )
    records = read_telemetry(run_dir / "telemetry.jsonl")
    return float(records[-1]["rss_mb"])


@pytest.mark.chaos
class TestCampaignChaosDrill:
    def test_8pt_drill_kill_freeze_oom_bitwise(self, tmp_path):
        """The acceptance drill: 8 points, 3 sabotaged, exit 0, bitwise."""
        baseline = probe_child_rss_mb(tmp_path)
        base = plasma_base(n_steps=4)
        base["checkpoint"] = {"every_steps": 1}
        base["step_delay"] = 0.05
        config = CampaignConfig(
            name="t-chaos", base=base,
            sweep={"params.amplitude": [0.01, 0.02],
                   "params.mode": [1, 2],
                   "grid.nu": [[16], [24]]},
            concurrency=3, cpu_budget=3, executor="processes",
            # the stall threshold must clear a child's import time, or
            # a slow interpreter startup reads as a frozen run
            limits=LimitsConfig(lease_seconds=8.0, grace_seconds=1.0,
                                poll_seconds=0.1,
                                rss_mb=baseline + 250.0),
            retry=RetryConfig(max_attempts=4, retry_resumable=True,
                              backoff_base=0.05, backoff_cap=0.2,
                              jitter=0.0),
        ).validate()
        campaign = Campaign.create(config, tmp_path / "c")

        # sabotage three materialized run configs; the fired ledger in
        # each run dir is what keeps the retries from dying forever
        sabotage = {
            "p0001": {"kind": "kill_run", "step": 2},
            "p0003": {"kind": "freeze_run", "step": 2, "magnitude": 25.0},
            "p0006": {"kind": "oom_run", "step": 2, "magnitude": 600.0},
        }
        for run_id, event in sabotage.items():
            config_path = campaign.manifest.run_dir(run_id) / "config.json"
            doc = json.loads(config_path.read_text())
            doc["faults"] = {"events": [event]}
            if run_id == "p0006":
                # slow the steps so the watchdog's 0.1 s poll sees the
                # ballast-inflated telemetry before the run finishes
                doc["step_delay"] = 0.4
            config_path.write_text(json.dumps(doc))

        assert campaign.run() == EXIT_COMPLETE
        assert campaign.manifest.status == "complete"

        # attempt history: every sabotaged point needed a retry and
        # campaign.json records each classified attempt
        manifest = CampaignManifest.load(campaign.campaign_dir)
        for run_id in sabotage:
            entry = manifest.runs[run_id]
            assert entry["attempts"] >= 2, run_id
            classes = [h["class"] for h in entry["history"]]
            assert classes[-1] == "done"
            assert any(c in ("transient", "resumable") for c in classes)
        for run_id in set(manifest.runs) - set(sabotage):
            assert manifest.runs[run_id]["attempts"] == 1, run_id

        # the watchdog saw the freeze and the oom
        assert supervisor_events(campaign, "supervision_stalled")
        assert supervisor_events(campaign, "supervision_over_rss")
        assert supervisor_events(campaign, "supervision_drain")

        # bitwise: every point's final checkpoint equals an unfaulted
        # serial reference of the same sweep point
        for point in config.points():
            serial_dir = tmp_path / "serial" / point.run_id
            runner = SimulationRunner.create(point.config, serial_dir)
            assert runner.run() == EXIT_COMPLETE
            _, f_serial, _, _ = read_checkpoint(
                serial_dir / CHECKPOINT_DIR / checkpoint_name(4))
            _, f_campaign, _, _ = read_checkpoint(
                campaign.manifest.run_dir(point.run_id)
                / CHECKPOINT_DIR / checkpoint_name(4))
            assert np.array_equal(f_serial, f_campaign), point.run_id
