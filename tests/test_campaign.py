"""Campaign layer: spec expansion, manifest, scheduler, resume.

The headline integration test is the ISSUE's acceptance scenario: an
8-point sweep under K=3 concurrency where one run is chaos-killed
(exit 75), ``Campaign.resume`` completes only the unfinished points,
and the aggregate table matches a serial reference bit for bit.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro.campaign import (
    Campaign,
    CampaignConfig,
    CampaignManifest,
    ThreadExecutor,
    build_executor,
    format_table,
)
from repro.io.snapshot import read_checkpoint
from repro.runtime import (
    EXIT_COMPLETE,
    EXIT_GUARD_ABORT,
    EXIT_RESUMABLE,
    RunConfig,
    SimulationRunner,
)
from repro.runtime.runner import CHECKPOINT_DIR, checkpoint_name


def plasma_base(n_steps=3, nx=16, nu=16) -> dict:
    return {
        "scenario": "plasma",
        "grid": {"nx": [nx], "nu": [nu], "box_size": 4 * np.pi, "v_max": 6.0},
        "schedule": {"kind": "time", "dt": 0.1, "n_steps": n_steps},
    }


def sweep8_config(**overrides) -> CampaignConfig:
    """The acceptance sweep: 2 x 2 x 2 = 8 points (mass-analog x res)."""
    base = dict(
        name="t-sweep",
        base=plasma_base(n_steps=3),
        sweep={
            "params.amplitude": [0.01, 0.02],
            "params.mode": [1, 2],
            "grid.nu": [[16], [24]],
        },
        concurrency=3,
        cpu_budget=3,  # declarative budget: K=3 even on a 1-core CI box
        executor="threads",
    )
    base.update(overrides)
    return CampaignConfig(**base).validate()


class CountingExecutor(ThreadExecutor):
    """ThreadExecutor that records which run dirs it executed."""

    def __init__(self):
        self.executed = []
        self._lock = threading.Lock()

    def execute(self, run_dir, config_path, max_steps=None):
        with self._lock:
            self.executed.append(run_dir.name)
        return super().execute(run_dir, config_path, max_steps)


class ChaosExecutor(CountingExecutor):
    """Chaos-kills one designated run: it drains resumable (exit 75)
    after a single step, exactly what a SIGTERM mid-run produces."""

    def __init__(self, victim: str):
        super().__init__()
        self.victim = victim

    def execute(self, run_dir, config_path, max_steps=None):
        if run_dir.name == self.victim:
            max_steps = 1
        return super().execute(run_dir, config_path, max_steps)


class TestCampaignConfig:
    def test_cartesian_expansion_order_and_names(self):
        config = sweep8_config()
        points = config.points()
        assert len(points) == 8
        assert [p.run_id for p in points] == [f"p{i:04d}" for i in range(8)]
        # last key varies fastest (itertools.product order), ids stable
        assert points[0].overrides == {"params.amplitude": 0.01,
                                       "params.mode": 1, "grid.nu": [16]}
        assert points[1].overrides["grid.nu"] == [24]
        assert points[4].overrides["params.amplitude"] == 0.02
        assert all(isinstance(p.config, RunConfig) for p in points)
        assert points[3].config.name == "t-sweep-p0003"
        assert points[3].config.grid.nu == (24,)

    def test_json_round_trip(self, tmp_path):
        config = sweep8_config()
        path = config.dump(tmp_path / "spec.json")
        again = CampaignConfig.load(path)
        assert again.as_dict() == config.as_dict()

    def test_toml_round_trip_with_dotted_sweep_keys(self, tmp_path):
        config = sweep8_config()
        path = config.dump(tmp_path / "spec.toml")
        text = path.read_text()
        assert "[sweep.params]" in text  # dotted keys nest into tables
        again = CampaignConfig.load(path)
        assert again.sweep == config.sweep  # re-flattened to dotted form
        assert len(again.points()) == 8

    def test_unknown_campaign_key_rejected(self):
        with pytest.raises(ValueError, match="unknown campaign keys"):
            CampaignConfig.from_dict({"name": "x", "base": plasma_base(),
                                      "concurency": 3})

    @pytest.mark.parametrize("section, cls_name", [
        ("limits", "LimitsConfig"), ("retry", "RetryConfig"),
    ])
    def test_unknown_section_key_rejected(self, section, cls_name):
        """``[limits]`` / ``[retry]`` go through the builder ``RunConfig``
        sections use, so a typo inside them is named the same way."""
        with pytest.raises(ValueError, match=f"unknown {cls_name} keys"):
            CampaignConfig.from_dict({"name": "x", "base": plasma_base(),
                                      section: {"max_atempts": 3}})

    def test_typoed_sweep_path_rejected_at_load(self):
        with pytest.raises(ValueError, match="p0000"):
            CampaignConfig(
                base=plasma_base(), sweep={"grid.nx_typo": [[16]]}
            ).validate()

    def test_invalid_point_value_rejected_at_load(self):
        # dt <= 0 is invalid for a time schedule: the *grid point* fails
        with pytest.raises(ValueError, match="p0001"):
            CampaignConfig(
                base=plasma_base(), sweep={"schedule.dt": [0.1, -0.1]}
            ).validate()

    def test_empty_sweep_is_a_single_run(self):
        config = CampaignConfig(base=plasma_base()).validate()
        points = config.points()
        assert len(points) == 1 and points[0].overrides == {}

    def test_concurrency_clamped_by_cpu_budget(self):
        config = sweep8_config(concurrency=8, cpu_budget=2, cpus_per_run=1)
        assert config.effective_concurrency() == 2
        config = sweep8_config(concurrency=8, cpu_budget=4, cpus_per_run=2)
        assert config.effective_concurrency() == 2
        config = sweep8_config(concurrency=8, cpu_budget=1, cpus_per_run=4)
        assert config.effective_concurrency() == 1  # never zero


class TestManifest:
    def test_transitions_persist_atomically(self, tmp_path):
        config = sweep8_config()
        campaign = Campaign.create(config, tmp_path / "c")
        manifest = campaign.manifest
        assert manifest.counts()["queued"] == 8
        assert manifest.status == "queued"

        manifest.mark("p0003", "running")
        manifest.mark("p0003", "failed", exit_code=EXIT_RESUMABLE)
        # every transition is on disk, not just in memory
        reloaded = CampaignManifest.load(tmp_path / "c")
        assert reloaded.runs["p0003"]["state"] == "failed"
        assert reloaded.runs["p0003"]["exit_code"] == EXIT_RESUMABLE
        assert reloaded.runs["p0003"]["attempts"] == 1
        assert reloaded.status == "failed"
        assert reloaded.pending() == [f"p{i:04d}" for i in range(8)]

    def test_run_dirs_materialized_with_configs(self, tmp_path):
        campaign = Campaign.create(sweep8_config(), tmp_path / "c")
        for run_id in campaign.manifest.runs:
            config_path = campaign.manifest.run_dir(run_id) / "config.json"
            assert config_path.exists()
            RunConfig.load(config_path)  # validates

    def test_bad_state_rejected(self, tmp_path):
        campaign = Campaign.create(sweep8_config(), tmp_path / "c")
        with pytest.raises(ValueError, match="unknown run state"):
            campaign.manifest.mark("p0000", "exploded")


class TestCampaignIntegration:
    """The acceptance scenario, end to end."""

    def test_sweep_with_chaos_kill_resume_and_serial_reference(self, tmp_path):
        config = sweep8_config()
        campaign = Campaign.create(config, tmp_path / "c")
        victim = "p0005"

        chaos = ChaosExecutor(victim)
        code = campaign.run(executor=chaos)
        assert code == EXIT_RESUMABLE  # one run drained, resumable
        assert len(chaos.executed) == 8

        counts = campaign.manifest.counts()
        assert counts == {"queued": 0, "running": 0, "failed": 1, "done": 7}
        entry = campaign.manifest.runs[victim]
        assert entry["exit_code"] == EXIT_RESUMABLE
        assert campaign.manifest.status == "failed"

        # resume re-enters from the manifest alone and dispatches ONLY
        # the unfinished point, which continues from its own checkpoint
        resumed = Campaign.resume(tmp_path / "c")
        counting = CountingExecutor()
        assert resumed.run(executor=counting) == EXIT_COMPLETE
        assert counting.executed == [victim]
        assert resumed.manifest.status == "complete"
        assert resumed.manifest.runs[victim]["attempts"] == 2

        # the aggregate table matches a serial reference, bit for bit
        rows = resumed.aggregate()
        assert [r["run_id"] for r in rows] == [f"p{i:04d}" for i in range(8)]
        assert all(r["steps"] == 3 and r["state"] == "done" for r in rows)
        for point, row in zip(config.points(), rows):
            serial_dir = tmp_path / "serial" / point.run_id
            runner = SimulationRunner.create(point.config, serial_dir)
            assert runner.run() == EXIT_COMPLETE
            _, f_serial, _, header = read_checkpoint(
                serial_dir / CHECKPOINT_DIR / checkpoint_name(3))
            _, f_campaign, _, _ = read_checkpoint(
                resumed.manifest.run_dir(point.run_id)
                / CHECKPOINT_DIR / checkpoint_name(3))
            assert np.array_equal(f_serial, f_campaign)
            assert row["last_coord"] == {"t": pytest.approx(header["time"])}
            assert row["overrides"] == point.overrides

        table = format_table(rows)
        assert "8/8 runs done" in table
        assert "params.amplitude=0.02" in table

    def test_guard_abort_surfaces_as_campaign_70(self, tmp_path):
        # injected NaNs trip the abort guard in every run
        base = plasma_base(n_steps=2)
        base["guards"] = {"nan": "abort"}
        base["faults"] = {"seed": 1,
                          "events": [{"kind": "inject_nan", "step": 1}]}
        config = CampaignConfig(
            name="t-abort", base=base, sweep={"params.mode": [1, 2]},
            executor="threads", cpu_budget=2,
        ).validate()
        campaign = Campaign.create(config, tmp_path / "c")
        assert campaign.run(executor=ThreadExecutor()) == EXIT_GUARD_ABORT
        assert all(e["exit_code"] == EXIT_GUARD_ABORT
                   for e in campaign.manifest.runs.values())

    def test_create_over_existing_campaign_preserves_state(self, tmp_path):
        config = sweep8_config()
        campaign = Campaign.create(config, tmp_path / "c")
        campaign.manifest.mark("p0000", "done", exit_code=0)
        again = Campaign.create(config, tmp_path / "c")
        assert again.manifest.runs["p0000"]["state"] == "done"


class TestProcessExecutor:
    def test_single_point_campaign_through_subprocess(self, tmp_path):
        """The default executor drives `python -m repro run` for real."""
        config = CampaignConfig(
            name="t-proc", base=plasma_base(n_steps=2),
            executor="processes", concurrency=1,
        ).validate()
        campaign = Campaign.create(config, tmp_path / "c")
        assert campaign.run() == EXIT_COMPLETE
        run_dir = campaign.manifest.run_dir("p0000")
        assert (run_dir / "telemetry.jsonl").exists()
        assert (run_dir / "executor.log").exists()
        manifest = json.loads((run_dir / "run.json").read_text())
        assert manifest["status"] == "complete"

    def test_build_executor_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown executor"):
            build_executor("carrier-pigeon")
