"""SimulationRunner: run directories, resume semantics, guards, rotation.

The headline assertions live here: **bitwise resume** (run N steps vs
run k, interrupt, resume N-k — identical f and particles) for the plasma
and hybrid drivers, keep-last-K checkpoint rotation, and auto-resume
skipping a deliberately truncated checkpoint.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.io.snapshot import read_checkpoint
from repro.runtime import (
    EXIT_COMPLETE,
    EXIT_GUARD_ABORT,
    EXIT_RESUMABLE,
    RunConfig,
    SimulationRunner,
    TELEMETRY_FIELDS,
    read_events,
    read_telemetry,
    summarize,
)
from repro.runtime.config import (
    CheckpointConfig,
    DiagnosticsConfig,
    FaultsConfig,
    GridConfig,
    GuardConfig,
    ScheduleConfig,
)
from repro.runtime.runner import CHECKPOINT_DIR, TELEMETRY_NAME, checkpoint_name
from repro.runtime.telemetry import set_event_sink


def plasma_config(n_steps=8, **overrides) -> RunConfig:
    base = dict(
        scenario="plasma",
        name="t-plasma",
        grid=GridConfig(nx=(24,), nu=(24,), box_size=4 * np.pi, v_max=6.0),
        schedule=ScheduleConfig(kind="time", dt=0.1, n_steps=n_steps),
        checkpoint=CheckpointConfig(every_steps=None, keep_last=3),
    )
    base.update(overrides)
    return RunConfig(**base)


def hybrid_config(n_steps=4) -> RunConfig:
    return RunConfig(
        scenario="hybrid",
        name="t-hybrid",
        scheme="slp3",  # order-3 stencil fits the tiny test grid
        grid=GridConfig(nx=(4, 4, 4), nu=(4, 4, 4), box_size=200.0,
                        v_max=1.0, dtype="float32"),
        schedule=ScheduleConfig(kind="scale_factor", a_start=1.0 / 11.0,
                                a_end=1.0, n_steps=n_steps),
        checkpoint=CheckpointConfig(every_steps=None, keep_last=3),
        params={"m_nu": 0.4, "seed": 7},
    )


def gravitational_config(n_steps=6) -> RunConfig:
    return RunConfig(
        scenario="gravitational",
        name="t-grav",
        grid=GridConfig(nx=(16,), nu=(16,), box_size=10.0, v_max=4.0),
        schedule=ScheduleConfig(kind="time", dt=0.05, n_steps=n_steps),
        params={"g_newton": 0.05, "amplitude": 0.01, "sigma_v": 1.0},
    )


def final_checkpoint(run_dir, n_steps):
    return read_checkpoint(run_dir / CHECKPOINT_DIR / checkpoint_name(n_steps))


class TestImportDiet:
    """A run never loads scipy: the field transforms are ``numpy.fft``,
    the hybrid's ``Cosmology`` integrals are Gauss-Legendre rules on
    numpy, and the Ewald, TreePM-split and FoF call sites import their
    scipy pieces on use.  The resume rebuilds the hybrid's IC, and loads
    none either."""

    @pytest.mark.parametrize("config", [plasma_config, gravitational_config,
                                        hybrid_config])
    def test_a_run_loads_no_scipy(self, config, tmp_path):
        cfg = config(n_steps=4)
        cfg.checkpoint = CheckpointConfig(every_steps=1, keep_last=2)
        cfg.diagnostics = DiagnosticsConfig(every_steps=1, n_bins=4)
        path = cfg.dump(tmp_path / "run.json")
        code = (
            "import sys\n"
            "from repro.cli import main\n"
            "run = ['run', sys.argv[1], '--run-dir', sys.argv[2], '--max-steps', '2']\n"
            f"assert main(run) == {EXIT_RESUMABLE}\n"
            "assert main(['resume', sys.argv[2]]) == 0\n"
            "loaded = sorted(m for m in sys.modules if m.startswith('scipy'))\n"
            "assert not loaded, loaded[:8]\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run(
            [sys.executable, "-c", code, str(path), str(tmp_path / "run")],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr[-2000:]
        assert (tmp_path / "run" / "diagnostics").is_dir()


    def test_a_plasma_launch_loads_only_its_stack(self, tmp_path):
        """A one-step serial plasma run imports neither an engine it does
        not run nor the hybrid stack: the package ``__init__``s resolve
        their names on first use."""
        path = plasma_config(n_steps=1).dump(tmp_path / "run.json")
        code = (
            "import sys\n"
            "from repro.cli import main\n"
            "assert main(['run', sys.argv[1], '--run-dir', sys.argv[2]]) == 0\n"
            "print(' '.join(sorted(m for m in sys.modules if m.startswith('repro'))))\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run(
            [sys.executable, "-c", code, str(path), str(tmp_path / "run")],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr[-2000:]
        loaded = set(done.stdout.strip().splitlines()[-1].split())
        assert "repro.core.vlasov_poisson" in loaded  # the run did run
        forbidden = {"repro.perf.pencil", "repro.core.hybrid"} | {
            f"repro.nbody.{m}" for m in ("pm", "tree", "treepm", "phantom",
                                         "direct")}
        assert not loaded & forbidden, sorted(loaded & forbidden)
        assert not [m for m in loaded if m.startswith("repro.parallel")]

    def test_package_names_resolve_on_first_use(self):
        from repro.core import PhaseSpaceGrid as core_grid
        from repro.core import moments as core_moments
        from repro.core.mesh import PhaseSpaceGrid
        from repro.nbody import ParticleSet, TreePMSolver
        from repro.parallel import BlockDecomposition, DomainEngine
        from repro.perf import PencilEngine, ScratchArena

        import repro.core
        import repro.parallel.domain

        assert core_grid is PhaseSpaceGrid
        assert core_moments is repro.core.moments
        assert DomainEngine is repro.parallel.domain.DomainEngine
        assert all(callable(x) for x in (ParticleSet, TreePMSolver,
                                         BlockDecomposition, PencilEngine,
                                         ScratchArena))
        assert "VlasovSolver" in dir(repro.core)
        with pytest.raises(AttributeError, match="no attribute 'Nope'"):
            repro.core.Nope


class TestCompleteRun:
    def test_plasma_completes_with_full_telemetry(self, tmp_path):
        cfg = plasma_config(n_steps=6)
        runner = SimulationRunner.create(cfg, tmp_path / "run")
        assert runner.run() == EXIT_COMPLETE

        manifest = runner.manifest()
        assert manifest["status"] == "complete"
        assert manifest["last_step"] == 6
        assert manifest["config"]["scenario"] == "plasma"

        records = read_telemetry(tmp_path / "run" / TELEMETRY_NAME)
        assert [r["step"] for r in records] == [1, 2, 3, 4, 5, 6]
        for record in records:
            assert tuple(record) == TELEMETRY_FIELDS
        # the stream carries real measurements, not placeholders
        assert records[-1]["coord"]["t"] == pytest.approx(0.6)
        assert records[-1]["fft"]["n_forward"] > 0
        assert records[-1]["rss_mb"] > 0
        assert records[-1]["drifts"]["mass"]["drift"] < 1e-8

        summary = summarize(tmp_path / "run" / TELEMETRY_NAME)
        assert summary["steps"] == 6 and summary["guard_events"] == 0

    def test_gravitational_completes(self, tmp_path):
        runner = SimulationRunner.create(gravitational_config(), tmp_path / "g")
        assert runner.run() == EXIT_COMPLETE
        _, f, _, header = final_checkpoint(tmp_path / "g", 6)
        assert np.isfinite(f).all()
        assert header["time"] == pytest.approx(0.3)

    def test_final_checkpoint_always_written(self, tmp_path):
        cfg = plasma_config(n_steps=3)  # cadence disabled entirely
        runner = SimulationRunner.create(cfg, tmp_path / "run")
        runner.run()
        _, f, particles, header = final_checkpoint(tmp_path / "run", 3)
        assert header["step"] == 3
        assert header["extra"]["scenario"] == "plasma"
        assert particles is None


class TestCadenceAndRotation:
    def test_rotation_keeps_exactly_k_newest(self, tmp_path):
        cfg = plasma_config(
            n_steps=10,
            checkpoint=CheckpointConfig(every_steps=2, keep_last=3),
        )
        runner = SimulationRunner.create(cfg, tmp_path / "run")
        assert runner.run() == EXIT_COMPLETE
        names = sorted(p.name for p in (tmp_path / "run" / CHECKPOINT_DIR).iterdir())
        # steps 2,4,6,8 at cadence + 10 final; rotated down to the 3 newest
        assert names == [checkpoint_name(6), checkpoint_name(8),
                         checkpoint_name(10)]

    def test_every_seconds_cadence(self, tmp_path):
        cfg = plasma_config(
            n_steps=4,
            checkpoint=CheckpointConfig(every_seconds=0.0001, keep_last=10),
            step_delay=0.001,  # ensure the clock cadence fires every step
        )
        runner = SimulationRunner.create(cfg, tmp_path / "run")
        assert runner.run() == EXIT_COMPLETE
        names = {p.name for p in (tmp_path / "run" / CHECKPOINT_DIR).iterdir()}
        assert checkpoint_name(1) in names and checkpoint_name(4) in names


class TestBitwiseResume:
    """Run N vs run k / kill / resume N-k — identical state, exact bits."""

    def test_plasma(self, tmp_path):
        n, k = 8, 3
        full = SimulationRunner.create(plasma_config(n), tmp_path / "full")
        assert full.run() == EXIT_COMPLETE

        part = SimulationRunner.create(plasma_config(n), tmp_path / "part")
        assert part.run(max_steps=k) == EXIT_RESUMABLE
        assert part.manifest()["status"] == "interrupted"
        assert part.manifest()["reason"] == "max_steps"

        resumed = SimulationRunner.resume(tmp_path / "part")
        assert resumed.run() == EXIT_COMPLETE

        _, f_full, _, h_full = final_checkpoint(tmp_path / "full", n)
        _, f_part, _, h_part = final_checkpoint(tmp_path / "part", n)
        assert np.array_equal(f_full, f_part)
        assert h_full["time"] == h_part["time"]  # the v2 header field

    def test_hybrid(self, tmp_path):
        n, k = 4, 2
        full = SimulationRunner.create(hybrid_config(n), tmp_path / "full")
        assert full.run() == EXIT_COMPLETE

        part = SimulationRunner.create(hybrid_config(n), tmp_path / "part")
        assert part.run(max_steps=k) == EXIT_RESUMABLE
        resumed = SimulationRunner.resume(tmp_path / "part")
        assert resumed.run() == EXIT_COMPLETE

        _, f_full, p_full, h_full = final_checkpoint(tmp_path / "full", n)
        _, f_part, p_part, h_part = final_checkpoint(tmp_path / "part", n)
        assert np.array_equal(f_full, f_part)
        assert np.array_equal(p_full.positions, p_part.positions)
        assert np.array_equal(p_full.velocities, p_part.velocities)
        assert h_full["a"] == h_part["a"]

    def test_resume_telemetry_continues_stream(self, tmp_path):
        cfg = plasma_config(6)
        runner = SimulationRunner.create(cfg, tmp_path / "run")
        runner.run(max_steps=2)
        SimulationRunner.resume(tmp_path / "run").run()
        steps = [r["step"] for r in read_telemetry(tmp_path / "run" / TELEMETRY_NAME)]
        assert steps == [1, 2, 3, 4, 5, 6]


class TestResumeRobustness:
    def test_truncated_newest_checkpoint_is_skipped(self, tmp_path):
        """Auto-resume must fall back to the older valid checkpoint —
        and still reproduce the uninterrupted run exactly (it simply
        re-runs the steps the truncated file claimed to cover)."""
        n = 8
        # the step cadence is part of the chain (its multiples are the
        # leapfrog's sync points), so both runs share it
        cfg = plasma_config(n, checkpoint=CheckpointConfig(every_steps=2,
                                                           keep_last=10))
        full = SimulationRunner.create(cfg, tmp_path / "full")
        assert full.run() == EXIT_COMPLETE

        part = SimulationRunner.create(cfg, tmp_path / "part")
        assert part.run(max_steps=5) == EXIT_RESUMABLE
        ck_dir = tmp_path / "part" / CHECKPOINT_DIR
        newest = sorted(ck_dir.glob("ck_*.npz"))[-1]
        assert newest.name == checkpoint_name(5)
        newest.write_bytes(newest.read_bytes()[: newest.stat().st_size // 2])

        resumed = SimulationRunner.resume(tmp_path / "part")
        assert resumed.run() == EXIT_COMPLETE

        _, f_full, _, _ = final_checkpoint(tmp_path / "full", n)
        _, f_part, _, _ = final_checkpoint(tmp_path / "part", n)
        assert np.array_equal(f_full, f_part)

    def test_all_checkpoints_corrupt_starts_fresh(self, tmp_path):
        cfg = plasma_config(4, checkpoint=CheckpointConfig(every_steps=1,
                                                           keep_last=10))
        runner = SimulationRunner.create(cfg, tmp_path / "run")
        runner.run(max_steps=2)
        for ck in (tmp_path / "run" / CHECKPOINT_DIR).glob("ck_*.npz"):
            ck.write_bytes(b"not a zip")
        resumed = SimulationRunner.resume(tmp_path / "run")
        assert resumed.run() == EXIT_COMPLETE  # restarted from the ICs
        assert resumed.manifest()["last_step"] == 4

    def test_resume_without_manifest_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="run.json"):
            SimulationRunner.resume(tmp_path / "nowhere")

    def test_grid_mismatch_refused(self, tmp_path):
        runner = SimulationRunner.create(plasma_config(4), tmp_path / "run")
        runner.run(max_steps=2)
        manifest = runner.manifest()
        other = plasma_config(4, grid=GridConfig(nx=(32,), nu=(32,),
                                                 box_size=4 * np.pi, v_max=6.0))
        clash = SimulationRunner(other, tmp_path / "run")
        with pytest.raises(RuntimeError, match="different grid"):
            clash.run()
        del manifest

    def test_refused_resume_restores_the_event_sink(self, tmp_path):
        """A run that raises during set-up removes the event sink it
        installed."""
        SimulationRunner.create(plasma_config(4), tmp_path / "run").run(max_steps=2)
        other = plasma_config(4, grid=GridConfig(nx=(32,), nu=(32,),
                                                 box_size=4 * np.pi, v_max=6.0))
        with pytest.raises(RuntimeError, match="different grid"):
            SimulationRunner(other, tmp_path / "run").run()
        assert set_event_sink(None) is None


class TestGuardsInTheLoop:
    def test_abort_guard_lands_final_checkpoint(self, tmp_path):
        """An impossible energy threshold trips on step 1 at abort
        policy; the runner must checkpoint *before* exiting."""
        cfg = plasma_config(
            6,
            guards=GuardConfig(conservation="abort", max_energy_drift=0.0,
                               max_mass_drift=1e6),
        )
        runner = SimulationRunner.create(cfg, tmp_path / "run")
        assert runner.run() == EXIT_GUARD_ABORT

        manifest = runner.manifest()
        assert manifest["status"] == "aborted"
        assert manifest["reason"] == "guard:conservation"
        _, f, _, header = final_checkpoint(tmp_path / "run", manifest["last_step"])
        assert np.isfinite(f).all()
        records = read_telemetry(tmp_path / "run" / TELEMETRY_NAME)
        assert records[-1]["guards"][0]["guard"] == "conservation"
        assert records[-1]["guards"][0]["policy"] == "abort"
        del header

    def test_warn_guard_keeps_running(self, tmp_path):
        cfg = plasma_config(
            4,
            guards=GuardConfig(conservation="warn", max_energy_drift=0.0,
                               max_mass_drift=1e6),
        )
        runner = SimulationRunner.create(cfg, tmp_path / "run")
        assert runner.run() == EXIT_COMPLETE
        records = read_telemetry(tmp_path / "run" / TELEMETRY_NAME)
        assert all(r["guards"] for r in records)  # warned every step
        assert summarize(tmp_path / "run" / TELEMETRY_NAME)["guard_events"] >= 4

    def test_wall_clock_budget_drains_resumable(self, tmp_path):
        cfg = plasma_config(50, wall_clock_budget=0.05, step_delay=0.02)
        runner = SimulationRunner.create(cfg, tmp_path / "run")
        assert runner.run() == EXIT_RESUMABLE
        manifest = runner.manifest()
        assert manifest["status"] == "interrupted"
        assert manifest["reason"] == "wall_clock_budget"
        assert 0 < manifest["last_step"] < 50
        # and the drain checkpoint is valid
        final_checkpoint(tmp_path / "run", manifest["last_step"])


class TestRotationFamilies:
    def test_corrupt_files_rotate_on_the_same_budget(self, tmp_path):
        """Quarantined corpses must not accumulate without bound."""
        cfg = plasma_config(
            n_steps=10,
            checkpoint=CheckpointConfig(every_steps=2, keep_last=3),
        )
        runner = SimulationRunner.create(cfg, tmp_path / "run")
        ck_dir = tmp_path / "run" / CHECKPOINT_DIR
        for step in range(1, 8):  # a long history of quarantined corpses
            (ck_dir / (checkpoint_name(step) + ".corrupt")).write_bytes(b"x")
        assert runner.run() == EXIT_COMPLETE
        corrupt = sorted(p.name for p in ck_dir.glob("ck_*.npz.corrupt"))
        assert corrupt == [checkpoint_name(s) + ".corrupt" for s in (5, 6, 7)]
        # and the valid family still rotated to its own newest 3
        valid = sorted(p.name for p in ck_dir.glob("ck_*.npz"))
        assert valid == [checkpoint_name(s) for s in (6, 8, 10)]

    def test_rollback_run_keeps_restore_point_protected(self, tmp_path):
        """End to end: keep_last=1 on a two-step cadence and a NaN at
        step 3 under rollback.  The rollback restores the one checkpoint
        there is (step 2); rotation only ever follows a newer write, so
        it never takes that restore point, and the run ends on the
        fault-free answer with one checkpoint left."""
        def run(name, **overrides):
            cfg = plasma_config(
                n_steps=8,
                checkpoint=CheckpointConfig(every_steps=2, keep_last=1),
                guards=GuardConfig(nan="rollback"), **overrides,
            )
            runner = SimulationRunner.create(cfg, tmp_path / name)
            assert runner.run() == EXIT_COMPLETE
            return runner

        clean = run("clean")
        faulted = run("faulted", faults=FaultsConfig(seed=3, events=[
            {"kind": "inject_nan", "step": 3},
        ]))
        assert faulted.manifest()["rollbacks"] == 1
        assert [e["restored_step"] for e in read_events(
            tmp_path / "faulted" / TELEMETRY_NAME, "rollback")] == [2]
        assert sorted(p.name for p in (tmp_path / "faulted" / CHECKPOINT_DIR)
                      .glob("ck_*.npz")) == [checkpoint_name(8)]
        assert (final_checkpoint(tmp_path / "faulted", 8)[1].tobytes()
                == final_checkpoint(clean.run_dir, 8)[1].tobytes())


class TestConcurrentRunners:
    def test_event_streams_are_byte_disjoint(self, tmp_path):
        """Two in-process runners, one injecting faults: every event must
        land in its own run's telemetry.jsonl (the sink is contextual,
        not a process global)."""
        import threading

        cfg_chaos = plasma_config(
            n_steps=5, name="t-chaos",
            faults=FaultsConfig(seed=2, events=[
                {"kind": "inject_negative", "step": s} for s in (1, 3, 5)
            ]),
        )
        cfg_quiet = plasma_config(n_steps=5, name="t-quiet")
        barrier = threading.Barrier(2)
        codes = {}

        def drive(name, cfg):
            runner = SimulationRunner.create(cfg, tmp_path / name)
            barrier.wait()
            codes[name] = runner.run()

        threads = [
            threading.Thread(target=drive, args=("chaos", cfg_chaos)),
            threading.Thread(target=drive, args=("quiet", cfg_quiet)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert codes == {"chaos": EXIT_COMPLETE, "quiet": EXIT_COMPLETE}

        injected = read_events(tmp_path / "chaos" / TELEMETRY_NAME,
                               "fault_injected")
        assert [e["fired_at"] for e in injected] == [1, 3, 5]
        # not one of the neighbor's injections leaked across the thread
        # boundary
        assert read_events(tmp_path / "quiet" / TELEMETRY_NAME,
                           "fault_injected") == []
        for name in ("chaos", "quiet"):
            steps = [r["step"] for r in
                     read_telemetry(tmp_path / name / TELEMETRY_NAME)]
            assert steps == [1, 2, 3, 4, 5]

    def test_concurrent_runs_bitwise_match_serial(self, tmp_path):
        """Concurrency must not perturb arithmetic: per-thread FFT
        workspaces keep concurrent runs bitwise identical to the same
        configs run serially."""
        import threading

        configs = {
            "a": plasma_config(n_steps=3, name="t-a",
                               params={"amplitude": 0.01, "mode": 1}),
            "b": plasma_config(n_steps=3, name="t-b",
                               params={"amplitude": 0.02, "mode": 2}),
        }

        def drive(sub, name):
            SimulationRunner.create(configs[name],
                                    tmp_path / sub / name).run()

        threads = [threading.Thread(target=drive, args=("conc", n))
                   for n in configs]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for name in configs:
            drive("ser", name)
        for name in configs:
            _, f_conc, _, _ = final_checkpoint(tmp_path / "conc" / name, 3)
            _, f_ser, _, _ = final_checkpoint(tmp_path / "ser" / name, 3)
            assert np.array_equal(f_conc, f_ser)
