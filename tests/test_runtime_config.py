"""RunConfig: validation, dict/JSON/TOML round-trips, the TOML emitter."""

from __future__ import annotations

import json
import os
import runpy
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.runtime.config import (
    CheckpointConfig,
    GridConfig,
    GuardConfig,
    RunConfig,
    ScheduleConfig,
    toml_dumps,
)


def small_config(**overrides) -> RunConfig:
    base = dict(
        scenario="plasma",
        grid=GridConfig(nx=(16,), nu=(16,), box_size=12.0, v_max=6.0),
        schedule=ScheduleConfig(kind="time", dt=0.1, n_steps=4),
    )
    base.update(overrides)
    return RunConfig(**base)


#: ``(section, key, value)`` past each limit's floor; ``None`` is the
#: config's top level.  A negative guard threshold trips on every
#: healthy step, and a negative backoff makes the first worker retry
#: raise from ``time.sleep`` instead of retrying.
BAD_LIMITS = [
    (None, "wall_clock_budget", -1.0),
    (None, "rss_budget_mb", 0.0),
    ("guards", "negative_f_tol", -1e-12),
    ("guards", "max_mass_drift", -1e-6),
    ("guards", "max_energy_drift", -0.1),
    ("guards", "max_step_seconds", 0.0),
    ("guards", "max_step_seconds", -5.0),
    ("engine", "backoff_base", -0.05),
]


class TestValidation:
    def test_valid_config_passes(self):
        assert small_config().validate() is not None
        # a zero threshold is a floor, not past it
        cfg = small_config()
        cfg.engine.backoff_base = 0.0
        cfg.guards.max_energy_drift = 0.0  # trips on purpose in the runner
        cfg.guards.max_mass_drift = cfg.guards.negative_f_tol = 0.0
        assert cfg.validate() is cfg

    def test_unknown_scenario(self):
        with pytest.raises(ValueError, match="scenario"):
            small_config(scenario="warp").validate()

    def test_bad_dtype(self):
        cfg = small_config()
        cfg.grid.dtype = "float16"
        with pytest.raises(ValueError, match="dtype"):
            cfg.validate()

    def test_mismatched_grid_dims(self):
        cfg = small_config()
        cfg.grid.nx = (8, 8)
        with pytest.raises(ValueError, match="same length"):
            cfg.validate()

    def test_nonpositive_dt(self):
        cfg = small_config()
        cfg.schedule.dt = 0.0
        with pytest.raises(ValueError, match="dt"):
            cfg.validate()

    def test_hybrid_needs_scale_factor_schedule(self):
        cfg = small_config(scenario="hybrid")
        with pytest.raises(ValueError, match="scale_factor"):
            cfg.validate()

    def test_scale_factor_ordering(self):
        cfg = small_config()
        cfg.schedule.kind = "scale_factor"
        cfg.schedule.a_start, cfg.schedule.a_end = 0.9, 0.5
        with pytest.raises(ValueError, match="a_start"):
            cfg.validate()

    def test_bad_guard_policy(self):
        cfg = small_config()
        cfg.guards.nan = "explode"
        with pytest.raises(ValueError, match="policy"):
            cfg.validate()

    def test_keep_last_floor(self):
        cfg = small_config()
        cfg.checkpoint.keep_last = 0
        with pytest.raises(ValueError, match="keep_last"):
            cfg.validate()

    def test_negative_budget(self):
        # every budget and threshold below its floor, one config each
        # (a loop, not parametrize, so this test keeps its id)
        for section, key, value in BAD_LIMITS:
            cfg = small_config()
            setattr(getattr(cfg, section) if section else cfg, key, value)
            with pytest.raises(ValueError, match=key):
                cfg.validate()


def tree_config(nx: int, use_tree: bool = True) -> RunConfig:
    return small_config(
        scenario="hybrid",
        grid=GridConfig(nx=(nx,) * 3, nu=(4,) * 3, box_size=200.0),
        schedule=ScheduleConfig(kind="scale_factor", n_steps=2,
                                a_start=0.1, a_end=0.2),
        params={"use_tree": use_tree},
    )


class TestTreeGeometry:
    """A hybrid with the tree below nx = 12 would fail inside its first
    step (the short-range cutoff exceeds half the box): the config, the
    CLI and the example refuse it before any step."""

    def test_validate_refuses_a_tree_below_its_mesh(self):
        with pytest.raises(ValueError, match=r"use_tree needs grid.nx >= 12"):
            tree_config(8).validate()
        with pytest.raises(ValueError, match=r"nx = 11"):
            tree_config(11).validate()
        assert tree_config(12).validate() is not None
        assert tree_config(8, use_tree=False).validate() is not None

    def test_validate_imports_no_tree_for_a_run_without_one(self):
        src = Path(__file__).resolve().parent.parent / "src"
        code = (
            "import sys\n"
            "from repro.runtime.config import RunConfig\n"
            "for scenario, params in (('plasma', {}),"
            " ('hybrid', {'use_tree': False})):\n"
            "    RunConfig.from_dict({'scenario': scenario, 'params': params,"
            " 'grid': {'nx': [8, 8, 8], 'nu': [4, 4, 4]},"
            " 'schedule': {'kind': 'scale_factor', 'a_start': 0.1,"
            " 'a_end': 0.2}})\n"
            "assert 'repro.nbody.treepm' not in sys.modules\n"
        )
        done = subprocess.run([sys.executable, "-c", code],
                              env=dict(os.environ, PYTHONPATH=str(src)),
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr[-2000:]

    def test_repro_run_exits_2_before_any_step(self, tmp_path, capsys):
        from repro.cli import main

        path = tree_config(8).dump(tmp_path / "tree.json")
        assert main(["run", str(path), "--run-dir", str(tmp_path / "run")]) == 2
        out = capsys.readouterr().out
        assert out.startswith("run: invalid config") and "nx >= 12" in out
        assert not (tmp_path / "run").exists()

    def test_the_example_names_nx_12(self, tmp_path, capsys):
        path = (Path(__file__).resolve().parent.parent / "examples"
                / "cosmic_neutrinos.py")
        example = runpy.run_path(str(path), run_name="cosmic_neutrinos")
        with pytest.raises(SystemExit) as exc:
            example["main"](["--tree", "--run-dir", str(tmp_path / "run")])
        assert exc.value.code == 2
        assert "--tree needs --nx 12" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


#: ``(key, value, reason)``: a run config each of which refuses.  The
#: schemes are two that the kernel no longer carries and a typo.
BAD_RUNS = [
    ("schedule", {"n_steps": 0}, "schedule.n_steps must be >= 1"),
    ("scheme", "slweno5", "unknown scheme 'slweno5'"),
    ("scheme", "pfc2", "unknown scheme 'pfc2'"),
    ("scheme", "nosuch", "unknown scheme 'nosuch'"),
]


def _files(where):
    """Every file under ``where`` with its bytes."""
    return sorted((str(p), p.read_bytes()) for p in Path(where).rglob("*")
                  if p.is_file())


@contextmanager
def stopped_repro(*argv, ready, timeout=60.0):
    """A ``repro`` subprocess, SIGSTOPped once ``ready()`` holds: it
    keeps its directory's lock while its own writes hold still.  On
    exit it is continued, and its exit code is ``proc.returncode``."""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.Popen([sys.executable, "-m", "repro", *argv],
                            env=dict(os.environ, PYTHONPATH=str(src)),
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + timeout
        while not ready():
            assert proc.poll() is None, f"repro exited {proc.returncode}"
            assert time.monotonic() < deadline, "repro never got ready"
            time.sleep(0.02)
        proc.send_signal(signal.SIGSTOP)
        _, status = os.waitpid(proc.pid, os.WUNTRACED)  # stopped, not reaped
        assert os.WIFSTOPPED(status)
        yield proc
    finally:
        proc.send_signal(signal.SIGCONT)
        try:
            proc.wait(timeout=timeout)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


class TestCleanRefusal:
    """``run``, ``resume`` and ``campaign`` (spec, ``resume``, ``status``)
    refuse a config that fails validation, ``resume`` and ``campaign
    resume|status`` a directory without its manifest, and ``run`` and
    ``resume`` a run directory a live runner holds: one line, exit 2,
    and nothing run or written."""

    def _run_dir(self, tmp_path, key, value):
        from repro.runtime import SimulationRunner

        run_dir = tmp_path / f"run-{key}-{value}"
        SimulationRunner.create(small_config(), run_dir)
        manifest = run_dir / "run.json"
        data = json.loads(manifest.read_text())
        if isinstance(value, dict):
            data["config"][key].update(value)
        else:
            data["config"][key] = value
        manifest.write_text(json.dumps(data))
        return run_dir

    def test_repro_run_refuses_an_unknown_scheme(self, tmp_path, capsys):
        from repro.cli import main

        for _, scheme, reason in BAD_RUNS[1:]:
            path = small_config(scheme=scheme).dump(tmp_path / f"{scheme}.toml")
            where = tmp_path / f"{scheme}.run"
            assert main(["run", str(path), "--run-dir", str(where)]) == 2
            out = capsys.readouterr().out
            assert out.startswith(f"run: invalid config {path}: {reason}")
            assert out.count("\n") == 1, out
            assert not where.exists()

    def test_repro_resume_exits_2_before_any_step(self, tmp_path, capsys):
        from repro.cli import main

        for key, value, reason in BAD_RUNS:
            run_dir = self._run_dir(tmp_path, key, value)
            before = _files(run_dir)
            assert main(["resume", str(run_dir)]) == 2
            out = capsys.readouterr().out
            assert out.startswith(f"resume: invalid config {run_dir}: {reason}")
            assert out.count("\n") == 1, out
            assert _files(run_dir) == before  # no step, checkpoint or telemetry
            assert not list((run_dir / "checkpoints").iterdir())

    def test_a_run_directory_a_live_runner_holds_exits_2(self, tmp_path,
                                                         capsys):
        from repro.cli import main

        config = small_config(step_delay=0.05, schedule=ScheduleConfig(
            kind="time", dt=0.1, n_steps=20))
        path = config.dump(tmp_path / "cfg.json")
        run_dir = tmp_path / "live.run"
        telemetry = run_dir / "telemetry.jsonl"
        with stopped_repro("run", str(path), "--run-dir", str(run_dir),
                           ready=lambda: telemetry.exists()
                           and telemetry.stat().st_size > 0) as runner:
            before = _files(run_dir)
            assert main(["resume", str(run_dir)]) == 2
            assert main(["run", str(path), "--run-dir", str(run_dir)]) == 2
            assert capsys.readouterr().out == (
                f"resume: {run_dir} is locked by another process\n"
                f"run: {run_dir} is locked by another process\n")
            assert _files(run_dir) == before
        assert runner.returncode == 0  # the holder finished undisturbed
        assert json.loads((run_dir / "run.json").read_text())["last_step"] == 20

    @pytest.mark.parametrize("argv", [["resume"], ["campaign", "resume"],
                                      ["campaign", "status"]],
                             ids=["resume", "campaign-resume", "campaign-status"])
    def test_a_directory_without_its_manifest_exits_2(self, tmp_path, capsys,
                                                      argv):
        from repro.cli import main

        empty = tmp_path / "empty"
        empty.mkdir()
        manifest = "run.json" if argv == ["resume"] else "campaign.json"
        for where in (empty, tmp_path / "missing"):
            assert main([*argv, str(where)]) == 2
            assert capsys.readouterr().out == (
                f"{' '.join(argv)}: {where} has no {manifest} manifest\n")
        assert list(tmp_path.iterdir()) == [empty]
        assert not list(empty.iterdir())

    @staticmethod
    def _spec(tmp_path, **overrides):
        spec = dict(name="refused", concurrency=1,
                    base=small_config().as_dict(),
                    sweep={"params": {"mode": [1, 2]}})
        spec.update(overrides)
        path = tmp_path / f"spec{len(list(tmp_path.glob('spec*.json')))}.json"
        path.write_text(json.dumps(spec))
        return path

    def test_repro_campaign_exits_2_before_anything_is_written(self, tmp_path,
                                                               capsys):
        from repro.cli import main

        bad = self._spec(tmp_path, concurrency=0)
        where = tmp_path / "c"
        assert main(["campaign", str(bad), "--dir", str(where)]) == 2
        out = capsys.readouterr().out
        assert out == (f"campaign: invalid config {bad}: "
                       "concurrency must be >= 1\n"), out
        assert not where.exists()
        # a valid spec made invalid by its override is refused the same way
        good = self._spec(tmp_path)
        assert main(["campaign", str(good), "--dir", str(where), "-k", "0"]) == 2
        assert "campaign: invalid config" in capsys.readouterr().out
        assert not where.exists()
        # a base naming a scheme the kernel lacks, and a sweep over one
        base = small_config().as_dict()
        for _, scheme, reason in BAD_RUNS[1:]:
            for spec in (
                self._spec(tmp_path, base=dict(base, scheme=scheme)),
                self._spec(tmp_path, sweep={"scheme": ["slmpp5", scheme]}),
            ):
                assert main(["campaign", str(spec), "--dir", str(where)]) == 2
                out = capsys.readouterr().out
                assert out.startswith(f"campaign: invalid config {spec}: ")
                assert reason in out and out.count("\n") == 1, out
                assert not where.exists()

    def test_a_spec_that_grows_an_existing_campaign_exits_2(self, tmp_path,
                                                             capsys):
        """Re-entering a campaign with points its manifest lacks (or with
        a different base) is refused, held or not; ``-k``/``--executor``
        overrides still re-enter."""
        from repro.campaign import Campaign, CampaignConfig
        from repro.cli import main
        from repro.io.atomic import directory_lock

        good = self._spec(tmp_path)
        where = tmp_path / "c"
        Campaign.create(CampaignConfig.load(good), where)
        grown = self._spec(tmp_path, sweep={"params": {"mode": [1, 2, 3]}})
        with directory_lock(where):  # held: refused before reading anything
            before = _files(where)
            assert main(["campaign", str(grown), "--dir", str(where)]) == 2
            assert capsys.readouterr().out == (
                f"campaign: {where} is locked by another process\n")
        assert _files(where) == before
        rebased = small_config(params={"amplitude": 0.02}).as_dict()
        for spec in (grown, self._spec(tmp_path, base=rebased)):
            assert main(["campaign", str(spec), "--dir", str(where)]) == 2
            out = capsys.readouterr().out
            assert out.startswith(f"campaign: invalid config {spec}: ")
            assert "differ from" in out and out.count("\n") == 1, out
            assert _files(where) == before
        config = CampaignConfig.load(self._spec(tmp_path))
        config.concurrency, config.executor = 2, "threads"
        assert Campaign.create(config, where).manifest.runs.keys() == {
            "p0000", "p0001"}
        assert _files(where) == before

    @pytest.mark.parametrize("verb", ["resume", "status"])
    def test_repro_campaign_manifest_exits_2_before_any_run(self, tmp_path,
                                                            capsys, verb):
        from repro.campaign import Campaign, CampaignConfig
        from repro.cli import main

        good = self._spec(tmp_path)
        where = tmp_path / "c"
        Campaign.create(CampaignConfig.load(good), where)
        manifest = where / "campaign.json"
        data = json.loads(manifest.read_text())
        for edit, reason in (
            (lambda spec: spec.update(concurrency=0), "concurrency must be >= 1"),
            *((lambda spec, s=scheme: spec["base"].update(scheme=s), reason)
              for _, scheme, reason in BAD_RUNS[1:]),
        ):
            spec = json.loads(json.dumps(data["spec"]))
            edit(spec)
            manifest.write_text(json.dumps(dict(data, spec=spec)))
            before = _files(where)
            assert main(["campaign", verb, str(where)]) == 2
            out = capsys.readouterr().out
            assert out.startswith(f"campaign {verb}: invalid config {where}: ")
            assert reason in out and out.count("\n") == 1, out
            assert _files(where) == before
            assert not list(where.glob("runs/*/run.json"))  # no run started
            assert not (where / "supervisor.jsonl").exists()


class TestRoundTrips:
    def test_dict_roundtrip(self):
        cfg = small_config(params={"amplitude": 0.05, "mode": 2})
        again = RunConfig.from_dict(cfg.as_dict())
        assert again.as_dict() == cfg.as_dict()
        assert again.grid.nx == (16,)  # lists coerced back to tuples

    def test_json_roundtrip(self, tmp_path):
        cfg = small_config(name="json-run")
        path = cfg.dump(tmp_path / "cfg.json")
        assert json.loads(path.read_text())["name"] == "json-run"
        assert RunConfig.load(path).as_dict() == cfg.as_dict()

    def test_toml_roundtrip(self, tmp_path):
        cfg = small_config(
            name="toml-run",
            checkpoint=CheckpointConfig(every_steps=5, every_seconds=30.0,
                                        keep_last=2),
            guards=GuardConfig(stall="warn", max_step_seconds=5.0),
            params={"amplitude": 0.02},
        )
        path = cfg.dump(tmp_path / "cfg.toml")
        assert RunConfig.load(path).as_dict() == cfg.as_dict()

    def test_toml_omits_none(self, tmp_path):
        """TOML has no null: None cadences are omitted and reload as None."""
        cfg = small_config(
            checkpoint=CheckpointConfig(every_steps=None, every_seconds=None)
        )
        path = cfg.dump(tmp_path / "cfg.toml")
        text = path.read_text()
        assert "every_steps" not in text
        loaded = RunConfig.load(path)
        assert loaded.checkpoint.every_steps is None
        assert loaded.checkpoint.every_seconds is None

    def test_unknown_key_rejected(self):
        data = small_config().as_dict()
        data["chekpoint_cadence"] = 5
        with pytest.raises(ValueError, match="unknown config keys"):
            RunConfig.from_dict(data)

    def test_unknown_section_key_rejected(self):
        data = small_config().as_dict()
        data["guards"]["nan_polcy"] = "warn"
        with pytest.raises(ValueError, match="GuardConfig"):
            RunConfig.from_dict(data)
        # retired keys (the chunked snapshot format's, the queue policy's)
        # are refused alike
        for key, value in [("n_chunks", 2), ("on_full", "drop"),
                           ("queue_max", 4), ("spectra", False)]:
            data = small_config().as_dict()
            data["diagnostics"] = {"every_steps": 2, key: value}
            with pytest.raises(ValueError,
                               match="unknown DiagnosticsConfig keys"):
                RunConfig.from_dict(data)

    def test_retired_engine_layout_key_rejected(self):
        """``engine.layout`` left the schema with the layout runtime: a
        ``run.json`` that still carries it is refused like any typo."""
        import dataclasses

        from repro.runtime.config import EngineConfig

        assert len(dataclasses.fields(EngineConfig)) == 7
        with pytest.raises(ValueError, match="unknown EngineConfig keys"):
            RunConfig.from_dict({"engine": {"layout": "auto"}})

    @pytest.mark.parametrize("backend", ["processes", "serial"])
    def test_retired_engine_backends_rejected(self, backend):
        """The pencil engine is threads only: the process transport is
        the domain engine, and a serial pencil engine was SweepEngine."""
        data = small_config().as_dict()
        data["engine"]["backend"] = backend
        with pytest.raises(ValueError, match=r"\('off', 'threads'\)"):
            RunConfig.from_dict(data)

    def test_resume_refuses_retired_min_shard_bytes(self, tmp_path):
        """``engine.min_shard_bytes`` left the schema (it is the pencil
        module's ``MIN_SHARD_BYTES`` now): an old ``run.json`` that
        carries it is refused on resume like any unknown key."""
        from repro.runtime import SimulationRunner

        runner = SimulationRunner.create(small_config(), tmp_path / "run")
        assert runner.run(max_steps=1) == 75
        manifest_path = tmp_path / "run" / "run.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["config"]["engine"]["min_shard_bytes"] = 0
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="unknown EngineConfig keys"):
            SimulationRunner.resume(tmp_path / "run")

    def test_unsupported_suffix(self, tmp_path):
        with pytest.raises(ValueError, match="json or .toml"):
            RunConfig.load(tmp_path / "cfg.yaml")
        with pytest.raises(ValueError, match="json or .toml"):
            small_config().dump(tmp_path / "cfg.yaml")

    def test_from_dict_validates(self):
        data = small_config().as_dict()
        data["scenario"] = "nope"
        with pytest.raises(ValueError):
            RunConfig.from_dict(data)


class TestTomlEmitter:
    def test_scalar_types(self):
        import tomllib

        text = toml_dumps({
            "s": "hi \"there\"", "i": 3, "f": 1.5, "b": True,
            "lst": [1, 2, 3],
            "tbl": {"x": 1.0, "nested": {"y": "z"}},
        })
        data = tomllib.loads(text)
        assert data["s"] == 'hi "there"'
        assert data["b"] is True
        assert data["lst"] == [1, 2, 3]
        assert data["tbl"]["nested"]["y"] == "z"

    def test_rejects_unserializable(self):
        with pytest.raises(TypeError):
            toml_dumps({"bad": object()})
