"""RunConfig: validation, dict/JSON/TOML round-trips, the TOML emitter."""

from __future__ import annotations

import json

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
