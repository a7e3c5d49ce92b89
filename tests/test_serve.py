"""The analysis tier: the diagnostics pipeline (``repro.serve``) and
the snapshots it stores."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core import moments
from repro.core.mesh import PhaseSpaceGrid
from repro.io.snapshot import read_snapshot
from repro.nbody.particles import ParticleSet
from repro.serve import DiagnosticsPipeline, read_products
from repro.serve.pipeline import snapshot_name


@pytest.fixture
def grid() -> PhaseSpaceGrid:
    return PhaseSpaceGrid(nx=(12, 12), nu=(8, 8), box_size=3.0, v_max=2.5)


@pytest.fixture
def f(grid, rng) -> np.ndarray:
    return rng.random(grid.shape)


class TestDiagnosticsPipeline:
    def test_products_and_events(self, grid, f, tmp_path):
        events = []
        pipe = DiagnosticsPipeline(
            tmp_path / "diag", grid, n_bins=5,
            event_sink=lambda kind, **kw: events.append(kind),
        )
        with pipe:
            for step in (1, 2, 3):
                pipe.submit(step, {"t": 0.1 * step}, f * step)
        records = list(read_products(tmp_path / "diag"))
        assert [r["step"] for r in records] == [1, 2, 3]
        for step, record in zip((1, 2, 3), records):
            assert record["snapshot"] == snapshot_name(step)
            stored = read_snapshot(tmp_path / "diag" / record["snapshot"])
            # moments only, never the 6-D f
            assert sorted(set(stored) - {"header"}) == record["fields"]
            assert "f" not in stored
            np.testing.assert_array_equal(
                stored["density"],
                moments.density(f * step, grid).astype(np.float32),
            )
        assert records[0]["fields"] == ["density", "dispersion", "velocity"]
        assert len(records[0]["spectra"]["k"]) > 0
        assert events.count("diagnostics_enqueued") == 3
        assert events.count("diagnostics_written") == 3
        assert events[-1] == "diagnostics_closed"
        assert pipe.stats()["written"] == 3

    def test_worker_owns_a_frozen_copy(self, grid, f, tmp_path):
        """Mutating f after submit must not leak into the stored product:
        the submit reduces f to its moments before it returns, so the
        worker owns the fields, not f."""
        release = threading.Event()
        pipe = DiagnosticsPipeline(tmp_path / "diag", grid)
        original = pipe._process

        def gated(*item):
            release.wait(timeout=10.0)
            original(*item)

        pipe._process = gated
        expected = moments.density(f, grid).astype(np.float32)
        pipe.submit(1, {"t": 0.0}, f)
        f[:] = 0.0  # the stepper advancing in place
        release.set()
        pipe.close()
        stored = read_snapshot(tmp_path / "diag" / snapshot_name(1))["density"]
        np.testing.assert_array_equal(stored, expected)

    def test_queued_item_holds_no_f(self, grid, f, tmp_path, rng):
        """The queue carries mesh-sized fields and particle copies only."""
        release = threading.Event()
        pipe = DiagnosticsPipeline(tmp_path / "diag", grid)
        original = pipe._process

        def gated(*item):
            release.wait(timeout=10.0)
            original(*item)

        pipe._process = gated
        particles = ParticleSet(rng.random((16, 2)) * grid.box_size,
                                rng.random((16, 2)), np.ones(16),
                                grid.box_size)
        try:
            for step in (1, 2, 3):  # the worker holds one, the queue two
                pipe.submit(step, {"t": 0.0}, f, particles,
                            velocity_shift=np.zeros((2,) + grid.nx))
            queued = list(pipe._queue.queue)
        finally:
            release.set()
            pipe.close()
        assert len(queued) == 2
        for step, coord, fields, held in queued:
            arrays = [*fields.values(), held.positions, held.velocities,
                      held.masses]
            assert all(a.size < f.size for a in arrays)
            assert held.positions is not particles.positions
        assert pipe.written == 3

    def test_worker_error_is_contained(self, grid, f, tmp_path):
        events = []
        pipe = DiagnosticsPipeline(
            tmp_path / "diag", grid,
            event_sink=lambda kind, **kw: events.append((kind, kw)),
        )
        pipe._moment_fields = lambda *a: (_ for _ in ()).throw(RuntimeError("boom"))
        pipe.submit(1, {"t": 0.0}, f)
        pipe.close()
        assert pipe.errors == 1 and pipe.written == 0
        kinds = [k for k, _ in events]
        assert "diagnostics_error" in kinds


class TestRunnerIntegration:
    @pytest.fixture
    def run_dir(self, tmp_path):
        from repro.runtime.config import RunConfig
        from repro.runtime.runner import SimulationRunner

        config = RunConfig.from_dict({
            "scenario": "plasma",
            "grid": {"nx": [16], "nu": [16]},
            "schedule": {"n_steps": 4, "dt": 0.05},
            "diagnostics": {"every_steps": 2, "n_bins": 4},
        })
        runner = SimulationRunner.create(config, tmp_path / "run")
        assert runner.run() == 0
        return tmp_path / "run"

    def test_diagnostics_ride_the_run(self, run_dir):
        records = list(read_products(run_dir / "diagnostics"))
        assert [r["step"] for r in records] == [2, 4]
        assert all("spectra" in r for r in records)

    def test_telemetry_carries_lifecycle_events(self, run_dir):
        from repro.runtime.telemetry import read_events, read_telemetry

        written = read_events(run_dir / "telemetry.jsonl",
                              "diagnostics_written")
        assert [e["step"] for e in written] == [2, 4]
        closed = read_events(run_dir / "telemetry.jsonl",
                             "diagnostics_closed")
        assert len(closed) == 1 and closed[0]["written"] == 2
        # the worker's interleaved events must not tear step records
        assert len(read_telemetry(run_dir / "telemetry.jsonl")) == 4

    def test_disabled_by_default(self, tmp_path):
        from repro.runtime.config import RunConfig
        from repro.runtime.runner import SimulationRunner

        config = RunConfig.from_dict({
            "scenario": "plasma",
            "grid": {"nx": [16], "nu": [16]},
            "schedule": {"n_steps": 2, "dt": 0.05},
        })
        runner = SimulationRunner.create(config, tmp_path / "run")
        assert runner.run() == 0
        assert not (tmp_path / "run" / "diagnostics").exists()

