"""The analysis tier: chunked snapshots and the diagnostics pipeline
(``repro.serve``)."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.mesh import PhaseSpaceGrid
from repro.io.snapshot import (
    MANIFEST_NAME,
    SnapshotIntegrityError,
    read_snapshot,
    read_snapshot_field,
    snapshot_manifest,
    write_snapshot,
    write_snapshot_chunked,
)
from repro.serve import DiagnosticsPipeline, read_products
from repro.serve.pipeline import snapshot_name


@pytest.fixture
def grid() -> PhaseSpaceGrid:
    return PhaseSpaceGrid(nx=(12, 12), nu=(8, 8), box_size=3.0, v_max=2.5)


@pytest.fixture
def f(grid, rng) -> np.ndarray:
    return rng.random(grid.shape)


class TestChunkedSnapshot:
    def test_round_trip_matches_legacy_moments(self, grid, f, tmp_path):
        """Chunked and monolithic writers store the same moment fields."""
        legacy = write_snapshot(tmp_path / "legacy.npz", grid, f, a=0.5)
        chunked = write_snapshot_chunked(tmp_path / "snap", grid, f, a=0.5,
                                         n_chunks=3)
        ref = read_snapshot(legacy)
        out = read_snapshot(chunked)  # read_snapshot dispatches on layout
        assert out["header"]["a"] == ref["header"]["a"]
        for name in ("density", "velocity", "dispersion"):
            np.testing.assert_array_equal(out[name], ref[name])

    def test_field_and_slab_reads(self, grid, f, tmp_path):
        snap = write_snapshot_chunked(tmp_path / "snap", grid, f, n_chunks=4,
                                      min_chunk_bytes=0)
        whole = read_snapshot_field(snap, "density")
        assert whole.shape == grid.nx

    def test_vector_fields_chunk_on_axis_one(self, grid, f, tmp_path):
        """The component axis of velocity/dispersion must stay whole."""
        snap = write_snapshot_chunked(tmp_path / "snap", grid, f, n_chunks=3,
                                      min_chunk_bytes=0)
        manifest = snapshot_manifest(snap)
        assert manifest["fields"]["velocity"]["axis"] == 1
        assert len(manifest["fields"]["velocity"]["chunks"]) == 3
        assert manifest["fields"]["density"]["axis"] == 0
        vel = read_snapshot_field(snap, "velocity")
        assert vel.shape == (grid.dim, *grid.nx)

    def test_corrupt_chunk_detected(self, grid, f, tmp_path):
        snap = tmp_path / "snap"
        write_snapshot_chunked(snap, grid, f, n_chunks=2)
        manifest = snapshot_manifest(snap)
        victim = snap / manifest["fields"]["density"]["chunks"][0]["file"]
        blob = bytearray(victim.read_bytes())
        blob[-1] ^= 0xFF
        victim.write_bytes(bytes(blob))
        with pytest.raises(SnapshotIntegrityError):
            read_snapshot_field(snap, "density")

    def test_more_chunks_than_extent_degrades(self, grid, f, tmp_path):
        """n_chunks beyond the slab axis extent must not create empties."""
        snap = write_snapshot_chunked(tmp_path / "snap", grid, f, n_chunks=64,
                                      min_chunk_bytes=0)
        manifest = snapshot_manifest(snap)
        for spec in manifest["fields"].values():
            for entry in spec["chunks"]:
                assert entry["stop"] > entry["start"]
        np.testing.assert_array_equal(
            read_snapshot_field(snap, "density").shape, grid.nx
        )

    def test_small_fields_collapse_to_few_chunks(self, grid, f, tmp_path):
        """Sub-megabyte fields must not shatter into fsync-heavy slivers."""
        snap = write_snapshot_chunked(tmp_path / "snap", grid, f, n_chunks=8)
        manifest = snapshot_manifest(snap)
        for spec in manifest["fields"].values():  # every field is tiny here
            assert len(spec["chunks"]) == 1


class TestDiagnosticsPipeline:
    def test_products_and_events(self, grid, f, tmp_path):
        events = []
        pipe = DiagnosticsPipeline(
            tmp_path / "diag", grid, n_bins=5,
            event_sink=lambda kind, **kw: events.append(kind),
        )
        with pipe:
            for step in (1, 2, 3):
                assert pipe.submit(step, {"t": 0.1 * step}, f * step)
        records = list(read_products(tmp_path / "diag"))
        assert [r["step"] for r in records] == [1, 2, 3]
        for step in (1, 2, 3):
            assert (tmp_path / "diag" / snapshot_name(step)
                    / MANIFEST_NAME).exists()
        assert "density" in records[0]["fields"]
        assert len(records[0]["spectra"]["k"]) > 0
        assert events.count("diagnostics_enqueued") == 3
        assert events.count("diagnostics_written") == 3
        assert events[-1] == "diagnostics_closed"
        assert pipe.stats()["written"] == 3

    def test_drop_mode_sheds_load(self, grid, f, tmp_path):
        release = threading.Event()
        pipe = DiagnosticsPipeline(tmp_path / "diag", grid, queue_max=1,
                                   on_full="drop", spectra=False)
        original = pipe._process

        def slow_process(*item):
            release.wait(timeout=10.0)
            original(*item)

        pipe._process = slow_process
        accepted = [pipe.submit(s, {"t": 0.0}, f) for s in range(4)]
        release.set()
        pipe.close()
        # the worker holds one item, the queue one more: later submits drop
        assert accepted[0] and not all(accepted)
        assert pipe.dropped == accepted.count(False)
        assert pipe.written == accepted.count(True)

    def test_worker_owns_a_frozen_copy(self, grid, f, tmp_path):
        """Mutating f after submit must not leak into the stored product."""
        release = threading.Event()
        pipe = DiagnosticsPipeline(tmp_path / "diag", grid, spectra=False)
        original = pipe._process

        def gated(*item):
            release.wait(timeout=10.0)
            original(*item)

        pipe._process = gated
        from repro.core import moments

        expected = moments.density(f, grid).astype(np.float32)
        pipe.submit(1, {"t": 0.0}, f)
        f[:] = 0.0  # the stepper advancing in place
        release.set()
        pipe.close()
        stored = read_snapshot_field(tmp_path / "diag" / snapshot_name(1),
                                     "density")
        np.testing.assert_array_equal(stored, expected)

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
            "diagnostics": {"every_steps": 2, "n_bins": 4, "n_chunks": 2},
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

