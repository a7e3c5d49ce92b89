"""Snapshot/checkpoint I/O and the diagnostics (timers, ledgers)."""

from __future__ import annotations

import time

import numpy as np
import pytest
from numpy.lib import format as npy

from repro.core.mesh import PhaseSpaceGrid
from repro.diagnostics import ConservationLedger, StepTimer
from repro.io import (
    IOTimer,
    read_checkpoint,
    read_snapshot,
    write_checkpoint,
    write_snapshot,
)
from repro.nbody.particles import ParticleSet


@pytest.fixture
def grid():
    return PhaseSpaceGrid(nx=(6, 6, 6), nu=(4, 4, 4), box_size=10.0, v_max=2.0)


@pytest.fixture
def f(grid, rng):
    return rng.random(grid.shape).astype(grid.dtype)


@pytest.fixture
def fields(grid, rng):
    """A small moment-field set, as the diagnostics pipeline hands it over."""
    return {
        "density": rng.random(grid.nx).astype(np.float32),
        "velocity": rng.random((3,) + grid.nx).astype(np.float32),
    }


@pytest.fixture
def particles(rng):
    return ParticleSet(
        rng.uniform(0, 10, (50, 3)), rng.normal(0, 1, (50, 3)),
        rng.uniform(0.5, 2, 50), 10.0,
    )


class TestSnapshot:
    def test_snapshot_roundtrip(self, tmp_path, grid, fields, particles):
        timer = IOTimer()
        path = write_snapshot(
            tmp_path / "snap.npz", grid, fields, particles, a=0.5,
            timer=timer, extra={"step": 7},
        )
        snap = read_snapshot(path, timer=timer)
        assert snap["header"]["a"] == 0.5
        assert snap["header"]["extra"]["step"] == 7
        assert snap["density"].shape == grid.nx
        assert snap["velocity"].shape == (3,) + grid.nx
        assert np.allclose(snap["positions"], particles.positions)
        assert timer.write_seconds > 0 and timer.read_seconds > 0
        assert timer.bytes_written > 0

    def test_snapshot_stores_moments_not_f(self, tmp_path, grid, fields):
        """A snapshot holds exactly the fields it is handed, bit for bit,
        and nothing else: never the 6-D f (the paper's I/O budget would
        be exabytes otherwise).  Which moments those are is the
        diagnostics pipeline's choice (``tests/test_serve.py``)."""
        snap = read_snapshot(write_snapshot(tmp_path / "s.npz", grid, fields))
        assert set(snap) == {"header", *fields}
        for name, arr in fields.items():
            assert snap[name].tobytes() == arr.tobytes()

    def test_snapshot_without_particles(self, tmp_path, grid, fields):
        snap = read_snapshot(write_snapshot(tmp_path / "s.npz", grid, fields))
        assert not snap["header"]["has_particles"]
        assert "positions" not in snap

    def test_kind_mismatch_rejected(self, tmp_path, grid, f):
        path = write_checkpoint(tmp_path / "c.npz", grid, f)
        with pytest.raises(ValueError):
            read_snapshot(path)


class TestAtomicWrites:
    """Issue regressions: suffix-less paths returned a nonexistent file
    (np.savez silently appends .npz — and path.stat() raised with a
    timer attached), and an interrupted write could leave a truncated
    container where a good checkpoint used to be."""

    def test_suffixless_snapshot_returns_real_path(self, tmp_path, grid, fields):
        timer = IOTimer()
        path = write_snapshot(tmp_path / "snap", grid, fields, timer=timer)
        assert path.name == "snap.npz"
        assert path.exists()
        assert timer.bytes_written == path.stat().st_size
        assert read_snapshot(path)["header"]["kind"] == "snapshot"

    def test_suffixless_checkpoint_returns_real_path(self, tmp_path, grid, f):
        timer = IOTimer()
        path = write_checkpoint(tmp_path / "ck", grid, f, step=3, timer=timer)
        assert path.name == "ck.npz"
        assert path.exists()
        _, f2, _, header = read_checkpoint(path)
        assert np.array_equal(f2, f)
        assert header["step"] == 3

    def test_odd_suffix_is_kept_plus_npz(self, tmp_path, grid, fields):
        """np.savez semantics, made explicit: 'snap.v1' -> 'snap.v1.npz'."""
        path = write_snapshot(tmp_path / "snap.v1", grid, fields)
        assert path.name == "snap.v1.npz"
        assert path.exists()

    def test_interrupted_write_leaves_no_file(self, tmp_path, grid, f, monkeypatch):
        def boom(*args, **kwargs):
            raise KeyboardInterrupt

        # the first member's .npy header write
        monkeypatch.setattr(npy, "write_array_header_1_0", boom)
        with pytest.raises(KeyboardInterrupt):
            write_checkpoint(tmp_path / "ck.npz", grid, f)
        assert list(tmp_path.iterdir()) == []  # no final file, no temp litter

    def test_interrupted_overwrite_keeps_previous_checkpoint(
        self, tmp_path, grid, f, monkeypatch
    ):
        """The restart chain survives a crash mid-overwrite: the old
        checkpoint is replaced only after the new bytes are complete."""
        path = write_checkpoint(tmp_path / "ck.npz", grid, f, step=1)

        real_header = npy.write_array_header_1_0

        def truncating(fh, header):
            real_header(fh, header)  # bytes hit the temp file...
            raise OSError("disk gone")  # ...but the write "crashes"

        monkeypatch.setattr(npy, "write_array_header_1_0", truncating)
        f2 = f + 1.0
        with pytest.raises(OSError):
            write_checkpoint(tmp_path / "ck.npz", grid, f2, step=2)
        monkeypatch.undo()

        _, f_read, _, header = read_checkpoint(path)
        assert header["step"] == 1
        assert np.array_equal(f_read, f)
        assert list(tmp_path.iterdir()) == [path]

    def test_members_are_savez_bytes(self, tmp_path, rng):
        """The container is written member by member straight from the
        arrays' memory, and each member holds what np.savez stores."""
        import zipfile

        from repro.io.snapshot import _atomic_savez

        payload = {
            "f": rng.random((4, 3, 5)).astype(np.float32),
            "positions": rng.random((6, 3)),
            "masses": np.ones(6),
            "scalar": np.array(2.5),
            "empty": np.zeros((0, 3)),
            "header": np.frombuffer(b'{"kind": "x"}', dtype=np.uint8),
        }
        ours = _atomic_savez(tmp_path / "ours", payload)
        np.savez(tmp_path / "theirs.npz", **payload)
        with zipfile.ZipFile(ours) as a, \
                zipfile.ZipFile(tmp_path / "theirs.npz") as b:
            assert a.namelist() == b.namelist()
            for name in a.namelist():
                assert a.read(name) == b.read(name), name
        with np.load(ours) as data:
            for name, arr in payload.items():
                assert data[name].shape == arr.shape
                assert data[name].dtype == arr.dtype
                np.testing.assert_array_equal(data[name], arr)

    @pytest.mark.parametrize("form", ["json", "npz"])
    def test_failed_write_keeps_previous_file_and_leaves_no_tmp(
        self, tmp_path, form
    ):
        """The one helper every durable artifact goes through: a writer
        that raises after bytes reached the temp file leaves the old
        file byte-identical and no ``.tmp*`` sibling."""
        from repro.io.atomic import atomic_write, atomic_write_json

        path = tmp_path / f"artifact.{form}"
        if form == "json":
            atomic_write_json(path, {"status": "running", "last_step": 3})

            def write(fh):
                fh.write(b'{"status": "comp')
                raise OSError("disk gone")
        else:
            atomic_write(path, lambda fh: np.savez(fh, f=np.arange(5.0)))

            class Poison:
                def __array__(self, *args, **kwargs):
                    raise OSError("disk gone")

            def write(fh):  # member ``f`` is written, then ``g`` raises
                np.savez(fh, f=np.zeros(5), g=Poison())
        before = path.read_bytes()
        with pytest.raises(OSError, match="disk gone"):
            atomic_write(path, write)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]
        if form == "json":  # unserializable: fails before any byte
            with pytest.raises(TypeError):
                atomic_write_json(path, {"bad": object()})
            assert path.read_bytes() == before
            assert list(tmp_path.iterdir()) == [path]


class TestCheckpoint:
    def test_bit_exact_roundtrip(self, tmp_path, grid, f, particles):
        path = write_checkpoint(
            tmp_path / "ck.npz", grid, f, particles, a=0.3, step=42
        )
        grid2, f2, p2, header = read_checkpoint(path)
        assert grid2 == grid
        assert np.array_equal(f2, f)
        assert np.array_equal(p2.positions, particles.positions)
        assert np.array_equal(p2.velocities, particles.velocities)
        assert header["step"] == 42

    def test_checkpoint_restores_dtype(self, tmp_path, rng):
        grid = PhaseSpaceGrid(
            nx=(4,), nu=(4,), box_size=1.0, v_max=1.0, dtype=np.float64
        )
        f = rng.random(grid.shape)
        _, f2, _, _ = read_checkpoint(write_checkpoint(tmp_path / "c.npz", grid, f))
        assert f2.dtype == np.float64

    def test_snapshot_checkpoint_not_interchangeable(self, tmp_path, grid,
                                                     fields):
        path = write_snapshot(tmp_path / "s.npz", grid, fields)
        with pytest.raises(ValueError):
            read_checkpoint(path)

    def test_v2_header_roundtrips_time_and_extra(self, tmp_path, grid, f):
        path = write_checkpoint(
            tmp_path / "ck.npz", grid, f, step=7, sim_time=1.25,
            extra={"scenario": "plasma", "schedule_index": 7},
        )
        _, _, _, header = read_checkpoint(path)
        assert header["version"] == 3
        assert header["time"] == 1.25
        assert header["extra"] == {"scenario": "plasma", "schedule_index": 7}

    def test_old_format_version_is_refused(self, tmp_path, grid, f):
        """Nothing writes v1/v2 any more, and the reader accepts exactly
        what the writer writes: an old header is an error naming both
        versions, for checkpoints and snapshots alike."""
        import json

        from repro.io.snapshot import _atomic_savez

        for kind, read in (("checkpoint", read_checkpoint),
                           ("snapshot", read_snapshot)):
            header = {
                "version": 2, "kind": kind, "a": 0.5, "step": 3,
                "time": 0.0, "extra": {},
                "nx": grid.nx, "nu": grid.nu, "box_size": grid.box_size,
                "v_max": grid.v_max, "dtype": grid.dtype.name,
                "has_particles": False,
            }
            payload = {
                "header": np.frombuffer(
                    json.dumps(header).encode(), dtype=np.uint8
                ),
                "f": f,
            }
            path = _atomic_savez(tmp_path / f"old_{kind}.npz", payload)
            with pytest.raises(ValueError, match=r"version 2.*version 3"):
                read(path)


class TestStepTimer:
    def test_sections_and_medians(self):
        t = StepTimer()
        for _ in range(5):
            with t.section("fast"):
                pass
            with t.section("slow"):
                time.sleep(0.002)
        assert t.sections["fast"].count == 5
        assert t.median("slow") >= 0.002
        assert t.median("slow") > t.median("fast")

    def test_nesting(self):
        t = StepTimer()
        with t.section("outer"):
            with t.section("outer/inner"):
                pass
        assert "outer" in t.sections and "outer/inner" in t.sections
        assert t.sections["outer"].total >= t.sections["outer/inner"].total

    def test_nested_bare_names_qualified_by_parent(self):
        """Regression: the stack used to be dead weight — a bare nested
        name was recorded unqualified, merging same-named leaves under
        different parents."""
        t = StepTimer()
        with t.section("step"):
            with t.section("drift"):
                pass
        with t.section("warmup"):
            with t.section("drift"):
                pass
        assert "step/drift" in t.sections
        assert "warmup/drift" in t.sections
        assert "drift" not in t.sections

    def test_lap_recorded_when_the_body_raises(self):
        t = StepTimer()
        with pytest.raises(RuntimeError):
            with t.section("outer"):
                with t.section("inner"):
                    raise RuntimeError("boom")
        assert t.sections["outer"].count == 1
        assert t.sections["outer/inner"].count == 1
        # the stack unwound: a new section is top level again
        with t.section("after"):
            pass
        assert "after" in t.sections

    def test_qualified_name_is_cached_per_parent(self):
        t = StepTimer()
        for _ in range(3):
            with t.section("step"):
                with t.section("drift"):
                    pass
            with t.section("drift"):
                pass
        assert t.sections["step/drift"].count == 3
        assert t.sections["drift"].count == 3
        assert t.sections["step"].count == 3

    def test_deep_nesting_chains_prefixes(self):
        t = StepTimer()
        with t.section("a"):
            with t.section("b"):
                with t.section("c"):
                    pass
        assert set(t.sections) == {"a", "a/b", "a/b/c"}

    def test_prequalified_names_not_doubled(self):
        t = StepTimer()
        with t.section("vlasov"):
            with t.section("vlasov/drift"):
                with t.section("vlasov/drift/x"):
                    pass
        assert set(t.sections) == {"vlasov", "vlasov/drift", "vlasov/drift/x"}

    def test_siblings_after_nested_exit_not_qualified(self):
        t = StepTimer()
        with t.section("step"):
            pass
        with t.section("other"):
            pass
        assert set(t.sections) == {"step", "other"}

    def test_report_renders(self):
        t = StepTimer()
        with t.section("vlasov"):
            pass
        assert "vlasov" in t.report()

    def test_missing_section(self):
        with pytest.raises(KeyError):
            StepTimer().median("never")

    def test_stats_require_laps(self):
        from repro.diagnostics import SectionStats

        with pytest.raises(ValueError):
            SectionStats().median

    def test_total_is_a_running_sum(self):
        """The runner reads every section's total every step: the read
        must not walk the laps (O(steps^2) over a run), and the laps kept
        stay bounded — the last 40, the paper's "40 steps, median"."""
        import math

        from repro.diagnostics import SectionStats

        class NoWalk(list):
            def __iter__(self):
                raise AssertionError("total iterated laps")

        rng = np.random.default_rng(3)
        stats = SectionStats(laps=[0.25, 0.5])
        laps = [0.25, 0.5] + rng.uniform(1e-6, 2.0, 5000).tolist()
        for lap in laps[2:]:
            stats.add(lap)
        assert stats.count == 5002
        assert len(stats.laps) == 40
        assert stats.median == float(np.median(laps[-40:]))
        exact = math.fsum(laps)
        stats.laps = NoWalk(stats.laps)
        assert abs(stats.total - exact) <= 1e-12 * exact
        assert stats.count == 5002


class TestConservationLedger:
    def test_drift_tracking(self):
        ledger = ConservationLedger()
        ledger.register(mass=100.0, energy=50.0)
        ledger.update(mass=100.0001, energy=49.0)
        assert ledger.relative_drift("mass") == pytest.approx(1e-6)
        assert ledger.relative_drift("energy") == pytest.approx(0.02)

    def test_zero_initial_value(self):
        ledger = ConservationLedger()
        ledger.register(momentum=0.0)
        ledger.update(momentum=0.003)
        assert ledger.relative_drift("momentum") == pytest.approx(0.003)

    def test_unregistered_key(self):
        ledger = ConservationLedger()
        with pytest.raises(KeyError):
            ledger.update(mass=1.0)
        with pytest.raises(KeyError):
            ledger.relative_drift("mass")


class TestIOProperties:
    def test_checkpoint_roundtrip_random_grids(self):
        """Checkpoints are bit-exact for arbitrary small grids/dtypes."""
        import tempfile
        from pathlib import Path

        from hypothesis import given, settings
        from hypothesis import strategies as st

        @given(st.integers(0, 2**31 - 1))
        @settings(max_examples=10, deadline=None)
        def check(seed):
            r = np.random.default_rng(seed)
            dim = int(r.integers(1, 4))
            nx = tuple(int(r.integers(4, 8)) for _ in range(dim))
            nu = tuple(int(r.integers(4, 8)) for _ in range(dim))
            dtype = np.float32 if seed % 2 else np.float64
            g = PhaseSpaceGrid(
                nx=nx, nu=nu, box_size=float(r.uniform(1, 100)),
                v_max=float(r.uniform(1, 100)), dtype=dtype,
            )
            f = r.random(g.shape).astype(dtype)
            with tempfile.TemporaryDirectory() as td:
                path = Path(td) / "c.npz"
                write_checkpoint(path, g, f, a=float(r.uniform(0.1, 1.0)))
                g2, f2, p2, _header = read_checkpoint(path)
            assert g2 == g
            assert np.array_equal(f2, f)
            assert p2 is None

        check()
