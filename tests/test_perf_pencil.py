"""Tests of the perf subsystem: ScratchArena and the PencilEngine.

The load-bearing property: for every scheme, both boundary conditions
and mixed-sign shift arrays, the pencil-sharded sweep is **bitwise
identical** to the serial ``advect`` — sharding happens along an axis
the advection operator does not couple, so each worker executes exactly
the serial arithmetic on its slice.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PhaseSpaceGrid, VlasovSolver
from repro.core.advection import SCHEMES, advect
from repro.diagnostics import StepTimer
from repro.parallel.decomposition import pencil_slices
from repro.perf import PencilEngine, ScratchArena, pencil

pytestmark = pytest.mark.smoke


# ---------------------------------------------------------------------------
# ScratchArena
# ---------------------------------------------------------------------------


class TestScratchArena:
    def test_reuse_same_signature(self):
        a = ScratchArena()
        b1 = a.take("x", (4, 5), np.float32)
        b2 = a.take("x", (4, 5), np.float32)
        assert b1 is b2
        assert a.stats() == {
            "n_buffers": 1, "nbytes": 80, "hits": 1, "misses": 1,
        }

    def test_slots_keyed_by_key_and_dtype_grow_to_capacity(self):
        a = ScratchArena()
        x32 = a.take("x", (4,), np.float32)
        assert not np.shares_memory(x32, a.take("y", (4,), np.float32))
        assert not np.shares_memory(x32, a.take("x", (4,), np.float64))
        # a shape the slot's capacity covers is the same memory, reshaped
        square = a.take("x", (2, 2), np.float32)
        assert square.shape == (2, 2) and np.shares_memory(square, x32)
        assert (a.n_buffers, a.misses, a.hits) == (3, 3, 1)
        # a larger request regrows the slot: one miss, high-water bytes
        assert a.take("x", (3, 3), np.float32).shape == (3, 3)
        assert (a.n_buffers, a.misses) == (3, 4)
        assert a.nbytes == 9 * 4 + 4 * 4 + 4 * 8
        assert a.take("x", (4,), np.float32).base is not x32.base

    def test_view_cache_is_bounded(self):
        a = ScratchArena()
        a.take("x", (64,), np.float64)
        for rows in range(1, 40):
            assert a.take("x", (rows, 1), np.float64).shape == (rows, 1)
            (_, views), = a._pool.values()
            assert len(views) <= ScratchArena.MAX_VIEWS
        assert a.misses == 1

    def test_clear_drops_everything(self):
        a = ScratchArena()
        a.take("x", (1024,), np.float64)
        assert a.nbytes == 8192
        a.clear()
        assert a.nbytes == 0 and a.n_buffers == 0 and a.misses == 0


# ---------------------------------------------------------------------------
# pencil_slices (the shard geometry, shared with parallel.decomposition)
# ---------------------------------------------------------------------------


class TestPencilSlices:
    def test_even_partition(self):
        assert pencil_slices(12, 3) == [slice(0, 4), slice(4, 8), slice(8, 12)]

    def test_remainder_spread_front(self):
        assert pencil_slices(10, 3) == [slice(0, 4), slice(4, 7), slice(7, 10)]

    def test_parts_clipped_to_n(self):
        assert pencil_slices(2, 8) == [slice(0, 1), slice(1, 2)]

    def test_covers_axis_exactly(self):
        for n in (1, 7, 16, 33):
            for parts in (1, 2, 5, 40):
                sls = pencil_slices(n, parts)
                cells = [i for sl in sls for i in range(sl.start, sl.stop)]
                assert cells == list(range(n))

    def test_invalid(self):
        with pytest.raises(ValueError):
            pencil_slices(0, 2)
        with pytest.raises(ValueError):
            pencil_slices(4, 0)


# ---------------------------------------------------------------------------
# PencilEngine == serial advect, bitwise
# ---------------------------------------------------------------------------


@pytest.fixture(autouse=True)
def shard_small_arrays(monkeypatch):
    """Shard even these test-sized arrays (the threshold is read per call)."""
    monkeypatch.setattr(pencil, "MIN_SHARD_BYTES", 0)


@pytest.fixture(scope="module")
def thread_engine():
    with PencilEngine(n_workers=3) as e:
        yield e


def _mixed_sign_case(seed: int = 7):
    rng = np.random.default_rng(seed)
    f = (0.5 + rng.random((12, 10, 16))).astype(np.float32)
    shift = rng.uniform(-3.3, 3.3, size=(12, 10, 1)).astype(np.float32)
    assert (shift > 0).any() and (shift < 0).any()
    return f, shift


class TestEngineBitwiseEquality:
    @pytest.mark.parametrize("bc", ["periodic", "zero"])
    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    def test_all_schemes_both_bcs_mixed_sign(self, thread_engine, scheme, bc):
        f, shift = _mixed_sign_case()
        ref = advect(f, shift, 2, scheme=scheme, bc=bc)
        got = thread_engine.advect(f, shift, 2, scheme=scheme, bc=bc)
        assert thread_engine.last_plan["n_pencils"] >= 2
        assert got.tobytes() == ref.tobytes()

    @given(
        seed=st.integers(0, 2**31 - 1),
        axis=st.integers(0, 2),
        workers=st.integers(2, 5),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_random_axis_and_worker_count(self, seed, axis, workers):
        rng = np.random.default_rng(seed)
        f = (0.5 + rng.random((9, 8, 11))).astype(np.float32)
        sh_shape = [9, 8, 11]
        sh_shape[axis] = 1
        shift = rng.uniform(-2.5, 2.5, size=sh_shape).astype(np.float32)
        ref = advect(f, shift, axis, scheme="slmpp5", bc="periodic")
        with PencilEngine(n_workers=workers) as eng:
            got = eng.advect(f, shift, axis, scheme="slmpp5", bc="periodic")
        assert got.tobytes() == ref.tobytes()

    def test_scalar_shift_and_out_buffer(self, thread_engine):
        f, _ = _mixed_sign_case(3)
        ref = advect(f, 1.8, 1, scheme="slp5")
        buf = np.empty_like(f)
        got = thread_engine.advect(f, 1.8, 1, scheme="slp5", out=buf)
        assert got is buf
        assert got.tobytes() == ref.tobytes()


class TestEnginePlanning:
    def test_picks_longest_non_advected_axis(self):
        assert PencilEngine.pick_shard_axis((4, 32, 8), axis=1) == 2
        assert PencilEngine.pick_shard_axis((32, 16, 8), axis=1) == 0
        # tie favors the leading (spatial) axis
        assert PencilEngine.pick_shard_axis((16, 8, 16), axis=2) == 0
        # nothing shardable on a 1-D problem
        assert PencilEngine.pick_shard_axis((64,), axis=0) is None

    def test_small_arrays_fall_back_to_serial(self, monkeypatch):
        monkeypatch.setattr(pencil, "MIN_SHARD_BYTES", 1 << 30)
        eng = PencilEngine(n_workers=4)
        f, shift = _mixed_sign_case()
        ref = advect(f, shift, 2, scheme="slmpp5")
        got = eng.advect(f, shift, 2, scheme="slmpp5")
        assert eng.last_plan is None
        assert got.tobytes() == ref.tobytes()

    def test_bad_backend_and_worker_count(self):
        """Threads are the only transport: there is no backend to pick."""
        with pytest.raises(TypeError):
            PencilEngine(backend="threads")
        with pytest.raises(ValueError):
            PencilEngine(n_workers=0)

    def test_unknown_scheme_rejected(self, thread_engine):
        with pytest.raises(ValueError, match="unknown scheme"):
            thread_engine.advect(np.ones((4, 8), np.float32), 0.5, 1, scheme="nope")


# ---------------------------------------------------------------------------
# Solver integration: engine-driven Strang stepping
# ---------------------------------------------------------------------------


class TestSolverIntegration:
    def test_strang_step_bitwise_and_timed(self):
        grid = PhaseSpaceGrid(nx=(16, 8), nu=(12, 10), box_size=1.0, v_max=4.0)
        rng = np.random.default_rng(3)
        ic = (0.5 + rng.random(grid.shape)).astype(np.float32)
        accel = rng.standard_normal((2,) + grid.nx)

        serial = VlasovSolver(grid)
        serial.f[...] = ic
        timer = StepTimer()
        with PencilEngine(n_workers=3) as eng:
            sharded = VlasovSolver(grid, engine=eng, timer=timer)
            sharded.f[...] = ic
            for s in (serial, sharded):  # K(h/2) D(h) K(h/2), composed here
                s.kick(accel, 0.03)
                s.drift(0.06)
                s.kick(accel, 0.03)
        assert sharded.f.tobytes() == serial.f.tobytes()
        # per-sweep sections for the Fig. 7-style breakdown
        for name in ("vlasov/drift/x", "vlasov/drift/y",
                     "vlasov/kick/ux", "vlasov/kick/uy"):
            expected = 1 if "drift" in name else 2  # KDK: two half kicks
            assert timer.sections[name].count == expected

    def test_repeated_steps_allocation_free(self):
        grid = PhaseSpaceGrid(nx=(12,), nu=(16,), box_size=1.0, v_max=3.0)
        solver = VlasovSolver(grid)
        solver.f[...] = 0.5
        solver.drift(0.04)
        solver.drift(0.04)
        misses = solver.arena.misses
        for _ in range(3):
            solver.drift(0.04)
        assert solver.arena.misses == misses  # steady state: pure reuse
