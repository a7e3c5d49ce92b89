"""SIMD register simulation, the LAT transpose, and the Table 1 kernels."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simd import (
    SVE_SP_LANES,
    SimdMachine,
    SimdRegister,
    lat_shuffle_count,
    register_transpose,
    sweep_cols_lat,
    sweep_cols_strided,
    sweep_cols_vectorized,
    sweep_rows,
    sweep_scalar,
    tile_transpose_blocked,
    transpose_tile_with_machine,
)
from repro.simd.kernels import flux_weights, gflops


class TestSimdMachine:
    def test_sve_lane_counts(self):
        assert SVE_SP_LANES == 16  # 512-bit / 32-bit

    def test_contiguous_load_store(self):
        m = SimdMachine(width=4)
        mem = np.arange(8, dtype=np.float32)
        r = m.load(mem, 2)
        assert np.array_equal(r.data, [2, 3, 4, 5])
        out = np.zeros(8, dtype=np.float32)
        m.store(r, out, 0)
        assert np.array_equal(out[:4], [2, 3, 4, 5])
        assert m.counts.load_contiguous == 1
        assert m.counts.store_contiguous == 1

    def test_gather_counts_per_lane(self):
        """A gather is width micro-loads — the Figure 2 overhead."""
        m = SimdMachine(width=8)
        mem = np.arange(64, dtype=np.float32)
        m.gather(mem, np.arange(0, 64, 8))
        assert m.counts.load_gather == 8
        m.load(mem, 0)
        assert m.counts.load_contiguous == 1

    def test_arithmetic(self):
        m = SimdMachine(width=4)
        a = SimdRegister(np.array([1, 2, 3, 4], dtype=np.float32))
        b = SimdRegister(np.array([10, 20, 30, 40], dtype=np.float32))
        assert np.array_equal(m.add(a, b).data, [11, 22, 33, 44])
        assert np.array_equal(m.sub(b, a).data, [9, 18, 27, 36])
        assert m.counts.arithmetic == 2

    def test_bounds_checking(self):
        m = SimdMachine(width=4)
        with pytest.raises(IndexError):
            m.load(np.zeros(3, dtype=np.float32), 0)
        with pytest.raises(ValueError):
            m.gather(np.zeros(10), np.arange(3))

    def test_width_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            SimdMachine(width=6)


class TestLatTranspose:
    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_transpose_correct(self, n):
        m = SimdMachine(width=n)
        tile = np.arange(n * n, dtype=np.float32).reshape(n, n)
        out = np.zeros_like(tile)
        transpose_tile_with_machine(m, tile, out)
        assert np.array_equal(out, tile.T)

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_shuffle_count_is_n_log_n(self, n):
        """The paper: '64 SIMD instructions is required to transpose a
        16x16 data layout on 16 SIMD registers'."""
        m = SimdMachine(width=n)
        regs = [m.load(np.arange(n * n, dtype=np.float32), r * n) for r in range(n)]
        m.counts.shuffle = 0
        register_transpose(m, regs)
        assert m.counts.shuffle == lat_shuffle_count(n)

    def test_paper_headline_number(self):
        assert lat_shuffle_count(16) == 64

    def test_transpose_is_involution(self):
        m = SimdMachine(width=8)
        rng = np.random.default_rng(0)
        tile = rng.random((8, 8)).astype(np.float32)
        regs = [m.load(tile, r * 8) for r in range(8)]
        double = register_transpose(m, register_transpose(m, regs))
        for r in range(8):
            assert np.array_equal(double[r].data, tile[r])

    def test_lat_beats_gather_in_memory_ops(self):
        """Instruction accounting: the LAT path does 2n contiguous ops +
        n log n shuffles; the gather path does n*n per-lane loads."""
        n = 16
        lat_mem_ops = 2 * n  # loads + stores
        lat_total = lat_mem_ops + lat_shuffle_count(n)
        gather_mem_ops = n * n
        assert lat_total < gather_mem_ops

    def test_blocked_transpose_arbitrary_shapes(self, rng):
        for shape in ((32, 48), (17, 53), (64, 64)):
            a = rng.random(shape).astype(np.float32)
            assert np.array_equal(tile_transpose_blocked(a, 16), a.T)


class TestTable1Kernels:
    @pytest.fixture
    def field(self, rng):
        return rng.random((128, 256)).astype(np.float32)

    def test_all_variants_agree(self, field):
        """Scalar, row-vectorized, strided, LAT, whole-array: the same
        arithmetic, byte-identical answers up to float32 rounding."""
        alpha = 0.37
        ref_cols = sweep_rows(field.T.copy(), alpha).T
        assert np.allclose(sweep_cols_strided(field, alpha), ref_cols, atol=2e-6)
        assert np.allclose(sweep_cols_lat(field, alpha), ref_cols, atol=2e-6)
        assert np.allclose(sweep_cols_vectorized(field, alpha), ref_cols, atol=2e-6)

    def test_scalar_matches_vectorized(self, rng):
        small = rng.random((24, 24))
        a = sweep_scalar(small, 0.4)
        b = sweep_rows(small, 0.4)
        assert np.allclose(a, b, atol=1e-12)

    def test_sweep_conserves_mass(self, field):
        out = sweep_rows(field, 0.5)
        assert out.sum() == pytest.approx(field.sum(), rel=1e-4)

    @given(st.floats(0.0, 1.0))
    @settings(max_examples=20, deadline=None)
    def test_flux_weights_sum_to_alpha(self, alpha):
        w = flux_weights(alpha, np.float64)
        assert w.sum() == pytest.approx(alpha, abs=1e-12)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            flux_weights(1.5)

    def test_gflops_metric(self):
        assert gflops(1_000_000, 0.001) == pytest.approx(11.0)
        with pytest.raises(ValueError):
            gflops(10, 0.0)

    def test_lat_faster_than_strided(self, rng):
        """The performance *shape* of Table 1's u_z row: the LAT path
        beats the per-column strided path (by 12.5x on A64FX; here we
        only require a robust win to keep the test portable)."""
        import time

        f = rng.random((1024, 1024)).astype(np.float32)
        t0 = time.perf_counter()
        for _ in range(3):
            sweep_cols_strided(f, 0.37)
        t_strided = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(3):
            sweep_cols_lat(f, 0.37)
        t_lat = time.perf_counter() - t0
        assert t_lat < 0.7 * t_strided
