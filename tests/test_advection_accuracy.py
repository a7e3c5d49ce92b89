"""Accuracy of the conservative semi-Lagrangian advection schemes.

Measured convergence orders, exactness properties, and diffusion
comparisons — the numerical claims of paper §5.2.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.advection import SCHEMES, advect

from .conftest import cell_averages, sine_primitive


def one_step_error(n: int, scheme: str, shift: float) -> float:
    """Max-norm error of one advection step on 2 + sin(2 pi x)."""
    favg = cell_averages(sine_primitive, n)
    out = advect(favg, shift, 0, scheme=scheme)
    dx = 1.0 / n
    edges = np.linspace(0.0, 1.0, n + 1)
    exact = (
        sine_primitive(edges[1:] - shift * dx) - sine_primitive(edges[:-1] - shift * dx)
    ) / dx
    return float(np.abs(out - exact).max())


class TestConvergenceOrder:
    @pytest.mark.parametrize(
        "scheme,min_order",
        [
            ("upwind1", 1.0),
            ("slp3", 3.5),
            ("slp5", 5.5),
            ("slp7", 7.0),
            ("slmpp3", 3.5),
            ("slmpp5", 5.5),
            ("slmpp7", 7.0),
        ],
    )
    def test_measured_order(self, scheme, min_order):
        e1 = one_step_error(32, scheme, 0.37)
        e2 = one_step_error(64, scheme, 0.37)
        order = math.log2(e1 / e2)
        assert order >= min_order, f"{scheme}: measured order {order:.2f}"

    @pytest.mark.parametrize("scheme", ["slmpp5", "slp5"])
    def test_negative_shift_same_accuracy(self, scheme):
        e_pos = one_step_error(48, scheme, 0.37)
        e_neg = one_step_error(48, scheme, -0.37)
        assert e_neg == pytest.approx(e_pos, rel=0.3)


class TestExactness:
    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    @pytest.mark.parametrize("k", [-5, -1, 0, 2, 7])
    def test_integer_shift_is_exact_roll(self, scheme, k, rng):
        f = rng.random(40)
        out = advect(f, float(k), 0, scheme=scheme)
        assert np.allclose(out, np.roll(f, k), atol=1e-12)

    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    def test_constant_field_invariant(self, scheme):
        f = np.full(32, 3.7)
        out = advect(f, 0.43, 0, scheme=scheme)
        assert np.allclose(out, f, atol=1e-6)

    @pytest.mark.parametrize("scheme", ["slp5", "slmpp5"])
    def test_large_cfl_supported(self, scheme, rng):
        """Single-stage semi-Lagrangian: CFL > 1 works (paper's selling
        point over Eulerian RK schemes)."""
        f = rng.random(64)
        out = advect(f, 5.37, 0, scheme=scheme)
        assert out.sum() == pytest.approx(f.sum(), rel=1e-12)
        # equivalent to integer part + fractional part
        out2 = advect(np.roll(f, 5), 0.37, 0, scheme=scheme)
        assert np.allclose(out, out2, atol=1e-12)


class TestDiffusion:
    def test_slmpp5_much_less_diffusive_than_upwind(self):
        """Paper: high order = less diffusive. After two box crossings the
        L1 error of slmpp5 is ~10x smaller than donor-cell."""
        n = 64
        favg = cell_averages(sine_primitive, n)
        n_steps = 346  # 0.37 * 346 = 128.02 cells ~ 2 crossings
        errors = {}
        for scheme in ("upwind1", "slmpp5"):
            g = favg.copy()
            for _ in range(n_steps):
                g = advect(g, 0.37, 0, scheme=scheme)
            exact = np.roll(favg, round(0.37 * n_steps) % n)
            # fractional residue 0.02 cells: compare against shifted
            errors[scheme] = np.abs(g - exact).mean()
        assert errors["slmpp5"] < errors["upwind1"] / 8.0

    def test_l2_norm_nonincreasing_slmpp5(self, rng):
        """Limited schemes are dissipative: the L2 norm never grows."""
        f = rng.random(64)
        prev = float((f**2).sum())
        g = f
        for _ in range(20):
            g = advect(g, 0.61, 0, scheme="slmpp5")
            cur = float((g**2).sum())
            assert cur <= prev * (1 + 1e-7)
            prev = cur


class TestMultiDim:
    def test_per_slice_shifts_match_rowwise(self, rng):
        f = rng.random((6, 48)).astype(np.float32)
        shifts = np.linspace(-2.1, 2.1, 6).reshape(6, 1).astype(np.float32)
        out = advect(f, shifts, 1, scheme="slmpp5")
        for i in range(6):
            row = advect(f[i], float(shifts[i, 0]), 0, scheme="slmpp5")
            assert np.allclose(row, out[i], atol=2e-6)

    def test_axis_independence(self, rng):
        f = rng.random((24, 24))
        a0 = advect(f, 0.3, 0, scheme="slmpp5")
        a1 = advect(f.T, 0.3, 1, scheme="slmpp5").T
        assert np.allclose(a0, a1, atol=1e-12)

    def test_shift_shape_validation(self, rng):
        f = rng.random((8, 16))
        with pytest.raises(ValueError, match="size 1 along"):
            advect(f, np.ones((8, 16)), 1)
        with pytest.raises(ValueError, match="ndim"):
            advect(f, np.ones(8), 1)

    def test_scalar_shift_with_integer_part_multidim(self, rng):
        """Regression: a scalar shift > 1 on a multi-dim array must take
        the same prefix-sum path as per-slice shifts (shape broadcast)."""
        f = rng.random((6, 32))
        out = advect(f, 2.37, 1, scheme="slmpp5")
        for i in range(6):
            row = advect(f[i], 2.37, 0, scheme="slmpp5")
            assert np.allclose(row, out[i], atol=1e-12)

    def test_4d_phase_space_layout(self, rng):
        """2D2V layout (the paper's List 1 pattern in reduced dims)."""
        f = rng.random((6, 6, 8, 8)).astype(np.float32)
        u = np.linspace(-1, 1, 8).reshape(1, 1, 8, 1).astype(np.float32)
        out = advect(f, u, 0, scheme="slmpp5")
        assert out.shape == f.shape
        assert out.sum() == pytest.approx(f.sum(), rel=1e-5)


class TestBoundaryConditions:
    def test_zero_bc_outflow_loses_mass_forward_only(self):
        x = np.linspace(-4, 4, 64)
        f = np.exp(-(x**2))
        g = f.copy()
        for _ in range(40):
            g = advect(g, 0.9, 0, scheme="slmpp5", bc="zero")
        # pulse has left the right boundary; nothing wrapped to the left
        assert g[:8].max() < 1e-12
        assert g.sum() < f.sum()

    def test_zero_bc_conserves_while_interior(self):
        x = np.linspace(-6, 6, 128)
        f = np.exp(-(x**2))
        g = advect(f, 0.5, 0, scheme="slmpp5", bc="zero")
        assert g.sum() == pytest.approx(f.sum(), rel=1e-9)

    def test_zero_bc_negative_shift(self):
        x = np.linspace(-4, 4, 64)
        f = np.exp(-(x**2))
        g = f.copy()
        for _ in range(40):
            g = advect(g, -0.9, 0, scheme="slmpp5", bc="zero")
        assert g[-8:].max() < 1e-12

    def test_unknown_bc_rejected(self, rng):
        with pytest.raises(ValueError):
            advect(rng.random(16), 0.1, 0, bc="reflect")

    def test_unknown_scheme_rejected(self, rng):
        with pytest.raises(ValueError):
            advect(rng.random(16), 0.1, 0, scheme="magic")

    def test_too_short_axis_rejected(self, rng):
        with pytest.raises(ValueError):
            advect(rng.random(3), 0.1, 0, scheme="slmpp5")
