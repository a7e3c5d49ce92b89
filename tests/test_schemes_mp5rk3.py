"""MP5+RK3 baseline: accuracy, monotonicity, and the cost comparison that
motivates the paper's single-stage scheme (§5.2)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.advection import advect
from repro.core.schemes import MP5_RK3_MAX_CFL, Mp5Rk3Advector

from .conftest import cell_averages, sine_primitive


class TestAccuracy:
    @pytest.mark.parametrize("shift", [0.15, -0.15])
    def test_high_order_convergence(self, shift):
        def err(n):
            favg = cell_averages(sine_primitive, n)
            adv = Mp5Rk3Advector()
            out = adv.advance(favg, shift, 0)
            dx = 1.0 / n
            edges = np.linspace(0, 1, n + 1)
            exact = (
                sine_primitive(edges[1:] - shift * dx)
                - sine_primitive(edges[:-1] - shift * dx)
            ) / dx
            return np.abs(out - exact).max()

        order = math.log2(err(32) / err(64))
        assert order > 4.5

    def test_matches_sl_scheme_on_smooth_data(self):
        """Both 5th-order schemes converge to the same answer."""
        n = 64
        favg = cell_averages(sine_primitive, n)
        a_sl = advect(favg, 0.15, 0, scheme="slmpp5")
        a_rk = Mp5Rk3Advector().advance(favg, 0.15, 0)
        assert np.allclose(a_sl, a_rk, atol=1e-6)


class TestProperties:
    def test_conservation(self, rng):
        f = rng.random(48)
        adv = Mp5Rk3Advector()
        out = adv.step(f, 0.18, 0)
        assert out.sum() == pytest.approx(f.sum(), rel=1e-12)

    def test_monotone_step_data(self):
        f = np.zeros(64)
        f[20:40] = 1.0
        adv = Mp5Rk3Advector()
        g = f.copy()
        for _ in range(50):
            g = adv.step(g, MP5_RK3_MAX_CFL, 0)
        assert g.max() <= 1.0 + 1e-6
        assert g.min() >= -1e-6

    def test_unlimited_variant_oscillates(self):
        """Without MP limiting the linear scheme rings at the step —
        the control experiment justifying the limiter."""
        f = np.zeros(64)
        f[20:40] = 1.0
        adv = Mp5Rk3Advector(use_mp=False)
        g = f.copy()
        for _ in range(50):
            g = adv.step(g, MP5_RK3_MAX_CFL, 0)
        assert g.max() > 1.0 + 1e-3 or g.min() < -1e-3

    def test_negative_velocity_mirror(self, rng):
        f = rng.random(48)
        adv = Mp5Rk3Advector()
        a = adv.step(f, 0.2, 0)[::-1]
        b = adv.step(f[::-1].copy(), -0.2, 0)
        assert np.allclose(a, b, atol=1e-12)

    def test_zero_bc(self):
        x = np.linspace(-4, 4, 64)
        f = np.exp(-(x**2))
        adv = Mp5Rk3Advector()
        g = f.copy()
        for _ in range(120):
            g = adv.step(g, 0.5, 0, bc="zero")
        assert g[:5].max() < 1e-9  # nothing wrapped around
        assert g.sum() < f.sum()  # outflow


class TestCostAccounting:
    def test_three_flux_evaluations_per_step(self, rng):
        """The paper's §5.2 cost claim: RK3 needs 3 flux evaluations per
        step where SL-MPP5 needs exactly 1."""
        adv = Mp5Rk3Advector()
        adv.step(rng.random(32), 0.1, 0)
        assert adv.flux_evaluations == 3

    def test_subcycling_counts(self, rng):
        """Covering a shift of 1.0 at the monotone CFL limit costs
        ceil(1/0.2) * 3 = 15 flux evaluations; SL-MPP5 covers it in 1."""
        adv = Mp5Rk3Advector()
        adv.advance(rng.random(32), 1.0, 0)
        assert adv.flux_evaluations == 15

    def test_cfl_rejected_above_one(self, rng):
        adv = Mp5Rk3Advector()
        with pytest.raises(ValueError):
            adv.step(rng.random(32), 1.5, 0)
