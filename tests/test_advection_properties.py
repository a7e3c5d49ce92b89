"""Property-based tests of the advection invariants (hypothesis).

These are the mathematical guarantees of the SL-MPP5 scheme the paper
relies on: exact conservation, positivity at any CFL, no spurious
extrema, and the structural symmetries of the flux machinery.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.advection import advect

schemes_all = st.sampled_from(
    ["upwind1", "slp3", "slp5", "slp7", "slmpp3", "slmpp5", "slmpp7"]
)
schemes_pp = st.sampled_from(["upwind1", "slmpp3", "slmpp5", "slmpp7"])
shifts = st.floats(-4.0, 4.0, allow_nan=False)
seeds = st.integers(0, 2**31 - 1)


def random_field(seed: int, n: int = 48) -> np.ndarray:
    r = np.random.default_rng(seed)
    kind = seed % 3
    if kind == 0:
        return r.random(n)
    if kind == 1:  # smooth positive
        x = np.linspace(0, 2 * np.pi, n, endpoint=False)
        return 1.5 + np.sin(x) + 0.3 * np.cos(3 * x + r.uniform(0, 6))
    f = np.zeros(n)  # sparse spikes
    f[r.integers(0, n, 5)] = r.random(5) * 10
    return f


class TestConservation:
    @given(seeds, shifts, schemes_all)
    @settings(max_examples=120, deadline=None)
    def test_mass_exactly_conserved_periodic(self, seed, shift, scheme):
        f = random_field(seed)
        out = advect(f, shift, 0, scheme=scheme)
        assert out.sum() == pytest.approx(f.sum(), rel=1e-11, abs=1e-11)

    @given(seeds, st.floats(-0.95, 0.95), schemes_all)
    @settings(max_examples=60, deadline=None)
    def test_mass_conserved_zero_bc_with_interior_support(self, seed, shift, scheme):
        n = 64
        r = np.random.default_rng(seed)
        f = np.zeros(n)
        f[20:44] = r.random(24)
        out = advect(f, shift, 0, scheme=scheme, bc="zero")
        assert out.sum() == pytest.approx(f.sum(), rel=1e-9, abs=1e-12)


class TestPositivity:
    @given(seeds, shifts, schemes_pp)
    @settings(max_examples=120, deadline=None)
    def test_nonnegative_stays_nonnegative(self, seed, shift, scheme):
        f = random_field(seed)
        assert np.all(f >= 0)
        out = advect(f, shift, 0, scheme=scheme)
        assert out.min() >= -1e-10 * max(f.max(), 1.0)

    @given(seeds, st.floats(0.05, 3.95))
    @settings(max_examples=40, deadline=None)
    def test_positivity_survives_many_steps(self, seed, shift):
        f = random_field(seed)
        g = f
        for _ in range(10):
            g = advect(g, shift, 0, scheme="slmpp5")
        assert g.min() >= -1e-8 * max(f.max(), 1.0)


class TestMonotonicity:
    @given(seeds, st.floats(-2.95, 2.95))
    @settings(max_examples=80, deadline=None)
    def test_no_new_extrema_on_step_data(self, seed, shift):
        """Advecting a step never overshoots its range (MP property)."""
        r = np.random.default_rng(seed)
        lo, hi = sorted(r.uniform(0, 5, 2))
        f = np.full(64, lo)
        f[16:40] = hi
        g = f
        for _ in range(5):
            g = advect(g, shift, 0, scheme="slmpp5")
        span = max(hi - lo, 1e-12)
        assert g.max() <= hi + 1e-5 * span
        assert g.min() >= lo - 1e-5 * span

    @pytest.mark.parametrize("shift", [2.0**-24, 1e-10, 1e-15])
    def test_sub_floor_alpha_stays_monotone(self, shift):
        """Issue regression: fractional shifts below the limiter's old
        1e-7 rescale floor inflated the flux by up to floor/alpha — the
        MP clamp pulled u back into physical bounds but the re-multiply
        used the floored alpha, so a step profile grew ~1e-7 of overshoot
        per application.  The flux must rescale by the *true* alpha."""
        lo, hi = 3.803, 3.835
        f = np.full(64, lo)
        f[16:40] = hi
        g = f
        for _ in range(5):
            g = advect(g, shift, 0, scheme="slmpp5")
        span = hi - lo
        assert g.max() <= hi + 1e-5 * span
        assert g.min() >= lo - 1e-5 * span

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_triangular_profile_bounded(self, seed):
        """A triangular wave develops at most the small O(h^2) excursions
        the MP curvature relaxation deliberately allows at extrema
        (Suresh & Huynh trade strict TVD for accuracy at smooth peaks);
        positivity stays strict."""
        r = np.random.default_rng(seed)
        n = 64
        f = np.concatenate([np.linspace(0, 1, n // 2), np.linspace(1, 0, n // 2)])
        g = f
        for _ in range(8):
            g = advect(g, float(r.uniform(0.1, 0.9)), 0, scheme="slmpp5")
        assert g.max() <= 1.0 + 0.01  # <= 1% apex excursion
        assert g.min() >= -1e-10


class TestSymmetries:
    @given(seeds, st.floats(0.05, 2.95), schemes_all)
    @settings(max_examples=60, deadline=None)
    def test_mirror_symmetry(self, seed, shift, scheme):
        """advect(f, s) reversed == advect(f reversed, -s)."""
        f = random_field(seed)
        a = advect(f, shift, 0, scheme=scheme)[::-1]
        b = advect(f[::-1].copy(), -shift, 0, scheme=scheme)
        assert np.allclose(a, b, atol=1e-9)

    @given(seeds, st.integers(-7, 7), st.floats(0.0, 0.999))
    @settings(max_examples=60, deadline=None)
    def test_integer_fraction_decomposition(self, seed, k, alpha):
        """Shift k + alpha == roll by k then shift alpha (exact)."""
        f = random_field(seed)
        a = advect(f, k + alpha, 0, scheme="slp5")
        b = advect(np.roll(f, k), alpha, 0, scheme="slp5")
        assert np.allclose(a, b, atol=1e-10)

    @given(seeds, st.floats(-1.95, 1.95))
    @settings(max_examples=40, deadline=None)
    def test_translation_equivariance(self, seed, shift):
        """Rolling input rolls output (periodic translation symmetry)."""
        f = random_field(seed)
        a = np.roll(advect(f, shift, 0, scheme="slmpp5"), 7)
        b = advect(np.roll(f, 7), shift, 0, scheme="slmpp5")
        assert np.allclose(a, b, atol=1e-9)

    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_zero_shift_identity(self, seed):
        f = random_field(seed)
        for scheme in ("slp5", "slmpp5"):
            assert np.allclose(advect(f, 0.0, 0, scheme=scheme), f, atol=1e-12)


class TestDtypePolicy:
    @given(seeds, st.floats(-1.5, 1.5))
    @settings(max_examples=30, deadline=None)
    def test_float32_preserved(self, seed, shift):
        """The paper's single-precision pipeline: float32 in, float32 out,
        and results consistent with float64 to single precision."""
        f64 = random_field(seed)
        f32 = f64.astype(np.float32)
        out32 = advect(f32, shift, 0, scheme="slmpp5")
        out64 = advect(f64, shift, 0, scheme="slmpp5")
        assert out32.dtype == np.float32
        assert np.allclose(out32, out64, atol=5e-5 * max(f64.max(), 1.0))
