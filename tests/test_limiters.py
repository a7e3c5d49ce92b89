"""MP limiter machinery: minmod, bounds, flux-form limiting.

The library computes minmod without ``np.sign``, evaluates both MP
intervals of a donor (its right interface's and the mirrored one of its
left) on a window of planes with every interface term formed once, and
limits the donated mass ``phi = alpha * u`` itself.  The kernel built on
them is held bitwise to ``tests/rows_last_reference.py``
(``tests/test_layout_engine.py``); here the pieces are held to the
five-array :func:`mp_bounds` and to the properties the scheme rests on:
the interval contains the donor, and the limited flux keeps both the
donated and the remaining average inside their MP intervals for any
``alpha`` in [0, 1].
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.limiters import (
    _window_bounds,
    clamp_scratch,
    median3,
    minmod,
    minmod4,
    minmod4_into,
    minmod_into,
    mp_bounds,
    mp_limit_flux,
    mp_limit_interface,
    mp_scratch,
    positivity_clamp_fraction,
    weno_smoothness,
)
from repro.perf.arena import ScratchArena

from .conftest import adversarial_fields
from .rows_last_reference import mp_bounds_rolled

finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


def stencil_of(cells):
    """The five neighbor arrays of the donor planes ``cells[2:-2]``."""
    count = cells.shape[0] - 4
    return np.stack([cells[m : m + count] for m in range(5)])


def both_bounds(stencil):
    """:func:`mp_bounds` of the right interface, then of the mirror."""
    return mp_bounds(stencil) + mp_bounds(stencil[::-1])


class TestSignFreeForms:
    @pytest.mark.smoke
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_into_forms_are_the_allocating_forms(self, dtype):
        for name, f in adversarial_fields((4, 6, 40), dtype):
            a, b, c, d = f
            out, w1, w2 = (np.empty_like(a) for _ in range(3))
            assert minmod_into(out, a, b, w1) is out
            assert out.tobytes() == minmod(a, b).tobytes(), name
            assert minmod4_into(out, a, b, c, d, w1, w2) is out
            assert out.tobytes() == minmod4(a, b, c, d).tobytes(), name

    @pytest.mark.parametrize("pad", [0, 4])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_roll_family_entry_is_bitwise_the_general_one(self, dtype, pad):
        """Stencils gathered by rolling one row (periodic, or a row with
        zero ghost cells as the ``zero`` BC builds it): the reference's
        roll-family intervals, right and mirrored, are bitwise the general
        five-array ones, and the intervals the kernel evaluates on
        wrap-extended planes are bitwise both."""
        rng = np.random.default_rng(8)
        row = rng.standard_normal((6, 23)).astype(dtype)
        row[:, :pad] = 0.0
        row[:, row.shape[1] - pad:] = 0.0
        st5 = np.stack([np.roll(row, -m, axis=-1) for m in range(-2, 3)])
        cells = np.concatenate([row[:, -2:], row, row[:, :2]], axis=1).T
        rolled = mp_bounds_rolled(st5)
        windowed = _window_bounds(mp_scratch(cells))
        for got, want in zip(rolled, both_bounds(st5)):
            assert got.tobytes() == want.tobytes()
        for got, want in zip(windowed, rolled):
            assert got.T.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_windowed_interval_on_adversarial_planes(self, dtype):
        """On zeros of both signs, ties and sub-normals the shared
        intervals evaluated on a window of planes stay bitwise the
        roll-family ones and ``==`` the general five-array ones (a zero
        bound may differ in sign), right and mirrored, and bitwise with
        and without an arena."""
        arena = ScratchArena()
        for name, f in adversarial_fields((27, 6, 5), dtype):
            general = both_bounds(stencil_of(f))
            # a window never wraps; on cells whose neighbors are all inside
            # it, neither does the roll family of the 27-cell ring
            ring = np.moveaxis(f, 0, -1)
            rolled = mp_bounds_rolled(
                np.stack([np.roll(ring, -m, axis=-1) for m in range(-2, 3)])
            )
            plain = [b.tobytes() for b in _window_bounds(mp_scratch(f))]
            pooled = _window_bounds(mp_scratch(f, arena))
            for got, bits, want, ref in zip(pooled, plain, general, rolled):
                assert got.tobytes() == bits, name
                assert np.array_equal(got, want), name
                inside = np.moveaxis(ref, -1, 0)[2:-2]
                assert got.tobytes() == inside.tobytes(), name


class TestMinmod:
    @given(finite, finite)
    def test_minmod_properties(self, a, b):
        m = float(minmod(np.float64(a), np.float64(b)))
        if a == 0.0 or b == 0.0 or np.sign(a) != np.sign(b):
            assert m == 0.0
        else:
            assert abs(m) == pytest.approx(min(abs(a), abs(b)))
            assert np.sign(m) == np.sign(a)

    def test_minmod4_zero_on_sign_disagreement(self):
        assert minmod4(
            np.float64(1.0), np.float64(-1.0), np.float64(2.0), np.float64(3.0)
        ) == 0.0

    def test_minmod4_takes_smallest(self):
        m = minmod4(np.float64(3.0), np.float64(1.0), np.float64(2.0), np.float64(4.0))
        assert m == pytest.approx(1.0)

    @given(finite, finite, finite)
    def test_median3_is_median(self, x, lo, hi):
        # x + (lo - x) suffers catastrophic cancellation when lo ~ -x, so
        # the achievable agreement is ~eps * max magnitude
        m = float(median3(np.float64(x), np.float64(lo), np.float64(hi)))
        scale = max(abs(x), abs(lo), abs(hi), 1.0)
        assert m == pytest.approx(
            float(np.median([x, lo, hi])), abs=1e-12 * scale
        )


class TestMpBounds:
    def test_bounds_contain_donor(self, rng):
        st5 = rng.standard_normal((5, 100))
        lo, hi = mp_bounds(st5)
        assert np.all(lo <= st5[2] + 1e-12)
        assert np.all(hi >= st5[2] - 1e-12)

    def test_smooth_monotone_data_interface_untouched(self):
        # on smooth increasing data the order-5 interface value is inside
        x = np.linspace(0, 1, 9)
        f = np.sin(x)  # smooth, monotone on [0,1]
        st5 = np.stack([f[m : m + 5] for m in range(5)])  # sliding stencils? build properly
        # build canonical stencils around cells 2..4
        stencils = np.stack([f[i - 2 : i + 3] for i in range(2, 7)], axis=1)
        from repro.core.stencil import edge_value_coefficients

        coef = edge_value_coefficients(5)
        f_if = (coef[:, None] * stencils).sum(axis=0)
        limited = mp_limit_interface(f_if, stencils)
        assert np.allclose(limited, f_if)

    def test_interface_clipped_at_discontinuity(self):
        # a step: the unlimited interface value can overshoot; MP clips it
        f = np.array([0.0, 0.0, 1.0, 1.0, 1.0])
        st5 = f.reshape(5, 1)
        bad_value = np.array([1.4])
        limited = mp_limit_interface(bad_value, st5)
        assert limited[0] <= 1.0 + 1e-12


class TestDepartureAverageLimiter:
    def test_exact_at_alpha_one(self, rng):
        # at alpha = 1 the only admissible donation is the whole donor
        st5 = rng.standard_normal((5, 50))
        phi = rng.standard_normal(50) * 10
        out = mp_limit_flux(phi, np.float64(1.0), mp_scratch(st5))
        assert np.array_equal(out, st5[2:3])  # one plane of 50 donors

    def test_identity_for_in_bounds_values(self, rng):
        st5 = np.sort(rng.standard_normal((5, 50)), axis=0)  # monotone stencils
        # donating the donor average itself is always admissible
        phi = 0.4 * st5[2]
        out = mp_limit_flux(phi.copy(), np.float64(0.4), mp_scratch(st5))
        assert np.allclose(out, phi, atol=1e-10)

    @given(st.integers(0, 2**31 - 1), st.floats(0.01, 0.99))
    @settings(max_examples=50, deadline=None)
    def test_update_stays_in_mp_envelope(self, seed, alpha):
        """The defining invariant: with phi_j limited, both the departure
        average and the remainder average stay inside the MP interval."""
        r = np.random.default_rng(seed)
        st5 = r.standard_normal((5, 20))
        phi = r.standard_normal(20) * 5
        out = mp_limit_flux(phi, np.float64(alpha), mp_scratch(st5))
        f0 = st5[2]
        b_lo, b_hi, bm_lo, bm_hi = both_bounds(st5)
        u = out / alpha
        w = (f0 - out) / (1.0 - alpha)
        eps = 1e-7 * (1 + np.abs(st5).max())
        assert np.all(u >= b_lo - eps) and np.all(u <= b_hi + eps)
        assert np.all(w >= bm_lo - eps) and np.all(w <= bm_hi + eps)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("alpha", [0.0, 1e-9, 0.3, 1.0])
    def test_flux_form_keeps_both_averages_in_their_intervals(
        self, rng, alpha, dtype
    ):
        """No division and no special case: for any alpha in [0, 1] the
        donated average ``phi / alpha`` and the remainder ``(f0 - phi) /
        (1 - alpha)`` stay inside their MP intervals, wherever each is
        defined, and alpha = 0 donates exactly nothing."""
        st5 = rng.standard_normal((5, 400)).astype(dtype)
        st5[:, ::7] = np.sort(st5[:, ::7], axis=0)  # monotone stencils too
        phi = (rng.standard_normal(400) * 3).astype(dtype)
        a = dtype(alpha)
        out = mp_limit_flux(phi, a, mp_scratch(st5))
        assert out.dtype == dtype
        f0 = st5[2]
        b_lo, b_hi, bm_lo, bm_hi = both_bounds(st5)
        if alpha == 0.0:
            assert np.all(out == 0.0)
        eps = 8 * np.finfo(dtype).eps * (1 + np.abs(st5).max())
        if alpha > 0.0:
            # phi's bounds round at the scale of f0, phi / alpha's at that
            # scale over alpha
            u = out.astype(np.float64) / alpha
            slack = eps / alpha
            assert np.all(u >= b_lo - slack) and np.all(u <= b_hi + slack)
        if alpha < 1.0:
            w = (f0.astype(np.float64) - out) / (1.0 - alpha)
            assert np.all(w >= bm_lo - eps) and np.all(w <= bm_hi + eps)


class TestPositivityClamp:
    def test_clamps_to_donor_mass(self):
        phi = np.array([-0.5, 0.3, 2.0])
        donor = np.array([1.0, 1.0, 1.0])
        out = positivity_clamp_fraction(phi, clamp_scratch(phi, donor))
        assert np.allclose(out, [0.0, 0.3, 1.0])

    def test_negative_donor_gives_zero(self):
        phi, donor = np.array([0.5]), np.array([-1.0])
        out = positivity_clamp_fraction(phi, clamp_scratch(phi, donor))
        assert out[0] == 0.0

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_never_exceeds_donor(self, seed):
        r = np.random.default_rng(seed)
        phi = r.standard_normal(50)
        donor = np.abs(r.standard_normal(50))
        out = positivity_clamp_fraction(phi, clamp_scratch(phi, donor))
        assert np.all(out >= 0.0)
        assert np.all(out <= donor + 1e-12)


class TestWenoSmoothness:
    def test_zero_for_constant_data(self):
        st5 = np.ones((5, 10))
        assert np.allclose(weno_smoothness(st5), 0.0)

    def test_detects_discontinuity(self):
        smooth = np.linspace(0, 1, 5).reshape(5, 1)
        jump = np.array([0.0, 0.0, 0.0, 1.0, 1.0]).reshape(5, 1)
        b_smooth = weno_smoothness(smooth)
        b_jump = weno_smoothness(jump)
        # the sub-stencil containing the jump is much rougher (linear data
        # carries only the small first-derivative term of beta)
        assert b_jump[2] > 30 * b_smooth[2] + 1e-12

    def test_requires_five_cells(self):
        with pytest.raises(ValueError):
            weno_smoothness(np.ones((3, 4)))
