"""MP limiter machinery: minmod, bounds, departure-average limiting.

The library computes minmod without ``np.sign`` and evaluates the MP
limiter's curvatures once per cell of a window of planes, neighbors
reading them as views.  The Suresh-Huynh sign forms live here as the
oracle: the new forms must equal them in value (a zero may differ in
sign), and the advection kernel built on them must equal, bit for bit,
the kernel built on the oracle.  The kernel's limiter tail runs in
pooled scratch; its allocating composition (:func:`allocating_tail`)
is the second oracle here, held to the same bitwise bar.  Both are
installed over the names the kernel calls, and count their calls: an
oracle nobody reaches would compare the kernel with itself.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import advection
from repro.core.advection import stencil_reach
from repro.core.limiters import (
    _mp_interval,
    median3,
    minmod,
    minmod4,
    minmod4_into,
    minmod_into,
    mp_bounds,
    mp_limit_departure_average,
    mp_limit_interface,
    positivity_clamp_fraction,
    weno_smoothness,
)

from .conftest import adversarial_fields, mixed_sign_shifts
from .rows_last_reference import mp_bounds_rolled

finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


# ----------------------------------------------------------------------
# the oracle: Suresh & Huynh's sign forms, and the limiter built on them
# ----------------------------------------------------------------------


def minmod_sign(a, b):
    return 0.5 * (np.sign(a) + np.sign(b)) * np.minimum(np.abs(a), np.abs(b))


def minmod4_sign(a, b, c, d):
    sgn = 0.125 * (np.sign(a) + np.sign(b)) * np.abs(
        (np.sign(a) + np.sign(c)) * (np.sign(a) + np.sign(d))
    )
    return sgn * np.minimum(
        np.minimum(np.abs(a), np.abs(b)), np.minimum(np.abs(c), np.abs(d))
    )


def mp_bounds_sign(stencil, alpha_mp=4.0):
    fm2, fm1, f0, fp1, fp2 = (stencil[m] for m in range(5))
    d_m1 = fm2 - 2.0 * fm1 + f0
    d_0 = fm1 - 2.0 * f0 + fp1
    d_p1 = f0 - 2.0 * fp1 + fp2
    dm4_p = minmod4_sign(4.0 * d_0 - d_p1, 4.0 * d_p1 - d_0, d_0, d_p1)
    dm4_m = minmod4_sign(4.0 * d_0 - d_m1, 4.0 * d_m1 - d_0, d_0, d_m1)
    f_ul = f0 + alpha_mp * (f0 - fm1)
    f_md = 0.5 * (f0 + fp1) - 0.5 * dm4_p
    f_lc = f0 + 0.5 * (f0 - fm1) + (4.0 / 3.0) * dm4_m
    f_min = np.maximum(
        np.minimum(np.minimum(f0, fp1), f_md), np.minimum(np.minimum(f0, f_ul), f_lc)
    )
    f_max = np.minimum(
        np.maximum(np.maximum(f0, fp1), f_md), np.maximum(np.maximum(f0, f_ul), f_lc)
    )
    return f_min, f_max


def stencil_of(cells):
    """The five neighbor arrays of the donor planes ``cells[2:-2]``."""
    count = cells.shape[0] - 4
    return np.stack([cells[m : m + count] for m in range(5)])


def departure_average_sign(u, alpha, cells, alpha_mp=4.0, **_):
    stencil = stencil_of(cells)
    f0 = stencil[2]
    b_min, b_max = mp_bounds_sign(stencil, alpha_mp)
    bm_min, bm_max = mp_bounds_sign(stencil[::-1], alpha_mp)
    safe_alpha = np.maximum(alpha, np.asarray(1.0e-7, dtype=u.dtype))
    lo = np.maximum(b_min, (f0 - (1.0 - alpha) * bm_max) / safe_alpha)
    hi = np.minimum(b_max, (f0 - (1.0 - alpha) * bm_min) / safe_alpha)
    return u + minmod_sign(lo - u, hi - u)


def clamp_clip(phi, donor, **_):
    return np.clip(phi, 0.0, np.maximum(donor, 0.0))


def _quads(dtype):
    """Four operand arrays per adversarial input kind."""
    for name, f in adversarial_fields((4, 6, 40), dtype):
        yield name, tuple(f)


class TestSignFreeForms:
    @pytest.mark.smoke
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_minmod_forms_equal_the_sign_forms(self, dtype):
        for name, (a, b, c, d) in _quads(dtype):
            # == : a zero of either sign is the same value
            assert np.array_equal(minmod(a, b), minmod_sign(a, b)), name
            assert np.array_equal(
                minmod4(a, b, c, d), minmod4_sign(a, b, c, d)
            ), name
            out, w1, w2 = (np.empty_like(a) for _ in range(3))
            assert minmod_into(out, a, b, w1) is out
            assert np.array_equal(out, minmod_sign(a, b)), name
            assert minmod4_into(out, a, b, c, d, w1, w2) is out
            assert np.array_equal(out, minmod4_sign(a, b, c, d)), name

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bounds_equal_the_sign_form_bounds(self, dtype):
        for name, f in adversarial_fields((5, 6, 40), dtype):
            for got, want in zip(mp_bounds(f), mp_bounds_sign(f)):
                assert np.array_equal(got, want), name

    @pytest.mark.parametrize("pad", [0, 4])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_roll_family_entry_is_bitwise_the_general_one(self, dtype, pad):
        """Stencils gathered by rolling one row (periodic, or a row with
        zero ghost cells as the ``zero`` BC builds it), right and mirrored:
        the roll-family entry the kernel used (now the reference's) is
        bitwise the general five-array one, and the interval the kernel
        evaluates on wrap-extended planes is bitwise both."""
        rng = np.random.default_rng(8)
        row = rng.standard_normal((6, 23)).astype(dtype)
        row[:, :pad] = 0.0
        row[:, row.shape[1] - pad:] = 0.0
        st5 = np.stack([np.roll(row, -m, axis=-1) for m in range(-2, 3)])
        cells = np.concatenate([row[:, -2:], row, row[:, :2]], axis=1).T
        for stencil, roll, planes in ((st5, 1, cells), (st5[::-1], -1, cells[::-1])):
            rolled = mp_bounds_rolled(stencil, roll)
            windowed = _mp_interval(planes, 4.0, None, ("t",))
            for got, want in zip(rolled, mp_bounds(stencil)):
                assert got.tobytes() == want.tobytes()
            for got, want in zip(windowed, rolled):
                # the mirrored window lists its donors right to left
                assert got[::roll].T.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_windowed_interval_on_adversarial_planes(self, dtype):
        """On zeros of both signs, ties and sub-normals the interval
        evaluated on a window of planes stays bitwise the roll-family
        entry and ``==`` the general five-array one (a zero bound may
        differ in sign), right and mirrored, with and without an arena."""
        from repro.perf.arena import ScratchArena

        arena = ScratchArena()
        for name, f in adversarial_fields((27, 6, 5), dtype):
            st5 = stencil_of(f)
            # a window never wraps; on cells whose neighbors are all inside
            # it, neither does the roll family of the 27-cell ring
            ring = np.moveaxis(f, 0, -1)
            ring5 = np.stack([np.roll(ring, -m, axis=-1) for m in range(-2, 3)])
            for planes, stencil, rolls, roll in (
                (f, st5, ring5, 1), (f[::-1], st5[::-1], ring5[::-1], -1)
            ):
                rolled = mp_bounds_rolled(rolls, roll)
                for pool in (None, arena):
                    windowed = _mp_interval(planes, 4.0, pool, ("t",))
                    for got, want, ref in zip(windowed, mp_bounds(stencil), rolled):
                        got = got[::roll]
                        assert np.array_equal(got, want), name
                        inside = np.moveaxis(ref, -1, 0)[2:-2]
                        assert got.tobytes() == inside.tobytes(), name


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("bc", ["periodic", "zero"])
@pytest.mark.parametrize("scheme", [
    "slmpp3", pytest.param("slmpp5", marks=pytest.mark.smoke), "slmpp7",
])
def test_kernel_bits_are_those_of_the_sign_form_limiter(
    monkeypatch, scheme, bc, dtype
):
    """``advect`` on the sign-free, rolled limiter is bitwise ``advect``
    on the Suresh-Huynh sign-form limiter and ``np.clip``: a zero of the
    other sign never reaches the flux."""
    shape = (7, 5, 9)
    calls = []

    def counted(oracle):
        def call(*args, **kw):
            calls.append(oracle)
            return oracle(*args, **kw)
        return call

    for axis in (0, 2):
        for sname, sh in mixed_sign_shifts(shape, axis):
            for fname, f in adversarial_fields(shape, dtype):
                got = advection.advect(f, sh, axis, scheme=scheme, bc=bc)
                del calls[:]
                with monkeypatch.context() as patch:
                    patch.setattr(advection, "mp_limit_departure_average",
                                  counted(departure_average_sign))
                    patch.setattr(advection, "positivity_clamp_fraction",
                                  counted(clamp_clip))
                    want = advection.advect(f, sh, axis, scheme=scheme, bc=bc)
                assert {departure_average_sign, clamp_clip} == set(calls)
                assert got.tobytes() == want.tobytes(), (
                    f"{scheme}/{bc}/{np.dtype(dtype).name} axis {axis} "
                    f"{sname} {fname}"
                )


def allocating_tail(unlimited, calls):
    """The kernel's MP/positivity tail in its allocating composition:
    every temporary a fresh array, no arena — the reference the pooled
    ufunc-for-ufunc form in ``_fractional_flux`` must reproduce.  Takes
    what the kernel passes: the donor planes with ``stencil_reach(spec)``
    neighbor planes on each side."""

    def fractional_flux(cells, alpha, spec, arena=None):
        calls.append(spec)
        plain = spec._replace(use_mp=False, use_pos=False)
        reach = stencil_reach(spec)
        trim = reach - stencil_reach(plain)  # the MP limiter's extra planes
        phi = unlimited(cells[trim : cells.shape[0] - trim], alpha, plain, arena)
        if spec.use_mp:
            pos = alpha > 0.0
            safe_alpha = np.where(pos, alpha, np.asarray(1.0, dtype=cells.dtype))
            u = phi / safe_alpha
            u = mp_limit_departure_average(
                u, alpha, cells[reach - 2 : cells.shape[0] - reach + 2])
            phi = np.where(pos, safe_alpha * u, phi)
        if spec.use_pos:
            phi = positivity_clamp_fraction(phi, cells[reach : cells.shape[0] - reach])
        return phi

    return fractional_flux


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("bc", ["periodic", "zero"])
@pytest.mark.parametrize("scheme", [
    "slmpp3", pytest.param("slmpp5", marks=pytest.mark.smoke), "slmpp7",
])
def test_kernel_bits_are_those_of_the_allocating_limiter(
    monkeypatch, scheme, bc, dtype
):
    """``advect``'s pooled limiter tail (quotient, limiter temporaries,
    masked recombination, clamp — all in arena scratch) is bitwise the
    allocating composition."""
    from repro.perf.arena import ScratchArena

    shape = (7, 5, 9)
    arena = ScratchArena()
    calls = []
    tail = allocating_tail(advection._fractional_flux, calls)
    for axis in (0, 2):
        for sname, sh in mixed_sign_shifts(shape, axis):
            for fname, f in adversarial_fields(shape, dtype):
                got = advection.advect(f, sh, axis, scheme=scheme, bc=bc,
                                       arena=arena)
                del calls[:]
                with monkeypatch.context() as patch:
                    patch.setattr(advection, "_fractional_flux", tail)
                    want = advection.advect(f, sh, axis, scheme=scheme, bc=bc)
                assert calls
                assert got.tobytes() == want.tobytes(), (
                    f"{scheme}/{bc}/{np.dtype(dtype).name} axis {axis} "
                    f"{sname} {fname}"
                )


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
        # at alpha = 1 the only admissible average is the donor average
        st5 = rng.standard_normal((5, 50))
        u = rng.standard_normal(50) * 10
        out = mp_limit_departure_average(u, np.float64(1.0), st5)
        assert np.allclose(out, st5[2], atol=1e-5)

    def test_identity_for_in_bounds_values(self, rng):
        st5 = np.sort(rng.standard_normal((5, 50)), axis=0)  # monotone stencils
        # donor average itself is always admissible
        f0 = st5[2]
        out = mp_limit_departure_average(f0.copy(), np.float64(0.4), st5)
        assert np.allclose(out, f0, atol=1e-10)

    @given(st.integers(0, 2**31 - 1), st.floats(0.01, 0.99))
    @settings(max_examples=50, deadline=None)
    def test_update_stays_in_mp_envelope(self, seed, alpha):
        """The defining invariant: with u_j limited, both the departure
        average and the remainder average stay inside the MP interval."""
        r = np.random.default_rng(seed)
        st5 = r.standard_normal((5, 20))
        u = r.standard_normal(20) * 5
        out = mp_limit_departure_average(u, np.float64(alpha), st5)
        f0 = st5[2]
        b_lo, b_hi = mp_bounds(st5)
        bm_lo, bm_hi = mp_bounds(st5[::-1])
        w = (f0 - alpha * out) / (1.0 - alpha)
        eps = 1e-7 * (1 + np.abs(st5).max())
        assert np.all(out >= b_lo - eps) and np.all(out <= b_hi + eps)
        assert np.all(w >= bm_lo - eps) and np.all(w <= bm_hi + eps)


class TestPositivityClamp:
    def test_clamps_to_donor_mass(self):
        phi = np.array([-0.5, 0.3, 2.0])
        donor = np.array([1.0, 1.0, 1.0])
        out = positivity_clamp_fraction(phi, donor)
        assert np.allclose(out, [0.0, 0.3, 1.0])

    def test_negative_donor_gives_zero(self):
        out = positivity_clamp_fraction(np.array([0.5]), np.array([-1.0]))
        assert out[0] == 0.0

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_never_exceeds_donor(self, seed):
        r = np.random.default_rng(seed)
        phi = r.standard_normal(50)
        donor = np.abs(r.standard_normal(50))
        out = positivity_clamp_fraction(phi, donor)
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
