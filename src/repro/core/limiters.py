"""Monotonicity- and positivity-preserving limiters.

Implements the MP (monotonicity-preserving) interface-value limiter of
Suresh & Huynh (1997) [paper ref. 22] adapted to the conservative
semi-Lagrangian flux of the SL-MPP5 scheme (paper §5.2, ref. [23]), plus
the explicit positivity clamp on the donated fractional mass.  The
SL-MPP limit acts on the donated mass ``phi = alpha * u`` itself
(:func:`mp_limit_flux`): the two MP intervals a donor cell's update must
respect, that of its right interface and the mirrored one of its left,
multiply out into one interval for ``phi``.

All functions are shape-polymorphic.  A *stencil* is five arrays, entry
``m + 2`` holding the cell average ``fbar_{j+m}`` of the donor-cell
neighborhood.  The advection kernel works on *planes* instead — cell
averages with the advected axis leading, ``cells[c]`` one cell of every
row — where the neighbor ``j + m`` of all donor cells at once is the
slice ``cells[2 + m : 2 + m + L]``, and a stencil is the ``L = 1`` case.
On planes, neighboring donors share their interfaces, and the right and
mirrored intervals share every interface term (:func:`_window_bounds`).
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np


def _take(arena, key, shape, dtype):
    """Pooled scratch when an arena is supplied, a fresh array otherwise.

    The pooled limiter paths below replay their allocating expressions
    ufunc for ufunc into these buffers — elementwise ops with identical
    inputs produce identical bits wherever they land, so pooling changes
    wall clock and allocator traffic only (the same contract as
    :mod:`repro.core.advection`'s ``_scratch``).
    """
    if arena is None:
        return np.empty(shape, dtype=dtype)
    return arena.take(key, shape, dtype)


def minmod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Two-argument minmod: the smaller-magnitude one if signs agree, else 0.

    Written without ``np.sign``: ``max(0, min(a, b)) + min(0, max(a, b))``
    — one of the two terms is always zero.  Value-equal to the
    Suresh-Huynh form ``0.5 (sgn a + sgn b) min(|a|, |b|)``; a zero
    result may carry the other sign.
    """
    return np.maximum(np.minimum(a, b), 0.0) + np.minimum(np.maximum(a, b), 0.0)


def minmod4(a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Four-argument minmod (Suresh & Huynh Eq. 2.26), in the same
    sign-free form as :func:`minmod`."""
    lo = np.minimum(np.minimum(a, b), np.minimum(c, d))
    hi = np.maximum(np.maximum(a, b), np.maximum(c, d))
    return np.maximum(lo, 0.0) + np.minimum(hi, 0.0)


def minmod_into(out, a, b, w) -> np.ndarray:
    """:func:`minmod` replayed into caller scratch, term for term.

    ``out`` and ``w`` must not alias ``a`` or ``b``.
    """
    np.minimum(a, b, out=out)
    np.maximum(a, b, out=w)
    np.maximum(out, 0.0, out=out)
    np.minimum(w, 0.0, out=w)
    np.add(out, w, out=out)
    return out


def minmod4_into(out, a, b, c, d, w1, w2) -> np.ndarray:
    """:func:`minmod4` replayed into caller scratch, term for term.

    ``out``/``w1``/``w2`` must not alias any of ``a``..``d``.
    """
    np.minimum(a, b, out=out)
    np.minimum(c, d, out=w1)
    np.minimum(out, w1, out=out)            # lo
    np.maximum(a, b, out=w1)
    np.maximum(c, d, out=w2)
    np.maximum(w1, w2, out=w1)              # hi
    np.maximum(out, 0.0, out=out)
    np.minimum(w1, 0.0, out=w1)
    np.add(out, w1, out=out)
    return out


def median3(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Median of three values, written as x + minmod(lo - x, hi - x)."""
    return x + minmod(lo - x, hi - x)


def mp_limit_interface(
    f_interface: np.ndarray,
    stencil: np.ndarray,
    alpha_mp: float = 4.0,
    eps: float = 0.0,
) -> np.ndarray:
    """Apply the Suresh-Huynh MP constraint to an interface value.

    The flow is rightward out of donor cell j; ``stencil`` holds the five
    cell averages ``(f_{j-2}, f_{j-1}, f_j, f_{j+1}, f_{j+2})`` stacked on
    axis 0.  ``f_interface`` is the unlimited interface (departure-interval
    average) value produced by the semi-Lagrangian reconstruction.

    Returns the limited interface value: unchanged wherever the data are
    smooth and monotone (the O(dx^5) accuracy is preserved there), clipped
    into the MP bounds near discontinuities/extrema.

    Parameters
    ----------
    f_interface:
        Unlimited interface value(s).
    stencil:
        Array of shape ``(5,) + f_interface.shape``.
    alpha_mp:
        The MP "alpha" parameter bounding the allowed overshoot relative to
        the upwind slope; Suresh & Huynh recommend 4.
    eps:
        Tolerance in the smoothness test; 0 enforces strict bounds.
    """
    if stencil.shape[0] != 5:
        raise ValueError("MP limiter needs a 5-cell stencil")
    fm2, fm1, f0, fp1, fp2 = (stencil[m] for m in range(5))

    f_mp = f0 + minmod(fp1 - f0, alpha_mp * (f0 - fm1))
    need = (f_interface - f0) * (f_interface - f_mp) > eps

    if not np.any(need):
        return f_interface

    f_min, f_max = mp_bounds(stencil, alpha_mp)
    limited = median3(f_interface, f_min, f_max)
    return np.where(need, limited, f_interface)


def mp_bounds(stencil: np.ndarray, alpha_mp: float = 4.0) -> tuple[np.ndarray, np.ndarray]:
    """Suresh-Huynh MP interval [f_min, f_max] for rightward flow.

    The interval always contains the donor average ``f_j``; near smooth
    extrema the curvature terms (f_MD, f_LC) widen it so that limiting does
    not degrade the formal order of accuracy, while at discontinuities it
    collapses to the local data range.

    This is the entry for five arbitrary arrays.  The advection kernel
    evaluates both intervals of whole rows of donor cells at once
    (:func:`mp_limit_flux`), where neighboring cells share their
    interface terms; both write the curvature as ``(f_{c-1} + f_{c+1}) -
    2 f_c``, which the mirror ``stencil[::-1]`` leaves unchanged, and
    return the same values (where the terms hold zeros of both signs a
    zero bound may differ in sign).
    """
    fm2, fm1, f0, fp1, fp2 = (stencil[m] for m in range(5))
    d_m1 = (fm2 + f0) - 2.0 * fm1
    d_0 = (fm1 + fp1) - 2.0 * f0
    d_p1 = (f0 + fp2) - 2.0 * fp1
    dm4_p = minmod4(4.0 * d_0 - d_p1, 4.0 * d_p1 - d_0, d_0, d_p1)
    dm4_m = minmod4(4.0 * d_0 - d_m1, 4.0 * d_m1 - d_0, d_0, d_m1)
    f_ul = f0 + alpha_mp * (f0 - fm1)
    f_md = 0.5 * ((f0 + fp1) - dm4_p)
    f_lc = f0 + 0.5 * (f0 - fm1) + (4.0 / 3.0) * dm4_m
    f_min = np.maximum(
        np.minimum(np.minimum(f0, fp1), f_md), np.minimum(np.minimum(f0, f_ul), f_lc)
    )
    f_max = np.minimum(
        np.maximum(np.maximum(f0, fp1), f_md), np.maximum(np.maximum(f0, f_ul), f_lc)
    )
    return f_min, f_max


def mp_scratch(cells, arena=None, tag="mp") -> SimpleNamespace:
    """Every buffer of :func:`mp_limit_flux` on the planes ``cells`` and
    every fixed view the limiter reads, made once (see :func:`_window_bounds`)."""
    if cells.shape[0] < 5:
        raise ValueError("MP limiter needs a 5-cell stencil")
    count, shape, dt = cells.shape[0] - 4, cells.shape[1:], cells.dtype
    d, t = (_take(arena, (tag, name), (count + 2,) + shape, dt) for name in ("d", "t"))
    a, b, m4, w1, w2, e, e4, fmd = (
        _take(arena, (tag, name), (count + 1,) + shape, dt)
        for name in ("a", "b", "m4", "w1", "w2", "e", "e4", "md")
    )
    s = SimpleNamespace(d=d, t=t, a=a, b=b, m4=m4, w1=w1, w2=w2, e=e, e4=e4, fmd=fmd)
    s.f0, s.mid, s.lo, s.hi = cells[2:-2], cells[1:-1], cells[:-2], cells[2:]
    s.left, s.right = cells[1:-2], cells[2:-1]  # the two cells of each interface
    s.d_lo, s.d_hi, s.t_lo, s.t_hi = d[:-1], d[1:], t[:-1], t[1:]
    s.flc = t[:count]
    # per side: f_ul and f_lc terms, (4/3) dM4, the far interface's
    # min/max (in a, b), and the spent buffers that take f_min, f_max
    s.sides = (
        (np.add, e4[:count], e[:count], m4[:count], a[1:], b[1:], w1[:count], d[:count]),
        (np.subtract, e4[1:], e[1:], m4[1:], a[:count], b[:count], fmd[:count], w2[:count]),
    )
    return s


def _window_bounds(s, alpha_mp=4.0):
    """Both MP intervals of the donor cells ``cells[2:-2]``, plane-wise.

    ``s`` is the :func:`mp_scratch` of ``cells``, ``L + 4`` planes: the
    ``L`` donors and two neighbors on each side.  Returns ``(b_min, b_max,
    bm_min, bm_max)``: the interval of each donor's right interface
    (:func:`mp_bounds` of its stencil) and of its left one (``mp_bounds``
    of the mirrored stencil).

    The two share their terms.  The curvature ``d_c = (f_{c-1} + f_{c+1})
    - 2 f_c`` is evaluated once on the ``L + 2`` cells that border a donor
    interface; ``dM4`` (symmetric in its arguments), the first difference
    ``e = f_{c+1} - f_c``, ``f_md`` and ``min/max(f_c, f_{c+1}, f_md)``
    once on the ``L + 1`` interfaces.  Donor ``j`` reads interface ``j +
    1/2`` for its right interval and ``j - 1/2`` for the mirrored one, as
    views:

        right:    f_ul = f_j + 4 e_{j-1/2}
                  f_lc = f_j + e_{j-1/2} / 2 + (4/3) dM4_{j-1/2}
        mirrored: f_ul = f_j - 4 e_{j+1/2}
                  f_lc = f_j - e_{j+1/2} / 2 + (4/3) dM4_{j+1/2}

    Every buffer is pooled scratch, and the donor-sized results are views
    of interface-sized buffers already spent (the next same-tag call
    overwrites them); the bounds are bitwise-identical with or without an
    arena.
    """
    d, t, a, b, m4, e, e4, fmd = s.d, s.t, s.a, s.b, s.m4, s.e, s.e4, s.fmd
    left, right, f0, flc = s.left, s.right, s.f0, s.flc
    np.add(s.lo, s.hi, out=d)
    np.multiply(s.mid, 2.0, out=t)
    np.subtract(d, t, out=d)
    np.multiply(d, 4.0, out=t)
    # dM4 between cells c, c+1: minmod4(4 d_c - d_c+1, 4 d_c+1 - d_c, d_c, d_c+1)
    np.subtract(s.t_lo, s.d_hi, out=a)
    np.subtract(s.t_hi, s.d_lo, out=b)
    minmod4_into(m4, a, b, s.d_lo, s.d_hi, s.w1, s.w2)

    np.subtract(right, left, out=e)
    np.multiply(e, alpha_mp, out=e4)
    np.multiply(e, 0.5, out=e)  # e / 2 from here on
    # f_md = ((f_c + f_c+1) - dM4) / 2, then min/max(f_c, f_c+1, f_md)
    np.add(left, right, out=fmd)
    np.subtract(fmd, m4, out=fmd)
    np.multiply(fmd, 0.5, out=fmd)
    np.multiply(m4, 4.0 / 3.0, out=m4)  # (4/3) dM4 from here on
    a_min, a_max = a, b
    np.minimum(left, right, out=a_min)
    np.minimum(a_min, fmd, out=a_min)
    np.maximum(left, right, out=a_max)
    np.maximum(a_max, fmd, out=a_max)

    # the rest is donor-sized, in the spent buffers; flc holds f_lc per side
    bounds = []
    for op, ul, lc, m4_near, min_far, max_far, f_min, f_max in s.sides:
        op(f0, ul, out=f_max)  # f_ul
        op(f0, lc, out=flc)
        np.add(flc, m4_near, out=flc)  # f_lc
        np.minimum(f0, f_max, out=f_min)
        np.minimum(f_min, flc, out=f_min)
        np.maximum(min_far, f_min, out=f_min)
        np.maximum(f0, f_max, out=f_max)
        np.maximum(f_max, flc, out=f_max)
        np.minimum(max_far, f_max, out=f_max)
        bounds += [f_min, f_max]
    return tuple(bounds)


def mp_limit_flux(
    phi: np.ndarray,
    alpha: np.ndarray,
    s: SimpleNamespace,
    alpha_mp: float = 4.0,
) -> np.ndarray:
    """MP limiting of the semi-Lagrangian fractional flux.

    This is the SL-MPP constraint of the paper's scheme [23]: the
    conservative SL flux donates ``phi = alpha * u`` from donor cell j,
    where ``u`` is the reconstruction average over the rightmost ``alpha``
    fraction of the cell.  The updated cell average is the convex
    combination

        f_i^{n+1} = (1 - alpha) * w_j + alpha * u_{j-1},
        w_j = (f_j - phi_j) / (1 - alpha)   (the remainder average).

    Monotonicity for *any* alpha in [0, 1] therefore follows from keeping
    ``u_j`` inside the MP interval ``[b_min, b_max]`` of cell j's *right*
    interface and ``w_j`` inside the MP interval ``[bm_min, bm_max]`` of
    its *left* interface (the mirrored bounds) — no CFL restriction,
    which is what lets the single-stage scheme run at the advective CFL
    of the whole step.  Multiplied out, the two requirements bound the
    flux itself:

        lo = max(alpha b_min, f_j - (1 - alpha) bm_max)
        hi = min(alpha b_max, f_j - (1 - alpha) bm_min)

    and ``phi`` is clamped into ``[lo, hi]``, never empty in exact
    arithmetic because ``phi = alpha f_j`` satisfies both.  No division:
    at ``alpha = 0`` the interval is ``[0, 0]`` (``bm_min <= f_j <=
    bm_max``), so the limited flux is exactly zero with no special case.

    ``s`` is the :func:`mp_scratch` of ``cells``: the ``L`` donor cells
    ``cells[2:-2]`` that ``phi`` belongs to, as planes, with two neighbor
    planes on each side (a five-array stencil is ``L = 1``); ``phi`` has
    the donors' shape and ``alpha`` broadcasts into it.  Both intervals
    come from :func:`_window_bounds`.  Every temporary is a buffer of
    ``s`` (the returned array too — the next call on ``s`` overwrites
    it), pooled when ``mp_scratch`` had an ``arena``; with or without one
    the result is bitwise-identical.
    """
    b_min, b_max, bm_min, bm_max = _window_bounds(s, alpha_mp)
    f0 = s.f0
    rest = 1.0 - alpha  # alpha-shaped: cheap
    # lo = max(alpha b_min, f0 - (1 - alpha) bm_max), into b_min
    np.multiply(b_min, alpha, out=b_min)
    np.multiply(bm_max, rest, out=bm_max)
    np.subtract(f0, bm_max, out=bm_max)
    np.maximum(b_min, bm_max, out=b_min)
    # hi = min(alpha b_max, f0 - (1 - alpha) bm_min), into b_max
    np.multiply(b_max, alpha, out=b_max)
    np.multiply(bm_min, rest, out=bm_min)
    np.subtract(f0, bm_min, out=bm_min)
    np.minimum(b_max, bm_min, out=b_max)
    # the clamp, into the spent bm_max
    np.maximum(phi, b_min, out=bm_max)
    np.minimum(bm_max, b_max, out=bm_max)
    return bm_max


def clamp_scratch(phi, donor, arena=None, tag="clamp") -> SimpleNamespace:
    """The ``donor`` cells and the buffers of :func:`positivity_clamp_fraction`
    for a ``phi`` of this shape and dtype."""
    hi = _take(arena, (tag, "hi"), donor.shape, donor.dtype)
    shape = np.broadcast_shapes(phi.shape, hi.shape)
    out = _take(arena, (tag, "phi"), shape, np.result_type(phi, hi))
    return SimpleNamespace(donor=donor, hi=hi, out=out)


def positivity_clamp_fraction(phi: np.ndarray, s: SimpleNamespace) -> np.ndarray:
    """Clamp the donated fractional mass into [0, donor-cell mass].

    ``phi`` is the fractional part of the semi-Lagrangian flux — the mass
    taken from the rightmost ``alpha`` of donor cell j.  Because the
    departure intervals of consecutive interfaces tile the grid exactly,
    enforcing ``0 <= phi <= fbar_j`` guarantees the updated averages stay
    non-negative for *any* CFL number (see DESIGN.md and the tests in
    ``tests/test_advection_properties.py``).  ``s`` is the
    :func:`clamp_scratch` of ``phi`` and the donor cells; the bound and
    the result are its buffers, pooled when it had an ``arena`` (same bits).
    """
    hi, out = s.hi, s.out
    np.maximum(s.donor, 0.0, out=hi)
    # clip(phi, 0, hi) as two passes: np.clip costs ~3x their sum
    np.maximum(phi, 0.0, out=out)
    np.minimum(out, hi, out=out)
    return out


def weno_smoothness(stencil: np.ndarray) -> np.ndarray:
    """Jiang-Shu smoothness indicators of the three quadratic sub-stencils.

    ``stencil`` is five equal-shape arrays (stacked, or a tuple of
    views); returns array of shape ``(3,) + stencil[0].shape``.  The
    nonlinear WENO weights are formed in :mod:`repro.core.advection`,
    where the *ideal* (linear) weights are known — in the semi-Lagrangian
    setting they depend on the shift fraction alpha.
    """
    if len(stencil) != 5:
        raise ValueError("WENO-5 smoothness needs a 5-cell stencil")
    fm2, fm1, f0, fp1, fp2 = stencil
    beta0 = (13.0 / 12.0) * (fm2 - 2 * fm1 + f0) ** 2 + 0.25 * (
        fm2 - 4 * fm1 + 3 * f0
    ) ** 2
    beta1 = (13.0 / 12.0) * (fm1 - 2 * f0 + fp1) ** 2 + 0.25 * (fm1 - fp1) ** 2
    beta2 = (13.0 / 12.0) * (f0 - 2 * fp1 + fp2) ** 2 + 0.25 * (
        3 * f0 - 4 * fp1 + fp2
    ) ** 2
    return np.stack([beta0, beta1, beta2])
