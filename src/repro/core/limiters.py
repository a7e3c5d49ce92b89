"""Monotonicity- and positivity-preserving limiters.

Implements the MP (monotonicity-preserving) interface-value limiter of
Suresh & Huynh (1997) [paper ref. 22] adapted to the conservative
semi-Lagrangian flux of the SL-MPP5 scheme (paper §5.2, ref. [23]), plus
the explicit positivity clamp on the donated fractional mass.

All functions are shape-polymorphic.  A *stencil* is five arrays, entry
``m + 2`` holding the cell average ``fbar_{j+m}`` of the donor-cell
neighborhood.  The advection kernel works on *planes* instead — cell
averages with the advected axis leading, ``cells[c]`` one cell of every
row — where the neighbor ``j + m`` of all donor cells at once is the
slice ``cells[2 + m : 2 + m + L]``, and a stencil is the ``L = 1`` case.
"""

from __future__ import annotations

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
    evaluates the same interval for whole rows of donor cells at once
    (:func:`mp_limit_departure_average`), where neighboring cells share
    their curvatures; both return the same values, and where the
    curvatures hold zeros of both signs a zero bound may differ in sign.
    """
    fm2, fm1, f0, fp1, fp2 = (stencil[m] for m in range(5))
    d_m1 = fm2 - 2.0 * fm1 + f0
    d_0 = fm1 - 2.0 * f0 + fp1
    d_p1 = f0 - 2.0 * fp1 + fp2
    dm4_p = minmod4(4.0 * d_0 - d_p1, 4.0 * d_p1 - d_0, d_0, d_p1)
    dm4_m = minmod4(4.0 * d_0 - d_m1, 4.0 * d_m1 - d_0, d_0, d_m1)
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


def _mp_interval(cells, alpha_mp, arena, tag):
    """:func:`mp_bounds` of the donor cells ``cells[2:-2]``, plane-wise.

    ``cells`` holds ``L + 4`` planes: the ``L`` donors and two neighbors
    on each side.  The curvature ``d_c = (f_{c-1} - 2 f_c) + f_{c+1}`` is
    evaluated once on the ``L + 2`` cells that border a donor interface
    and ``dM4`` once on the ``L + 1`` interfaces between them; a donor
    reads its two as views.  Every temporary is pooled scratch (the
    returned arrays too — the next same-tag call overwrites them); the
    bounds are bitwise-identical with or without an arena.
    """
    count, shape, dt = cells.shape[0] - 4, cells.shape[1:], cells.dtype
    fm1, f0, fp1 = cells[1:-3], cells[2:-2], cells[3:-1]
    d, d4 = (
        _take(arena, (*tag, name), (count + 2,) + shape, dt) for name in ("d", "d4")
    )
    ta, tb, w1, w2, m4 = (
        _take(arena, (*tag, name), (count + 1,) + shape, dt)
        for name in ("ta", "tb", "w1", "w2", "m4")
    )
    f_min, f_max = (
        _take(arena, (*tag, name), (count,) + shape, dt) for name in ("min", "max")
    )

    np.multiply(cells[1:-1], 2.0, out=d4)
    np.subtract(cells[:-2], d4, out=d)
    np.add(d, cells[2:], out=d)
    np.multiply(d, 4.0, out=d4)
    # dM4 between cells e, e+1: minmod4(4 d_e - d_e+1, 4 d_e+1 - d_e, d_e, d_e+1)
    np.subtract(d4[:-1], d[1:], out=ta)
    np.subtract(d4[1:], d[:-1], out=tb)
    minmod4_into(m4, ta, tb, d[:-1], d[1:], w1, w2)

    # the interface-sized buffers are spent: reuse them donor-sized
    ful, fmd, flc, w1, w2 = ta[:-1], tb[:-1], d4[:-2], w1[:-1], w2[:-1]
    # f_ul = f0 + alpha_mp * (f0 - fm1)
    np.subtract(f0, fm1, out=flc)
    np.multiply(flc, alpha_mp, out=ful)
    np.add(f0, ful, out=ful)
    # f_md = 0.5 * (f0 + fp1) - 0.5 * dM4_{j+1/2}
    np.add(f0, fp1, out=fmd)
    np.multiply(fmd, 0.5, out=fmd)
    np.multiply(m4[1:], 0.5, out=w1)
    np.subtract(fmd, w1, out=fmd)
    # f_lc = f0 + 0.5 * (f0 - fm1) + (4/3) * dM4_{j-1/2}
    np.multiply(flc, 0.5, out=flc)
    np.add(f0, flc, out=flc)
    np.multiply(m4[:-1], 4.0 / 3.0, out=w1)
    np.add(flc, w1, out=flc)

    np.minimum(f0, fp1, out=w1)
    np.minimum(w1, fmd, out=w1)
    np.minimum(f0, ful, out=w2)
    np.minimum(w2, flc, out=w2)
    np.maximum(w1, w2, out=f_min)
    np.maximum(f0, fp1, out=w1)
    np.maximum(w1, fmd, out=w1)
    np.maximum(f0, ful, out=w2)
    np.maximum(w2, flc, out=w2)
    np.minimum(w1, w2, out=f_max)
    return f_min, f_max


def mp_limit_departure_average(
    u: np.ndarray,
    alpha: np.ndarray,
    cells: np.ndarray,
    alpha_mp: float = 4.0,
    arena=None,
    tag="mp",
) -> np.ndarray:
    """MP limiting of the semi-Lagrangian departure-interval average.

    This is the SL-MPP constraint of the paper's scheme [23]: the
    conservative SL flux donates ``alpha * u`` from donor cell j, where
    ``u`` is the reconstruction average over the rightmost ``alpha``
    fraction of the cell.  The updated cell average is the convex
    combination

        f_i^{n+1} = (1 - alpha) * w_j + alpha * u_{j-1},
        w_j = (f_j - alpha u_j) / (1 - alpha)   (the remainder average).

    Monotonicity for *any* alpha in [0, 1] therefore follows from keeping
    ``u_j`` inside the MP interval of cell j's *right* interface and
    ``w_j`` inside the MP interval of its *left* interface (the mirrored
    bounds) — no CFL restriction, which is what lets the single-stage
    scheme run at the advective CFL of the whole step.  The two
    requirements translate into an intersection interval for u, never
    empty because u = f_j satisfies both.

    ``cells`` holds the ``L`` donor cells ``cells[2:-2]`` that ``u``
    belongs to, as planes, with two neighbor planes on each side (a
    five-array stencil is ``L = 1``).  The left-interface bounds are the
    same computation on ``cells[::-1]``, which keeps its own operand
    order ``(f_{j+1} - 2 f_j) + f_{j-1}``.  With an ``arena`` every
    full-size temporary lives in pooled scratch (the returned array too —
    it is overwritten by the next same-tag call); with or without one the
    result is bitwise-identical.
    """
    if cells.shape[0] < 5:
        raise ValueError("MP limiter needs a 5-cell stencil")
    f0 = cells[2:-2]
    alpha = np.asarray(alpha)
    b_min, b_max = _mp_interval(cells, alpha_mp, arena, (tag, "r"))
    # remainder average sits at the cell's left edge: mirrored planes
    bm_min, bm_max = (
        b[::-1] for b in _mp_interval(cells[::-1], alpha_mp, arena, (tag, "l"))
    )
    dt = np.result_type(u, alpha, cells)
    tiny = np.asarray(1.0e-7, dtype=u.dtype)
    safe_alpha = np.maximum(alpha, tiny)   # alpha-shaped: cheap
    om_alpha = 1.0 - alpha                 # alpha-shaped: cheap
    shape = np.broadcast_shapes(b_min.shape, alpha.shape, u.shape)
    va = _take(arena, (tag, "lim_a"), shape, dt)
    vb = _take(arena, (tag, "lim_b"), shape, dt)
    vc = _take(arena, (tag, "lim_c"), shape, dt)
    vd = _take(arena, (tag, "lim_d"), shape, dt)
    # lo = maximum(b_min, (f0 - (1 - alpha) * bm_max) / safe_alpha)
    np.multiply(om_alpha, bm_max, out=va)
    np.subtract(f0, va, out=va)
    np.divide(va, safe_alpha, out=va)
    np.maximum(b_min, va, out=va)
    # hi = minimum(b_max, (f0 - (1 - alpha) * bm_min) / safe_alpha)
    np.multiply(om_alpha, bm_min, out=vb)
    np.subtract(f0, vb, out=vb)
    np.divide(vb, safe_alpha, out=vb)
    np.minimum(b_max, vb, out=vb)
    # median3(u, lo, hi) = u + minmod(lo - u, hi - u)
    np.subtract(va, u, out=va)
    np.subtract(vb, u, out=vb)
    minmod_into(vc, va, vb, vd)
    np.add(u, vc, out=vc)
    return vc


def positivity_clamp_fraction(
    phi: np.ndarray, donor: np.ndarray, arena=None, tag="clamp"
) -> np.ndarray:
    """Clamp the donated fractional mass into [0, donor-cell mass].

    ``phi`` is the fractional part of the semi-Lagrangian flux — the mass
    taken from the rightmost ``alpha`` of donor cell j.  Because the
    departure intervals of consecutive interfaces tile the grid exactly,
    enforcing ``0 <= phi <= fbar_j`` guarantees the updated averages stay
    non-negative for *any* CFL number (see DESIGN.md and the tests in
    ``tests/test_advection_properties.py``).  With an ``arena`` the
    bound and the result live in pooled scratch (same bits).
    """
    hi = _take(arena, (tag, "hi"), donor.shape, donor.dtype)
    np.maximum(donor, 0.0, out=hi)
    shape = np.broadcast_shapes(phi.shape, hi.shape)
    out = _take(arena, (tag, "phi"), shape, np.result_type(phi, hi))
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
