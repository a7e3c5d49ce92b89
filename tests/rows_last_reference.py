"""The sweep kernel's one bitwise oracle: the rows-last composition.

``advect`` lands each block as ghost-extended planes (advected axis
first), evaluates the fractional flux once per donor cell of a window and
looks it up per interface.  This is the composition it replaced, written
with allocating NumPy on flat ``(rows, n)`` arrays: zero pad -> periodic
row -> five-to-seven stencil gathers per interface -> the roll-family MP
bounds -> the flux-form limit and the clamp in interface space -> ``flux
- roll(flux)``.  Same operands, same ufuncs, same order: the two must
agree to the byte.

The elementwise pieces whose arithmetic did not move (``minmod4``, the
positivity clamp, the coefficient polynomials) are the library's; everything that says *where* a neighbor lives is here.
"""

from __future__ import annotations

import numpy as np

from repro.core.advection import SCHEMES, stencil_reach
from repro.core.limiters import clamp_scratch, minmod4, positivity_clamp_fraction
from repro.core.stencil import evaluate_flux_coefficients


def mp_bounds_rolled(stencil, alpha_mp=4.0):
    """Both MP intervals of every donor, in the roll family: ``stencil[m]``
    is ``stencil[2]`` rolled ``-(m - 2)`` cells along the last axis, so a
    term of interface ``j + 1/2`` is a term of ``j - 1/2`` rolled one
    cell.  Returns ``(b_min, b_max, bm_min, bm_max)``: the interval of the
    right interface and the mirrored one of the left.  Every interface
    term (the symmetric curvature's ``dM4``, ``e``, ``f_md`` and the
    min/max of the interface's cells) is formed once, at ``j + 1/2``,
    and read by both sides."""
    fm2, fm1, f0, fp1, fp2 = stencil

    def left(a):  # the term of interface j - 1/2
        return np.roll(a, 1, axis=-1)

    d_0 = (fm1 + fp1) - 2.0 * f0
    d_n = np.roll(d_0, -1, axis=-1)
    dm4 = minmod4(4.0 * d_0 - d_n, 4.0 * d_n - d_0, d_0, d_n)
    e = fp1 - f0
    f_md = 0.5 * ((f0 + fp1) - dm4)
    a_min = np.minimum(np.minimum(f0, fp1), f_md)
    a_max = np.maximum(np.maximum(f0, fp1), f_md)
    e4, e2, m43 = e * alpha_mp, e * 0.5, dm4 * (4.0 / 3.0)
    f_ul = f0 + left(e4)
    f_lc = (f0 + left(e2)) + left(m43)
    b_min = np.maximum(a_min, np.minimum(np.minimum(f0, f_ul), f_lc))
    b_max = np.minimum(a_max, np.maximum(np.maximum(f0, f_ul), f_lc))
    f_ul = f0 - e4
    f_lc = (f0 - e2) + m43
    bm_min = np.maximum(left(a_min), np.minimum(np.minimum(f0, f_ul), f_lc))
    bm_max = np.minimum(left(a_max), np.maximum(np.maximum(f0, f_ul), f_lc))
    return b_min, b_max, bm_min, bm_max


def limit_flux_rolled(phi, alpha, stencil):
    """The flux-form SL-MPP limit: ``phi`` clamped into
    ``[max(alpha b_min, f0 - (1 - alpha) bm_max),
    min(alpha b_max, f0 - (1 - alpha) bm_min)]``."""
    f0 = stencil[2]
    b_min, b_max, bm_min, bm_max = mp_bounds_rolled(stencil)
    lo = np.maximum(b_min * alpha, f0 - bm_max * (1.0 - alpha))
    hi = np.minimum(b_max * alpha, f0 - bm_min * (1.0 - alpha))
    return np.minimum(np.maximum(phi, lo), hi)


def _fractional_flux(st, alpha, spec):
    """phi per interface from the stencil gathered around its donor."""
    order, use_mp, use_pos = spec
    center = (st.shape[0] - 1) // 2
    coef = evaluate_flux_coefficients(order, alpha)
    phi = np.zeros(np.broadcast_shapes(st.shape[1:], alpha.shape), st.dtype)
    for m in range(order):
        phi += coef[m] * st[center - (order - 1) // 2 + m]
    if use_mp:
        phi = limit_flux_rolled(phi, alpha, st[center - 2 : center + 3])
    if use_pos:
        phi = positivity_clamp_fraction(phi, clamp_scratch(phi, st[center]))
    return phi


def _flux_positive(fw, sh, spec):
    """Flux through every right interface of periodic rows, shifts >= 0."""
    n = fw.shape[-1]
    k = np.floor(sh).astype(np.int64)
    alpha = (sh - k).astype(fw.dtype)
    q = np.arange(n) - k
    # S(i, k) = f_i + f_(i-1) + ... + f_(i-k+1), nearest cell first, in
    # float64: rows with k <= j add an exact +0.0.  Each whole wrap of a
    # periodic row adds its mass to every interface, which the flux
    # difference cancels, so only k mod n cells are summed (a zero row is
    # padded past its largest shift: there k < n)
    k = k % n
    flux = np.zeros(fw.shape)
    for j in range(int(k.max())):
        flux += np.where(k > j, np.roll(fw, j, axis=-1), 0.0)
    r = stencil_reach(spec)
    st = np.stack(
        [np.take_along_axis(fw, (q + m) % n, axis=-1) for m in range(-r, r + 1)]
    )
    return flux + _fractional_flux(st, alpha, spec)


def _mirror_flux(fw, sh, spec):
    """Shifts <= 0: reverse, advance, reverse back one step to the left."""
    fg = _flux_positive(fw[:, ::-1], -sh, spec)
    return -np.roll(fg[:, ::-1], -1, axis=-1)


def reference_advect(f, shift, axis, scheme="slmpp5", bc="periodic"):
    """``advect(f, shift, axis, scheme, bc)`` by the rows-last composition."""
    spec = SCHEMES[scheme]
    n = f.shape[axis]
    shape = list(np.broadcast_shapes(f.shape, np.shape(shift)))
    shape[axis] = n
    rows = np.moveaxis(np.broadcast_to(f, shape), axis, -1)
    fw = rows.reshape(-1, n)
    sh = np.broadcast_to(
        np.asarray(shift, dtype=np.float64), shape[:axis] + [1] + shape[axis + 1 :]
    )
    sh = np.moveaxis(sh, axis, -1).reshape(-1, 1)
    pad_l = 0
    if bc == "zero":
        reach = stencil_reach(spec)
        pad_l = max(int(np.floor(sh.max())), 0) + reach + 1
        pad_r = -min(int(np.floor(sh.min())), 0) + reach + 1
        fw = np.pad(fw, ((0, 0), (pad_l, pad_r)))
    flux = np.empty(fw.shape, dtype=np.float64)
    pos = sh[:, 0] >= 0.0
    for mask, kernel in ((pos, _flux_positive), (~pos, _mirror_flux)):
        if mask.any():
            flux[mask] = kernel(fw[mask], sh[mask], spec)
    out = (fw - (flux - np.roll(flux, 1, axis=-1))).astype(f.dtype)
    return np.moveaxis(out[:, pad_l : pad_l + n].reshape(rows.shape), -1, axis)
