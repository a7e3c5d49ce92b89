"""The rows-last kernel ``advect`` ran on until ISSUE 17, kept as the oracle.

``advect`` now lands each block as ghost-extended planes (advected axis
first), evaluates the fractional flux once per donor cell of a window and
looks it up per interface.  This is the composition it replaced, written
with allocating NumPy on flat ``(rows, n)`` arrays: zero pad -> periodic
row -> five-to-seven stencil gathers per interface -> the roll-family MP
bounds -> limit and clamp in interface space -> ``flux - roll(flux)``.
Same operands, same ufuncs, same order: the two must agree to the byte.

The elementwise pieces whose arithmetic did not move (``minmod4``, the
positivity clamp, the PFC and WENO fluxes, the coefficient polynomials)
are the library's; everything that says *where* a neighbor lives is here.
"""

from __future__ import annotations

import numpy as np

from repro.core.advection import (
    SCHEMES,
    _pfc_fractional,
    _weno_fractional,
    stencil_reach,
)
from repro.core.limiters import median3, minmod4, positivity_clamp_fraction
from repro.core.stencil import evaluate_flux_coefficients


def mp_bounds_rolled(stencil, roll, alpha_mp=4.0):
    """The roll-family entry of ``mp_bounds``: ``stencil[m]`` is
    ``stencil[2]`` rolled ``-roll * (m - 2)`` cells along the last axis
    (``roll = +1`` as gathered, ``-1`` for the mirror ``stencil[::-1]``),
    so the neighbor curvature and the left ``dM4`` are rolls."""
    fm2, fm1, f0, fp1, fp2 = stencil
    d_0 = fm1 - 2.0 * f0 + fp1
    d_n = np.roll(d_0, -roll, axis=-1)
    dm4_p = minmod4(4.0 * d_0 - d_n, 4.0 * d_n - d_0, d_0, d_n)
    dm4_m = np.roll(dm4_p, roll, axis=-1)
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


def departure_average_rolled(u, alpha, stencil):
    f0 = stencil[2]
    b_min, b_max = mp_bounds_rolled(stencil, 1)
    bm_min, bm_max = mp_bounds_rolled(stencil[::-1], -1)
    safe_alpha = np.maximum(alpha, np.asarray(1.0e-7, dtype=u.dtype))
    lo = np.maximum(b_min, (f0 - (1.0 - alpha) * bm_max) / safe_alpha)
    hi = np.minimum(b_max, (f0 - (1.0 - alpha) * bm_min) / safe_alpha)
    return median3(u, lo, hi)


def _fractional_flux(st, alpha, spec):
    """phi per interface from the stencil gathered around its donor."""
    order, use_mp, use_pos, use_weno, use_pfc = spec
    center = (st.shape[0] - 1) // 2
    if use_weno:
        phi = _weno_fractional(st, alpha)
    elif use_pfc:
        phi = _pfc_fractional(st, alpha)
    else:
        coef = evaluate_flux_coefficients(order, alpha)
        phi = np.zeros(np.broadcast_shapes(st.shape[1:], alpha.shape), st.dtype)
        for m in range(order):
            phi += coef[m] * st[center - (order - 1) // 2 + m]
    if use_mp:
        pos = alpha > 0.0
        safe_alpha = np.where(pos, alpha, np.asarray(1.0, dtype=st.dtype))
        u = departure_average_rolled(phi / safe_alpha, alpha, st[center - 2 : center + 3])
        phi = np.where(pos, safe_alpha * u, phi)
    if use_pos:
        phi = positivity_clamp_fraction(phi, st[center])
    return phi


def _flux_positive(fw, sh, spec):
    """Flux through every right interface of periodic rows, shifts >= 0."""
    n = fw.shape[-1]
    k = np.floor(sh).astype(np.int64)
    alpha = (sh - k).astype(fw.dtype)
    q = np.arange(n) - k
    # S(i, k) = f_i + f_(i-1) + ... + f_(i-k+1), nearest cell first, in
    # float64: rows with k <= j add an exact +0.0
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
