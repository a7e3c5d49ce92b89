"""Polynomial reconstruction stencils for conservative semi-Lagrangian fluxes.

The SL-MPP5 scheme (paper §5.2, ref. [23]) replaces the polynomially
reconstructed interface fluxes of a standard MP scheme with *conservative
semi-Lagrangian* fluxes: the time-integrated flux through interface
``i+1/2`` equals the integral of a piecewise-polynomial reconstruction over
the departure interval ``[x_{i+1/2} - s*dx, x_{i+1/2}]`` (shift
``s = v*dt/dx``).

For a (2r+1)-cell centered stencil the in-cell reconstruction ``R_j`` is the
unique degree-2r polynomial whose averages over cells ``j-r .. j+r`` match
the cell averages.  Writing the fractional departure interval as the right
part of donor cell ``j`` with width ``alpha`` (in units of dx), the partial
integral is a linear combination of the stencil averages,

    phi_j(alpha) = sum_m  c_m(alpha) * fbar_{j+m},      m = -r .. r,

where each coefficient ``c_m`` is a polynomial of degree 2r+1 in alpha.
This module computes those coefficient polynomials *exactly* (rational
arithmetic) once per order, and evaluates them vectorized at runtime.

The alpha -> 0 limit of ``phi(alpha)/alpha`` is the right-edge point value
of the reconstruction — exactly the interface value a method-of-lines
finite-volume scheme of the same order uses, which is how the MP5+RK3
baseline shares this machinery.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np

#: Reconstruction orders supported by the library (stencil width = order).
SUPPORTED_ORDERS = (1, 3, 5, 7)


def _average_matrix(r: int) -> list[list[Fraction]]:
    """Exact matrix mapping polynomial coeffs -> cell averages.

    M[row m+r][p] = average of xi^p over cell m (xi in cell widths,
    cell m spanning [m-1/2, m+1/2]) for m = -r..r, p = 0..2r.
    """
    size = 2 * r + 1
    m_mat: list[list[Fraction]] = []
    for m in range(-r, r + 1):
        hi = Fraction(2 * m + 1, 2)
        lo = Fraction(2 * m - 1, 2)
        m_mat.append(
            [(hi ** (p + 1) - lo ** (p + 1)) / (p + 1) for p in range(size)]
        )
    return m_mat


def _invert_exact(mat: list[list[Fraction]]) -> list[list[Fraction]]:
    """Gauss-Jordan inverse in exact rational arithmetic."""
    n = len(mat)
    aug = [row[:] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(mat)]
    for col in range(n):
        pivot_row = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        pivot = aug[col][col]
        aug[col] = [x / pivot for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


@lru_cache(maxsize=None)
def flux_coefficient_polynomials(order: int) -> np.ndarray:
    """Coefficient polynomials c_m(alpha) for the partial cell integral.

    Parameters
    ----------
    order:
        Spatial order of accuracy; the stencil has ``order`` cells
        (must be odd: 1, 3, 5, 7).

    Returns
    -------
    numpy.ndarray
        Array ``P`` of shape (order, order+1) of float64 such that

            c_m(alpha) = sum_d P[m+r, d] * alpha**d ,

        i.e. ``P[m+r]`` are the polynomial coefficients (ascending powers
        of alpha) of the weight multiplying cell average ``fbar_{j+m}``.
        ``phi_j(alpha) = sum_m c_m(alpha) fbar_{j+m}`` integrates the
        reconstruction over the right-most ``alpha`` fraction of cell j.
    """
    if order not in SUPPORTED_ORDERS:
        raise ValueError(f"order must be one of {SUPPORTED_ORDERS}, got {order}")
    r = (order - 1) // 2
    size = order
    minv = _invert_exact(_average_matrix(r))
    # phi(alpha) = sum_p a_p * B_p(alpha),
    # B_p(alpha) = ((1/2)^(p+1) - (1/2 - alpha)^(p+1)) / (p+1)
    # expand B_p as a polynomial in alpha (degree p+1, zero constant term)
    half = Fraction(1, 2)
    poly = [[Fraction(0)] * (size + 1) for _ in range(size)]  # [m+r][power]
    for p in range(size):
        # (1/2 - alpha)^(p+1) = sum_q C(p+1,q) (1/2)^(p+1-q) (-alpha)^q
        bp = [Fraction(0)] * (size + 2)
        bp[0] += half ** (p + 1)
        from math import comb

        for q in range(p + 2):
            bp[q] -= comb(p + 1, q) * half ** (p + 1 - q) * (Fraction(-1) ** q)
        # divide by (p+1)
        bp = [x / (p + 1) for x in bp]
        # c_m gets a_p coefficient: a = Minv @ fbar, so contribution of
        # fbar_{j+m} to a_p is Minv[p][m+r]
        for mi in range(size):
            w = minv[p][mi]
            if w != 0:
                for q in range(size + 1):
                    poly[mi][q] += w * bp[q]
    return np.array([[float(x) for x in row] for row in poly], dtype=np.float64)


@lru_cache(maxsize=None)
def edge_value_coefficients(order: int) -> np.ndarray:
    """Right-edge point-value weights of the in-cell reconstruction.

    These are ``lim_{alpha->0} c_m(alpha)/alpha`` — the classic
    interface-reconstruction weights of an ``order``-th order linear
    finite-volume scheme (e.g. (2, -13, 47, 27, -3)/60 for order 5).
    """
    poly = flux_coefficient_polynomials(order)
    return poly[:, 1].copy()


def evaluate_flux_coefficients(order: int, alpha: np.ndarray) -> np.ndarray:
    """Evaluate the c_m(alpha) weight arrays for a given fraction field.

    Parameters
    ----------
    order:
        Reconstruction order (stencil size).
    alpha:
        Fractional shifts in [0, 1], any shape.

    Returns
    -------
    numpy.ndarray
        Shape ``(order,) + alpha.shape``; entry ``[m+r]`` is c_m(alpha).
    """
    poly = flux_coefficient_polynomials(order)
    alpha = np.asarray(alpha)
    # Horner evaluation over the polynomial degree axis
    out = np.empty((order,) + alpha.shape, dtype=alpha.dtype)
    for mi in range(order):
        acc = np.full_like(alpha, poly[mi, -1])
        for d in range(poly.shape[1] - 2, -1, -1):
            acc = acc * alpha + poly[mi, d]
        out[mi] = acc
    return out

