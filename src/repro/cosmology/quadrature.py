"""Fixed-order Gauss-Legendre quadrature on numpy.

Every cosmology integral on a run's path (the kick and drift factors,
cosmic time, the growth factor, the sigma8 normalisation) is a smooth
one-dimensional integral.  Written in a variable where its integrand is
smooth at the ends, a fixed rule evaluates it in one vectorised call to
well below 1e-12 relative, with nothing to import but numpy.
"""

from __future__ import annotations

import functools

import numpy as np


@functools.cache
def _rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre nodes and weights, mapped onto [0, 1]."""
    from numpy.polynomial import legendre  # on first use: most runs never integrate

    x, w = legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def gauss_legendre(f, lo: float, hi: float, n: int = 32, panels: int = 1):
    """int_lo^hi f(x) dx by the n-point Gauss-Legendre rule on each of
    ``panels`` equal panels.

    ``f`` is called once, on every node as one array of shape
    ``(panels, n)``.  It may broadcast them against leading axes of its
    own (one integrand per leading index); the result keeps those axes.
    The rule is exact for polynomials of degree 2n - 1 on each panel and
    carries no error estimate: the caller picks the variable in which
    the integrand is smooth.
    """
    x, w = _rule(n)
    edges = np.linspace(lo, hi, panels + 1)
    width = np.diff(edges)
    return f(edges[:-1, None] + width[:, None] * x) @ w @ width
