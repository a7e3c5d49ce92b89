"""Linear growth of matter fluctuations, with neutrino suppression.

Used to set initial-condition amplitudes at the starting redshift (the
paper starts at z = 10 for the flagship runs) and to verify the simulated
suppression of clustering by massive neutrinos (paper Figs. 4 and 6).
"""

from __future__ import annotations

import numpy as np

from .background import Cosmology
from .quadrature import gauss_legendre


def growth_factor_unnormalized(cosmo: Cosmology, a) -> np.ndarray:
    """Unnormalized linear growth factor D(a) for pure LCDM.

    Uses the standard integral solution of the growth ODE for a flat
    universe with pressureless matter:

        D(a)  propto  H(a) * int_0^a da' / (a' H(a'))^3 .

    Massive neutrinos are *not* included here (see
    :func:`growth_suppression_factor` for the scale-dependent neutrino
    effect); the total Omega_m drives the growth, which is the standard
    approximation on scales well below the free-streaming length.

    The integral is taken over x = a s^2, s in [0, 1]: its integrand
    goes as x^(3/2) at 0, and as a polynomial in s.
    """
    a_arr = np.atleast_1d(np.asarray(a, dtype=np.float64))
    if np.any(a_arr <= 0.0):
        raise ValueError("scale factor must be positive")
    a_col = a_arr[:, None, None]  # one integral per a, over the nodes in s

    def integrand(s):
        x = a_col * s**2
        return 2.0 * a_col * s / (x * cosmo.e_of_a(x)) ** 3

    integral = gauss_legendre(integrand, 0.0, 1.0)
    out = 2.5 * cosmo.omega_m * cosmo.e_of_a(a_arr) * integral
    return out if np.ndim(a) else float(out[0])


def growth_factor(cosmo: Cosmology, a) -> np.ndarray:
    """Linear growth factor normalized to D(a=1) = 1."""
    d = growth_factor_unnormalized(cosmo, a)
    d0 = growth_factor_unnormalized(cosmo, 1.0)
    return d / d0


def growth_rate(cosmo: Cosmology, a) -> np.ndarray:
    """Logarithmic growth rate f = dlnD/dlna.

    Evaluated by numerically differentiating :func:`growth_factor`; the
    usual approximation f ~ Omega_m(a)^0.55 is accurate to ~1% and serves
    as a cross-check in the tests.
    """
    a_arr = np.atleast_1d(np.asarray(a, dtype=np.float64))
    eps = 1.0e-4
    lo = growth_factor_unnormalized(cosmo, a_arr * (1.0 - eps))
    hi = growth_factor_unnormalized(cosmo, a_arr * (1.0 + eps))
    f = (np.log(hi) - np.log(lo)) / (2.0 * eps)
    return f if np.ndim(a) else float(f[0])


def neutrino_free_streaming_k(cosmo: Cosmology, a) -> np.ndarray:
    """Free-streaming wavenumber k_fs(a) [h/Mpc].

    Scales above k_fs cannot be bound by gravity against the neutrino
    thermal motion.  Standard expression (Lesgourgues & Pastor 2006):

        k_fs = sqrt(3/2) a H(a) / v_th(a)

    with v_th the characteristic thermal velocity of a single eigenstate
    of mass M_nu/3 (degenerate-mass approximation, as in the paper's
    simulation setup).
    """
    a_arr = np.asarray(a, dtype=np.float64)
    m1 = cosmo.m_nu_total_ev / 3.0
    v_th = np.asarray(
        [cosmo.units.neutrino_velocity_kms(m1, float(ai)) for ai in np.atleast_1d(a_arr)]
    )
    h_of_a = cosmo.hubble(np.atleast_1d(a_arr))
    kfs = np.sqrt(1.5) * np.atleast_1d(a_arr) * h_of_a / v_th
    return kfs if np.ndim(a) else float(kfs[0])


def growth_suppression_factor(cosmo: Cosmology, k) -> np.ndarray:
    """Small-scale suppression of the linear matter power by neutrinos.

    Below the free-streaming scale, the matter power spectrum is suppressed
    relative to the massless-neutrino case by the well-known approximation

        P / P(f_nu = 0) ~ 1 - 8 f_nu     (k >> k_fs, f_nu << 1)

    with a smooth interpolation through k_fs.  We use the simple fitting
    form suppression(k) = 1 - 8 f_nu * k^2 / (k^2 + k_fs^2) which has the
    correct asymptotes on both sides.  Returns the multiplicative factor
    applied to the *power spectrum* (not the transfer function).
    """
    k_arr = np.asarray(k, dtype=np.float64)
    f_nu = cosmo.f_nu
    if f_nu == 0.0:
        return np.ones_like(k_arr) if np.ndim(k) else 1.0
    kfs = neutrino_free_streaming_k(cosmo, 1.0)
    supp = 1.0 - 8.0 * f_nu * k_arr**2 / (k_arr**2 + kfs**2)
    return supp if np.ndim(k) else float(supp)
