"""Linear matter power spectrum (Eisenstein & Hu 1998 transfer function).

The initial conditions of both the N-body (CDM) and Vlasov (neutrino)
components are Gaussian random fields drawn from this spectrum, scaled back
to the starting redshift with the linear growth factor, and suppressed at
small scales for the neutrino component by free streaming.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .background import Cosmology
from .growth import growth_factor, growth_suppression_factor


def eisenstein_hu_transfer(cosmo: Cosmology, k) -> np.ndarray:
    """Zero-baryon-wiggle Eisenstein & Hu (1998) transfer function T(k).

    Implements the "no-wiggle" fitting formula (EH98 Eqs. 26-31), which
    captures the baryon suppression of small-scale power without acoustic
    oscillations — sufficient for the shape-level reproduction targeted
    here.  ``k`` is in h/Mpc.
    """
    k_arr = np.asarray(k, dtype=np.float64)
    if np.any(k_arr < 0.0):
        raise ValueError("wavenumbers must be non-negative")

    h = cosmo.h
    om = cosmo.omega_m
    ob = cosmo.omega_b
    theta = cosmo.t_cmb / 2.7

    omh2 = om * h**2
    obh2 = ob * h**2
    fb = ob / om

    # sound horizon approximation (EH98 Eq. 26), in Mpc
    s = 44.5 * math.log(9.83 / omh2) / math.sqrt(1.0 + 10.0 * obh2**0.75)
    # alpha_Gamma (Eq. 31)
    a_gamma = (
        1.0
        - 0.328 * math.log(431.0 * omh2) * fb
        + 0.38 * math.log(22.3 * omh2) * fb**2
    )

    # k in 1/Mpc for the EH fitting formulas
    k_mpc = k_arr * h
    with np.errstate(divide="ignore", invalid="ignore"):
        gamma_eff = om * h * (
            a_gamma + (1.0 - a_gamma) / (1.0 + (0.43 * k_mpc * s) ** 4)
        )
        q = k_mpc * theta**2 / gamma_eff / h
        l0 = np.log(2.0 * math.e + 1.8 * q)
        c0 = 14.2 + 731.0 / (1.0 + 62.5 * q)
        t = l0 / (l0 + c0 * q**2)
    t = np.where(k_arr == 0.0, 1.0, t)
    return t if np.ndim(k) else float(t)


@dataclass(frozen=True)
class LinearPower:
    """Normalized linear matter power spectrum P(k, a).

    The spectrum is P(k) = A k^n_s T(k)^2 with A fixed so that sigma8
    matches ``cosmo.sigma8`` at a = 1, then scaled in time with the linear
    growth factor.  Set ``neutrino_suppressed=True`` to include the
    free-streaming suppression factor — used for the *total matter* field
    when massive neutrinos are present.

    Attributes
    ----------
    cosmo:
        Background cosmology (supplies sigma8, n_s, transfer-function
        parameters, and the growth factor).
    neutrino_suppressed:
        Whether to multiply by the free-streaming suppression factor.
    """

    cosmo: Cosmology
    neutrino_suppressed: bool = False

    @property
    def amplitude(self) -> float:
        """Normalization A such that sigma8(a=1) = cosmo.sigma8."""
        target = self.cosmo.sigma8**2
        raw = self._sigma_r_squared_unnormalized(8.0)
        return target / raw

    def __call__(self, k, a: float = 1.0) -> np.ndarray:
        """Linear power P(k) at scale factor ``a`` [(h^-1 Mpc)^3]."""
        k_arr = np.asarray(k, dtype=np.float64)
        p = self.amplitude * self._shape(k_arr)
        d = growth_factor(self.cosmo, a)
        p = p * d**2
        if self.neutrino_suppressed:
            p = p * growth_suppression_factor(self.cosmo, k_arr)
        return p if np.ndim(k) else float(p)

    def _shape(self, k_arr: np.ndarray) -> np.ndarray:
        t = eisenstein_hu_transfer(self.cosmo, k_arr)
        with np.errstate(invalid="ignore"):
            p = np.where(k_arr > 0.0, k_arr**self.cosmo.n_s * t**2, 0.0)
        return p

    def _sigma_r_squared_unnormalized(self, r: float) -> float:
        """Variance of the unnormalized spectrum in spheres of radius r."""
        from scipy import integrate

        def integrand(lnk: float) -> float:
            k = math.exp(lnk)
            x = k * r
            if x < 1.0e-4:
                w = 1.0 - x**2 / 10.0
            else:
                w = 3.0 * (math.sin(x) - x * math.cos(x)) / x**3
            return k**3 * float(self._shape(np.asarray(k))) * w**2

        val, _ = integrate.quad(
            integrand, math.log(1.0e-5), math.log(1.0e3), limit=400
        )
        return val / (2.0 * math.pi**2)

    def sigma_r(self, r: float, a: float = 1.0) -> float:
        """RMS linear fluctuation in spheres of radius r [h^-1 Mpc]."""
        var = self.amplitude * self._sigma_r_squared_unnormalized(r)
        return math.sqrt(var) * float(growth_factor(self.cosmo, a))
