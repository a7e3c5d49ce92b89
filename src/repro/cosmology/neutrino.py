"""Relic-neutrino phase-space distribution (Fermi-Dirac).

Cosmic relic neutrinos decoupled while relativistic, so their comoving
momentum distribution is a redshifted massless Fermi-Dirac distribution

    n(p) dp  propto  p^2 / (exp(p c / k_B T_nu,0) + 1) dp

*independent of the neutrino mass* when expressed in comoving momentum
q = a p.  In the canonical-velocity variable u = a^2 dx/dt = q / m used by
the paper's Vlasov equation, the distribution is time-independent:
u = (q c / m) in velocity units.  This module provides that distribution,
its moments, and samplers used by both the Vlasov initial conditions and
the comparison N-body neutrino runs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .. import constants as cst
from ..units import UnitSystem

#: <y^n> moments of y^2/(e^y+1): int y^(2+n)/(e^y+1) dy / int y^2/(e^y+1) dy
#: n=1 -> 3.15137 (mean), n=2 -> 12.9394 (mean square)
_FD_NORM = 1.5 * cst.ZETA3  # int_0^inf y^2/(e^y+1) dy = (3/2) zeta(3)
_FD_MOM1 = 7.0 * math.pi**4 / 120.0  # int y^3/(e^y+1) dy


@functools.cache
def _fd_mom2() -> float:
    """int_0^inf y^4/(e^y+1) dy, by quadrature instead of hard-coding.

    On first use, not at import: ``scipy.integrate`` is a third of the
    cost of importing the run path, and most runs never integrate.
    """
    from scipy import integrate

    return integrate.quad(lambda y: y**4 / (np.exp(y) + 1.0), 0.0, 80.0)[0]


#: Mean of y = p c / (k_B T_nu): 3.15137
FD_MEAN_Y = _FD_MOM1 / _FD_NORM


def __getattr__(name: str) -> float:
    if name == "FD_MEANSQ_Y":  #: Mean square of y: 12.939
        return _fd_mom2() / _FD_NORM
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class RelicNeutrinoDistribution:
    """Isotropic relic Fermi-Dirac distribution in canonical velocity u.

    Parameters
    ----------
    m_nu_ev:
        Mass of a single neutrino eigenstate [eV].  The paper's M_nu is the
        *sum* over three (assumed degenerate) eigenstates, so a run with
        M_nu = 0.4 eV uses ``m_nu_ev = 0.4 / 3``.
    units:
        Unit system; canonical velocities come out in km/s.

    Notes
    -----
    The characteristic velocity scale is u_0 = k_B T_nu,0 c / (m_nu c^2)
    evaluated *today* — in the canonical variable u = a^2 dx/dt, a
    homogeneous relic distribution does not evolve, which is why the paper
    can set up the velocity grid [-V, V) once for the whole run.
    """

    m_nu_ev: float
    units: UnitSystem

    def __post_init__(self) -> None:
        if self.m_nu_ev <= 0.0:
            raise ValueError(f"m_nu must be positive, got {self.m_nu_ev}")

    @property
    def u0(self) -> float:
        """Velocity scale k_B T_nu c / (m_nu c^2) in km/s."""
        return (
            cst.K_BOLTZMANN
            * cst.T_NU
            / (self.m_nu_ev * cst.EV)
            * cst.C_LIGHT
            / self.units.velocity_cgs
        )

    # ------------------------------------------------------------------
    # distribution function and moments
    # ------------------------------------------------------------------

    def f_of_speed(self, u) -> np.ndarray:
        """Unit-normalized 3-D distribution evaluated at speed |u| [km/s].

        Returns f(u) with normalization int f d^3u = 1, i.e.
        f(u) = 1 / (4 pi u0^3 F2) / (exp(u/u0) + 1) with
        F2 = int y^2/(e^y+1) dy = (3/2) zeta(3).
        """
        u_arr = np.asarray(u, dtype=np.float64)
        if np.any(u_arr < 0.0):
            raise ValueError("speed must be non-negative")
        norm = 1.0 / (4.0 * math.pi * self.u0**3 * _FD_NORM)
        out = norm / (np.exp(np.minimum(u_arr / self.u0, 500.0)) + 1.0)
        return out if np.ndim(u) else float(out)

    def f_of_velocity(self, ux, uy, uz) -> np.ndarray:
        """Unit-normalized distribution at Cartesian velocity (ux,uy,uz)."""
        speed = np.sqrt(
            np.asarray(ux, dtype=np.float64) ** 2
            + np.asarray(uy, dtype=np.float64) ** 2
            + np.asarray(uz, dtype=np.float64) ** 2
        )
        return self.f_of_speed(speed)

    @property
    def mean_speed(self) -> float:
        """Mean speed <|u|> = 3.15137 u0 [km/s]."""
        return FD_MEAN_Y * self.u0

    @property
    def velocity_dispersion_1d(self) -> float:
        """1-D velocity dispersion sigma with sigma^2 = <u^2>/3 [km/s]."""
        return math.sqrt(_fd_mom2() / _FD_NORM / 3.0) * self.u0

    def velocity_cutoff(self, coverage: float = 0.999) -> float:
        """Grid half-width V enclosing the given fraction of neutrinos.

        The paper's velocity grid spans [-V, V) along each axis; V must be
        large enough that the truncated Fermi-Dirac tail carries negligible
        mass.  Solves P(|u| < V') = coverage for the *speed* distribution
        (conservative for the per-axis cutoff).
        """
        if not 0.0 < coverage < 1.0:
            raise ValueError("coverage must be in (0, 1)")
        from scipy import integrate

        ys = np.linspace(1.0e-6, 60.0, 4000)
        pdf = ys**2 / (np.exp(ys) + 1.0)
        cdf = integrate.cumulative_trapezoid(pdf, ys, initial=0.0)
        cdf /= cdf[-1]
        y_cut = float(np.interp(coverage, cdf, ys))
        return y_cut * self.u0

    # ------------------------------------------------------------------
    # sampling (for the comparison N-body neutrino runs, Figs. 5-6)
    # ------------------------------------------------------------------

    def sample_speeds(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw n speeds from the relic Fermi-Dirac speed distribution.

        Uses inverse-CDF sampling on a finely tabulated CDF of
        y^2/(e^y + 1); accurate to the table resolution (~1e-4 relative).
        """
        if n < 0:
            raise ValueError("n must be non-negative")
        from scipy import integrate, interpolate

        ys = np.linspace(1.0e-6, 60.0, 8192)
        pdf = ys**2 / (np.exp(ys) + 1.0)
        cdf = integrate.cumulative_trapezoid(pdf, ys, initial=0.0)
        cdf /= cdf[-1]
        inv = interpolate.interp1d(cdf, ys, bounds_error=False, fill_value=(ys[0], ys[-1]))
        return inv(rng.uniform(0.0, 1.0, size=n)) * self.u0

    def sample_velocities(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw n isotropic Cartesian velocities, shape (n, 3) [km/s]."""
        speeds = self.sample_speeds(n, rng)
        # isotropic directions
        cos_t = rng.uniform(-1.0, 1.0, size=n)
        sin_t = np.sqrt(np.maximum(1.0 - cos_t**2, 0.0))
        phi = rng.uniform(0.0, 2.0 * math.pi, size=n)
        return np.column_stack(
            (
                speeds * sin_t * np.cos(phi),
                speeds * sin_t * np.sin(phi),
                speeds * cos_t,
            )
        )
