"""Background (FLRW) cosmology for a flat LambdaCDM + massive-neutrino model.

The expansion history enters the Vlasov equation (paper Eq. 1) through the
scale factor a(t) and the Poisson equation (Eq. 2) through a(t)^2 and the
mean density.  This module provides a :class:`Cosmology` dataclass with the
standard background quantities evaluated by quadrature, in the internal unit
system of :mod:`repro.units`.

Massive neutrinos are treated as non-relativistic matter in the background
(adequate for the z <= 10 simulations of the paper, where 0.2-0.4 eV
neutrinos are already non-relativistic), but their *dynamics* are of course
followed kinetically by the Vlasov solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .. import constants as cst
from ..units import UnitSystem


@dataclass(frozen=True)
class Cosmology:
    """Flat LambdaCDM cosmology with massive neutrinos.

    Parameters follow Planck 2015 (paper ref. [18]) by default.

    Attributes
    ----------
    h:
        Normalized Hubble constant.
    omega_m:
        Total matter density parameter today (CDM + baryons + neutrinos).
    omega_b:
        Baryon density parameter today.
    m_nu_total_ev:
        Sum of the three neutrino mass eigenvalues [eV].  The paper's
        flagship runs use 0.4 eV (close to the CMB upper limit) and 0.2 eV.
    n_s:
        Scalar spectral index of the primordial power spectrum.
    sigma8:
        RMS linear density fluctuation in 8 h^-1 Mpc spheres today.
    t_cmb:
        CMB temperature today [K].
    """

    h: float = 0.6774
    omega_m: float = 0.3089
    omega_b: float = 0.0486
    m_nu_total_ev: float = 0.4
    n_s: float = 0.9667
    sigma8: float = 0.8159
    t_cmb: float = cst.T_CMB
    units: UnitSystem = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.units is None:
            object.__setattr__(self, "units", UnitSystem(h=self.h))
        elif abs(self.units.h - self.h) > 1e-12:
            raise ValueError("units.h must match cosmology h")
        if not 0.0 < self.omega_m < 1.5:
            raise ValueError(f"unphysical omega_m = {self.omega_m}")
        if self.omega_b < 0.0 or self.omega_b > self.omega_m:
            raise ValueError("need 0 <= omega_b <= omega_m")
        if self.omega_nu > self.omega_m - self.omega_b:
            raise ValueError(
                "neutrino density exceeds the available non-baryonic matter"
            )

    # ------------------------------------------------------------------
    # density parameters
    # ------------------------------------------------------------------

    @property
    def omega_nu(self) -> float:
        """Neutrino density parameter today."""
        return cst.neutrino_omega(self.m_nu_total_ev, self.h)

    @property
    def omega_cdm(self) -> float:
        """CDM density parameter today (matter minus baryons and neutrinos)."""
        return self.omega_m - self.omega_b - self.omega_nu

    @property
    def omega_lambda(self) -> float:
        """Dark-energy density parameter (flatness: 1 - omega_m)."""
        return 1.0 - self.omega_m

    @property
    def f_nu(self) -> float:
        """Neutrino fraction of total matter, Omega_nu / Omega_m."""
        return self.omega_nu / self.omega_m

    @property
    def rho_mean_matter(self) -> float:
        """Comoving mean matter density [internal mass / (h^-1 Mpc)^3]."""
        return self.omega_m * self.units.rho_crit

    # ------------------------------------------------------------------
    # expansion history
    # ------------------------------------------------------------------

    def e_of_a(self, a):
        """Dimensionless Hubble rate E(a) = H(a)/H0 for flat LCDM+nu.

        Radiation is neglected (negligible for the z <= 10 epochs the
        paper simulates; its omission changes E by < 0.2% at z = 10).
        """
        a = np.asarray(a, dtype=np.float64)
        if np.any(a <= 0.0):
            raise ValueError("scale factor must be positive")
        return np.sqrt(self.omega_m / a**3 + self.omega_lambda)

    def hubble(self, a):
        """Hubble rate H(a) in internal units (km/s per h^-1 Mpc)."""
        return self.units.H0 * self.e_of_a(a)

    def omega_m_of_a(self, a):
        """Matter density parameter at scale factor a."""
        a = np.asarray(a, dtype=np.float64)
        return self.omega_m / a**3 / self.e_of_a(a) ** 2

    # ------------------------------------------------------------------
    # times and redshift
    # ------------------------------------------------------------------

    @staticmethod
    def a_of_z(z):
        """Scale factor from redshift."""
        z = np.asarray(z, dtype=np.float64)
        if np.any(z <= -1.0):
            raise ValueError("redshift must be > -1")
        return 1.0 / (1.0 + z)

    @staticmethod
    def z_of_a(a):
        """Redshift from scale factor."""
        a = np.asarray(a, dtype=np.float64)
        return 1.0 / a - 1.0

    def cosmic_time(self, a: float) -> float:
        """Proper time since the Big Bang at scale factor a [internal units].

        t(a) = int_0^a da' / (a' H(a')).
        """
        if a <= 0.0:
            raise ValueError("scale factor must be positive")
        from scipy import integrate  # on use: most runs never integrate

        val, _ = integrate.quad(
            lambda x: 1.0 / (x * self.hubble(x)), 0.0, a, limit=200
        )
        return val

    def cosmic_time_gyr(self, a: float) -> float:
        """Proper time since the Big Bang at scale factor a [Gyr]."""
        return self.units.time_in_gyr(self.cosmic_time(a))

    # ------------------------------------------------------------------
    # integrals used by the comoving leapfrog / splitting operators
    # ------------------------------------------------------------------

    def drift_factor(self, a0: float, a1: float) -> float:
        """Drift prefactor int dt / a^2 between scale factors a0 and a1.

        With the canonical velocity u = a^2 dx/dt of the paper, a spatial
        advection ("drift") over a time step maps to a displacement
        u * int dt/a^2; using da = a H dt this is int da / (a^3 H).
        """
        return self._kick_drift_integral(a0, a1, power=3)

    def kick_factor(self, a0: float, a1: float) -> float:
        """Kick prefactor int dt between scale factors a0 and a1.

        The velocity advection ("kick") du/dt = -grad phi uses plain dt:
        int da / (a H).
        """
        return self._kick_drift_integral(a0, a1, power=1)

    def _kick_drift_integral(self, a0: float, a1: float, power: int) -> float:
        if a0 <= 0.0 or a1 <= 0.0:
            raise ValueError("scale factors must be positive")
        if a1 < a0:
            raise ValueError("a1 must be >= a0 (forward integration)")
        from scipy import integrate

        val, _ = integrate.quad(
            lambda a: 1.0 / (a**power * self.hubble(a)), a0, a1, limit=200
        )
        return val


#: The paper's fiducial cosmology (Planck 2015, M_nu = 0.4 eV).
PLANCK2015_MNU04 = Cosmology()

#: The lighter-neutrino variant shown in Fig. 4 (M_nu = 0.2 eV).
PLANCK2015_MNU02 = Cosmology(m_nu_total_ev=0.2)
