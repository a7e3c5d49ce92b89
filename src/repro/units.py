"""Comoving simulation unit system.

The whole library works in the unit system customary for cosmological
simulations (and used implicitly by the paper):

* length  — comoving h^-1 Mpc
* velocity — km/s (canonical velocity u = a^2 dx/dt, in km/s)
* mass    — 10^10 h^-1 M_sun
* the Hubble constant is H0 = 100 h km/s/Mpc; because lengths carry
  h^-1, that is H0 = 100 in internal (km/s per h^-1 Mpc) units
  *independent of h* (``UnitSystem.H0``).

With this choice the gravitational constant is a fixed number
(``UnitSystem.G``), and the critical density today is rho_crit =
27.7536627 internal mass units per (h^-1 Mpc)^3 independent of h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import constants as cst


@dataclass(frozen=True)
class UnitSystem:
    """A concrete realization of the comoving unit system for a given h.

    Attributes
    ----------
    h:
        Normalized Hubble constant.
    length_cgs:
        One internal length unit (h^-1 Mpc) in cm.
    velocity_cgs:
        One internal velocity unit (km/s) in cm/s.
    mass_cgs:
        One internal mass unit (1e10 h^-1 M_sun) in g.
    """

    h: float = 0.6774
    length_cgs: float = field(init=False)
    velocity_cgs: float = field(init=False)
    mass_cgs: float = field(init=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.h < 2.0:
            raise ValueError(f"unphysical h = {self.h}")
        object.__setattr__(self, "length_cgs", cst.MPC / self.h)
        object.__setattr__(self, "velocity_cgs", 1.0e5)
        object.__setattr__(self, "mass_cgs", 1.0e10 * cst.M_SUN / self.h)

    # -- derived constants ---------------------------------------------------

    @property
    def G(self) -> float:
        """Gravitational constant in internal units.

        G = 43007.1 (km/s)^2 (h^-1 Mpc) / (1e10 h^-1 M_sun) up to the
        precision of the CODATA inputs; independent of h because the h
        factors cancel.
        """
        return (
            cst.G_NEWTON
            * self.mass_cgs
            / (self.length_cgs * self.velocity_cgs**2)
        )

    @property
    def H0(self) -> float:
        """Hubble constant today in internal units: 100 km/s / (h^-1 Mpc)."""
        return 100.0

    @property
    def rho_crit(self) -> float:
        """Critical density today, internal mass units / (h^-1 Mpc)^3."""
        return 3.0 * self.H0**2 / (8.0 * math.pi * self.G)

    # -- conversions ----------------------------------------------------------

    def neutrino_velocity_kms(self, m_nu_ev: float, a: float = 1.0) -> float:
        """Thermal velocity of a relic neutrino eigenstate in km/s."""
        return cst.neutrino_thermal_velocity(m_nu_ev, a) / self.velocity_cgs


#: The default unit system (Planck-2015-like h, matching the paper's choice
#: of the standard cosmological model determined by CMB observations).
DEFAULT_UNITS = UnitSystem()
