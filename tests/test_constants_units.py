"""Physical constants and the comoving unit system."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import constants as cst
from repro.units import DEFAULT_UNITS, UnitSystem


class TestConstants:
    def test_speed_of_light_cgs(self):
        assert cst.C_LIGHT == pytest.approx(2.99792458e10)

    def test_neutrino_temperature_ratio(self):
        assert cst.T_NU / cst.T_CMB == pytest.approx((4.0 / 11.0) ** (1.0 / 3.0))

    def test_fd_mean_momentum_constant(self):
        # <p>/T = 7 pi^4 / (180 zeta(3)) ~ 3.15137
        assert cst.FD_MEAN_P_OVER_T == pytest.approx(3.15137, rel=1e-5)

    def test_rho_crit_scale(self):
        # 3 H0^2 / (8 pi G) for h=1 ~ 1.878e-29 g/cm^3
        assert cst.RHO_CRIT_H2 == pytest.approx(1.878e-29, rel=1e-3)

    def test_omega_nu_standard_value(self):
        # M_nu = 0.4 eV, h = 0.6774: Omega_nu ~ 0.0094
        assert cst.neutrino_omega(0.4, 0.6774) == pytest.approx(0.00936, rel=1e-2)

    def test_omega_nu_zero_mass(self):
        assert cst.neutrino_omega(0.0, 0.7) == 0.0

    def test_omega_nu_rejects_negative_mass(self):
        with pytest.raises(ValueError):
            cst.neutrino_omega(-0.1, 0.7)

    def test_omega_nu_rejects_bad_h(self):
        with pytest.raises(ValueError):
            cst.neutrino_omega(0.1, 0.0)

    def test_thermal_velocity_today(self):
        # v_th ~ 3.15137 k T_nu c / (m c^2); for 0.1 eV ~ 1.58e8 cm/s
        v = cst.neutrino_thermal_velocity(0.1, a=1.0)
        expected = 3.15137 * cst.K_BOLTZMANN * cst.T_NU / (0.1 * cst.EV) * cst.C_LIGHT
        assert v == pytest.approx(expected, rel=1e-5)

    def test_thermal_velocity_redshift_scaling(self):
        v1 = cst.neutrino_thermal_velocity(0.2, a=1.0)
        v2 = cst.neutrino_thermal_velocity(0.2, a=0.5)
        assert v2 == pytest.approx(2.0 * v1)

    def test_thermal_velocity_mass_scaling(self):
        assert cst.neutrino_thermal_velocity(0.1) == pytest.approx(
            2.0 * cst.neutrino_thermal_velocity(0.2)
        )

    def test_thermal_velocity_rejects_bad_input(self):
        with pytest.raises(ValueError):
            cst.neutrino_thermal_velocity(0.0)
        with pytest.raises(ValueError):
            cst.neutrino_thermal_velocity(0.1, a=-1.0)


class TestUnitSystem:
    def test_gravitational_constant_gadget_value(self):
        # 43007.1 in (km/s)^2 kpc / 1e10 Msun -> /1000 for Mpc lengths
        assert DEFAULT_UNITS.G == pytest.approx(43.0071, rel=1e-3)

    def test_g_independent_of_h(self):
        assert UnitSystem(h=0.5).G == pytest.approx(UnitSystem(h=0.9).G)

    def test_hubble_internal(self):
        assert DEFAULT_UNITS.H0 == 100.0

    def test_rho_crit_gadget_value(self):
        # 27.7536627 in 1e10 h^-1 Msun / (h^-1 Mpc)^3
        assert DEFAULT_UNITS.rho_crit == pytest.approx(27.7536627, rel=1e-3)

    def test_neutrino_velocity_kms(self):
        # 0.4/3 eV eigenstate: ~1190 km/s today
        v = DEFAULT_UNITS.neutrino_velocity_kms(0.4 / 3.0)
        assert 1100 < v < 1300

    def test_rejects_unphysical_h(self):
        with pytest.raises(ValueError):
            UnitSystem(h=-0.1)
        with pytest.raises(ValueError):
            UnitSystem(h=3.0)
