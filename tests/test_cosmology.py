"""Background cosmology, growth, power spectrum, relic neutrinos."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cosmology import (
    Cosmology,
    LinearPower,
    RelicNeutrinoDistribution,
    eisenstein_hu_transfer,
    growth_factor,
    growth_rate,
    growth_suppression_factor,
    neutrino_free_streaming_k,
)
from repro.cosmology.neutrino import FD_MEAN_Y, FD_MEANSQ_Y


@pytest.mark.smoke
def test_the_run_path_imports_without_scipy_integrate():
    """``scipy.integrate`` (with the ``special`` / ``optimize`` /
    ``sparse.linalg`` / ``numpy.testing`` it drags in) is a third of
    ``import repro.runtime``.  The ``Cosmology`` integrals a run takes
    are Gauss-Legendre rules on numpy: none of them loads any scipy."""
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import sys, repro.runtime, repro.cosmology as c\n"
        "cosmo = c.Cosmology()\n"
        "cosmo.drift_factor(0.5, 0.6)\n"
        "c.growth_factor(cosmo, 0.5)\n"
        "c.LinearPower(cosmo).amplitude\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        "assert not loaded, loaded[:8]\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_fd_mean_square_is_the_quadrature_it_always_was():
    from scipy import integrate

    from repro.constants import ZETA3
    from repro.cosmology import neutrino

    mom2 = integrate.quad(lambda y: y**4 / (np.exp(y) + 1.0), 0.0, 80.0)[0]
    assert FD_MEANSQ_Y == neutrino.FD_MEANSQ_Y == mom2 / (1.5 * ZETA3)
    assert FD_MEANSQ_Y == pytest.approx(12.939, rel=1e-4)
    with pytest.raises(AttributeError):
        neutrino.FD_MEANCUBE_Y


def tight_quad(f, lo, hi):
    """The adaptive reference the fixed rules are pinned against."""
    from scipy import integrate

    return integrate.quad(f, lo, hi, epsabs=0.0, epsrel=1e-13, limit=4000)[0]


class TestQuadratureAgainstTightReference:
    """Every integral a hybrid run takes, against a converged ``quad``."""

    def test_kick_and_drift_over_the_hybrid_schedule(self, cosmo):
        from repro.nbody.integrator import scale_factor_steps

        schedule = scale_factor_steps(1.0 / 11.0, 1.0, 20)  # hybrid_pm's
        for a0, a1 in zip(schedule[:-1], schedule[1:]):
            for factor, power in ((cosmo.kick_factor, 1), (cosmo.drift_factor, 3)):
                ref = tight_quad(lambda a: 1.0 / (a**power * cosmo.hubble(a)), a0, a1)
                assert factor(a0, a1) == pytest.approx(ref, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("a", [1e-3, 0.05, 1.0 / 11.0, 0.5, 1.0])
    def test_growth_factor(self, cosmo, a):
        from repro.cosmology.growth import growth_factor_unnormalized

        integral = tight_quad(lambda x: x**-3.0 * cosmo.e_of_a(x) ** -3.0, 0.0, a)
        ref = 2.5 * cosmo.omega_m * cosmo.e_of_a(a) * integral
        assert growth_factor_unnormalized(cosmo, a) == pytest.approx(
            ref, rel=1e-12, abs=0.0
        )

    def test_growth_factor_of_an_array_is_the_scalars(self, cosmo):
        from repro.cosmology.growth import growth_factor_unnormalized

        a = np.array([1e-3, 0.05, 0.5, 1.0])
        each = [growth_factor_unnormalized(cosmo, float(x)) for x in a]
        assert growth_factor_unnormalized(cosmo, a).tolist() == each

    def test_sigma8_normalisation(self, cosmo):
        """An adaptive ``quad(limit=400)`` lands 7.9e-5 off this, with no
        warning."""
        shape = LinearPower(cosmo)._shape

        def integrand(lnk):
            k = np.exp(lnk)
            x = 8.0 * k
            w = 3.0 * (np.sin(x) - x * np.cos(x)) / x**3 if x >= 1e-4 else 1.0
            return k**3 * float(shape(np.asarray(k))) * w**2

        ref = tight_quad(integrand, np.log(1e-5), np.log(1e3)) / (2.0 * np.pi**2)
        raw = LinearPower(cosmo)._sigma_r_squared_unnormalized(8.0)
        assert raw == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_velocity_cutoff_is_the_cumulative_trapezoid(self, cosmo):
        from scipy import integrate

        fd = RelicNeutrinoDistribution(cosmo.m_nu_total_ev / 3.0, cosmo.units)
        ys = np.linspace(1.0e-6, 60.0, 4000)
        cdf = integrate.cumulative_trapezoid(ys**2 / (np.exp(ys) + 1.0), ys,
                                             initial=0.0)
        for coverage in (0.99, 0.997, 0.999):
            y_cut = float(np.interp(coverage, cdf / cdf[-1], ys))
            assert fd.velocity_cutoff(coverage) == y_cut * fd.u0

    def test_the_reduced_fermi_dirac_profiles_are_unit_normalised(self, cosmo):
        """``_fd_profile`` normalises 1-D and 2-D by closed forms:
        int_0^inf dy / (e^y + 1) = ln 2, int_0^inf 2 pi y dy / (e^y + 1)
        = pi^3 / 6."""
        from repro.ic.neutrino_ic import _fd_profile

        fd = RelicNeutrinoDistribution(cosmo.m_nu_total_ev / 3.0, cosmo.units)
        one = 2.0 * tight_quad(
            lambda u: float(_fd_profile(np.asarray(u), fd, 1)), 0.0, np.inf)
        two = tight_quad(
            lambda u: 2.0 * np.pi * u * float(_fd_profile(np.asarray(u), fd, 2)),
            0.0, np.inf)
        assert one == pytest.approx(1.0, rel=1e-14, abs=0.0)
        assert two == pytest.approx(1.0, rel=1e-14, abs=0.0)


class TestBackground:
    def test_density_budget_closes(self, cosmo):
        assert cosmo.omega_cdm + cosmo.omega_b + cosmo.omega_nu == pytest.approx(
            cosmo.omega_m
        )
        assert cosmo.omega_m + cosmo.omega_lambda == pytest.approx(1.0)

    def test_neutrino_fraction(self, cosmo):
        # M_nu = 0.4 eV -> f_nu ~ 3%
        assert cosmo.f_nu == pytest.approx(0.030, abs=0.005)

    def test_e_of_a_today(self, cosmo):
        assert cosmo.e_of_a(1.0) == pytest.approx(1.0)

    def test_e_of_a_matter_domination(self, cosmo):
        # deep in matter domination E ~ sqrt(Om/a^3)
        a = 0.02
        assert cosmo.e_of_a(a) == pytest.approx(
            np.sqrt(cosmo.omega_m / a**3), rel=1e-3
        )

    def test_kick_drift_integrals_match_quadrature(self, cosmo):
        # trivially small interval: integrand ~ constant
        a0, a1 = 0.5, 0.5001
        da = a1 - a0
        assert cosmo.kick_factor(a0, a1) == pytest.approx(
            da / (a0 * cosmo.hubble(a0)), rel=1e-3
        )
        assert cosmo.drift_factor(a0, a1) == pytest.approx(
            da / (a0**3 * cosmo.hubble(a0)), rel=1e-3
        )

    def test_kick_factor_additivity(self, cosmo):
        assert cosmo.kick_factor(0.2, 0.8) == pytest.approx(
            cosmo.kick_factor(0.2, 0.5) + cosmo.kick_factor(0.5, 0.8)
        )

    def test_forward_only(self, cosmo):
        with pytest.raises(ValueError):
            cosmo.kick_factor(0.8, 0.2)

    def test_rejects_overloaded_neutrinos(self):
        with pytest.raises(ValueError):
            Cosmology(m_nu_total_ev=30.0)


class TestGrowth:
    def test_normalized_today(self, cosmo):
        assert growth_factor(cosmo, 1.0) == pytest.approx(1.0)

    def test_matter_domination_limit(self, cosmo):
        # D ~ a in matter domination: D(0.01)/D(0.005) ~ 2
        ratio = growth_factor(cosmo, 0.01) / growth_factor(cosmo, 0.005)
        assert ratio == pytest.approx(2.0, rel=0.01)

    def test_growth_suppressed_by_lambda(self, cosmo):
        # D(a=0.5) > 0.5 * D(1): growth slower than a at late times
        assert growth_factor(cosmo, 0.5) > 0.5

    def test_growth_rate_matches_omega_power(self, cosmo):
        # f ~ Omega_m(a)^0.55 to ~1%
        for a in (0.3, 0.6, 1.0):
            omega_m_of_a = cosmo.omega_m / a**3 / cosmo.e_of_a(a) ** 2
            assert growth_rate(cosmo, a) == pytest.approx(omega_m_of_a**0.55, rel=0.02)

    def test_free_streaming_scale(self, cosmo):
        # k_fs(a=1) ~ 0.1 h/Mpc for M_nu = 0.4 eV
        kfs = neutrino_free_streaming_k(cosmo, 1.0)
        assert 0.05 < kfs < 0.2

    def test_suppression_asymptotes(self, cosmo):
        assert growth_suppression_factor(cosmo, 1e-4) == pytest.approx(1.0, abs=1e-4)
        assert growth_suppression_factor(cosmo, 1e3) == pytest.approx(
            1.0 - 8.0 * cosmo.f_nu, rel=1e-3
        )

    def test_suppression_monotone(self, cosmo):
        k = np.geomspace(1e-3, 10, 40)
        s = growth_suppression_factor(cosmo, k)
        assert np.all(np.diff(s) <= 1e-12)

    def test_no_suppression_without_neutrinos(self):
        c = Cosmology(m_nu_total_ev=0.0)
        assert growth_suppression_factor(c, 1.0) == pytest.approx(1.0)


class TestPower:
    def test_sigma8_normalization(self, cosmo):
        p = LinearPower(cosmo)
        sigma8 = np.sqrt(p.amplitude * p._sigma_r_squared_unnormalized(8.0))
        assert sigma8 == pytest.approx(cosmo.sigma8, rel=1e-3)

    def test_transfer_normalized_at_large_scales(self, cosmo):
        assert eisenstein_hu_transfer(cosmo, 1e-5) == pytest.approx(1.0, abs=1e-2)

    def test_transfer_decreasing(self, cosmo):
        k = np.geomspace(1e-3, 10.0, 50)
        t = eisenstein_hu_transfer(cosmo, k)
        assert np.all(np.diff(t) < 0.0)

    def test_power_peak_location(self, cosmo):
        # the matter power spectrum peaks near k ~ 0.016 h/Mpc
        k = np.geomspace(1e-3, 1.0, 400)
        p = LinearPower(cosmo)(k)
        k_peak = k[np.argmax(p)]
        assert 0.005 < k_peak < 0.05

    def test_growth_scaling(self, cosmo):
        p = LinearPower(cosmo)
        d = growth_factor(cosmo, 0.5)
        assert p(0.1, a=0.5) == pytest.approx(p(0.1) * d**2, rel=1e-6)

    def test_neutrino_suppression_applied(self, cosmo):
        p0 = LinearPower(cosmo, neutrino_suppressed=False)
        p1 = LinearPower(cosmo, neutrino_suppressed=True)
        assert p1(5.0) < p0(5.0)
        assert p1(5.0) / p0(5.0) == pytest.approx(1 - 8 * cosmo.f_nu, rel=0.05)


class TestRelicNeutrinos:
    @pytest.fixture
    def fd(self, cosmo):
        return RelicNeutrinoDistribution(cosmo.m_nu_total_ev / 3.0, cosmo.units)

    def test_velocity_scale(self, fd):
        # u0 = k T_nu c / (m c^2): ~377 km/s for 0.1333 eV
        assert fd.u0 == pytest.approx(377.0, rel=0.01)

    def test_mean_speed_constant(self, fd):
        assert fd.mean_speed == pytest.approx(FD_MEAN_Y * fd.u0, rel=1e-9)
        assert FD_MEAN_Y == pytest.approx(3.15137, rel=1e-4)

    def test_distribution_normalized(self, fd):
        # int f d^3u = 1 by spherical quadrature
        u = np.linspace(1e-3, 30 * fd.u0, 20000)
        integrand = 4 * np.pi * u**2 * fd.f_of_speed(u)
        total = np.trapezoid(integrand, u)
        assert total == pytest.approx(1.0, rel=1e-4)

    def test_velocity_cutoff_monotone(self, fd):
        assert fd.velocity_cutoff(0.999) > fd.velocity_cutoff(0.99)

    def test_velocity_cutoff_covers(self, fd):
        v = fd.velocity_cutoff(0.999)
        u = np.linspace(1e-3, v, 20000)
        covered = np.trapezoid(4 * np.pi * u**2 * fd.f_of_speed(u), u)
        assert covered == pytest.approx(0.999, abs=2e-3)

    def test_sampling_moments(self, fd, rng):
        v = fd.sample_velocities(200_000, rng)
        speeds = np.sqrt((v**2).sum(axis=1))
        assert speeds.mean() == pytest.approx(fd.mean_speed, rel=0.01)
        assert v.mean(axis=0) == pytest.approx([0.0] * 3, abs=5 * fd.u0 / np.sqrt(2e5))
        # 1-D dispersion: sigma^2 = <u^2>/3
        sigma_1d = np.sqrt(FD_MEANSQ_Y / 3) * fd.u0
        assert v[:, 0].std() == pytest.approx(sigma_1d, rel=0.02)

    def test_isotropy(self, fd, rng):
        v = fd.sample_velocities(100_000, rng)
        # off-diagonal correlations vanish
        c = np.corrcoef(v.T)
        assert abs(c[0, 1]) < 0.02 and abs(c[0, 2]) < 0.02 and abs(c[1, 2]) < 0.02

    def test_rejects_bad_mass(self, cosmo):
        with pytest.raises(ValueError):
            RelicNeutrinoDistribution(-1.0, cosmo.units)
