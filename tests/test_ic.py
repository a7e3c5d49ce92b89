"""Initial conditions: Gaussian fields, Zel'dovich, the neutrino f."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cosmology import LinearPower, RelicNeutrinoDistribution, growth_factor
from repro.core.mesh import PhaseSpaceGrid
from repro.ic import (
    FourierGrid,
    displacement_field,
    filter_field_fourier,
    gaussian_field_fourier,
    measure_power,
    neutrino_distribution_function,
    sample_neutrino_particles,
    zeldovich_particles,
)

from .helpers import gaussian_field


class TestGaussianField:
    def test_measured_power_matches_input(self, rng):
        """The estimator recovers the input spectrum (averaged over many
        modes, power-law input for broad coverage)."""
        grid = FourierGrid((48, 48, 48), 100.0)

        def power(k):
            return 500.0 * (k / 0.1) ** (-1.5)

        delta = gaussian_field(grid, power, rng)
        k, p, counts = measure_power(delta, 100.0, n_bins=8)
        expected = power(k)
        # bins with many modes: ~10% agreement
        good = counts > 200
        assert np.all(np.abs(p[good] / expected[good] - 1) < 0.3)

    def test_field_is_zero_mean(self, rng):
        grid = FourierGrid((16, 16, 16), 10.0)
        delta = gaussian_field(grid, lambda k: np.ones_like(k), rng)
        assert abs(delta.mean()) < 1e-12

    def test_fourier_layout_hermitian(self, rng):
        grid = FourierGrid((12, 12, 12), 10.0)
        dk = gaussian_field_fourier(grid, lambda k: np.ones_like(k), rng)
        real = np.fft.irfftn(dk, s=grid.n_mesh, axes=range(3))
        assert np.all(np.isreal(real))

    def test_negative_power_rejected(self, rng):
        grid = FourierGrid((8, 8), 1.0)
        with pytest.raises(ValueError):
            gaussian_field(grid, lambda k: -np.ones_like(k), rng)

    def test_filter_changes_amplitude_not_phase(self, rng):
        grid = FourierGrid((16, 16), 10.0)
        dk = gaussian_field_fourier(grid, lambda k: np.ones_like(k), rng)
        filtered = filter_field_fourier(dk, grid, lambda k: 0.5 * np.ones_like(k))
        nz = np.abs(dk) > 0
        assert np.allclose(filtered[nz] / dk[nz], 0.5)

    def test_parseval(self, rng):
        """Variance of the field equals the integral of its spectrum."""
        grid = FourierGrid((32, 32, 32), 50.0)
        delta = gaussian_field(grid, lambda k: 100.0 * np.ones_like(k), rng)
        # sum of P over modes / V = variance
        var_expected = 100.0 * (grid.n_cells - 1) / grid.volume
        assert delta.var() == pytest.approx(var_expected, rel=0.05)


class TestZeldovich:
    def test_displacement_divergence_is_minus_delta(self, rng):
        """delta = -div(psi) to linear order — exact in k space."""
        # band-limited spectrum: negligible power at the Nyquist modes,
        # where the spectral-derivative identity is ambiguous
        grid = FourierGrid((24, 24, 24), 60.0)
        dk = gaussian_field_fourier(grid, lambda k: np.exp(-((k / 0.3) ** 2)), rng)
        psi = displacement_field(dk, grid)
        # spectral divergence
        div = np.zeros(grid.n_mesh)
        for d in range(3):
            psi_k = np.fft.rfftn(psi[d])
            div += np.fft.irfftn(
                psi_k * (1j * grid.k_axes()[d]), s=grid.n_mesh, axes=range(3)
            )
        delta = np.fft.irfftn(dk, s=grid.n_mesh, axes=range(3))
        # exact except at the Nyquist planes, where a real field cannot
        # carry the odd (sine) component of the spectral derivative; the
        # band-limited spectrum keeps that residual at the 1e-4 level
        assert np.allclose(-div, delta, atol=1e-4 * np.abs(delta).max())

    def test_particles_reproduce_linear_density(self, cosmo, rng):
        """CIC density of the displaced lattice ~ D(a) * delta_linear."""
        from repro.nbody.pm import assign_mass

        n_mesh = 24
        grid = FourierGrid((n_mesh,) * 3, 200.0)
        power = LinearPower(cosmo)
        dk = gaussian_field_fourier(grid, lambda k: power(k), rng)
        a_start = 1.0 / 21.0
        p = zeldovich_particles(dk, grid, cosmo, a_start, n_side=48, total_mass=1.0)
        rho = assign_mass(p.positions, p.masses, (n_mesh,) * 3, 200.0, "cic")
        delta_meas = rho / rho.mean() - 1.0
        d = float(growth_factor(cosmo, a_start))
        delta_lin = d * np.fft.irfftn(dk, s=grid.n_mesh, axes=range(3))

        # compare below half-Nyquist, where the lattice/window artifacts
        # of the discrete representations are small
        k_nyq = np.pi * n_mesh / 200.0
        k = grid.k_magnitude()

        def lowpass(x):
            xk = np.fft.rfftn(x)
            return np.fft.irfftn(
                np.where(k < 0.5 * k_nyq, xk, 0), s=grid.n_mesh, axes=range(3)
            )

        dm, dl = lowpass(delta_meas), lowpass(delta_lin)
        cc = np.corrcoef(dm.ravel(), dl.ravel())[0, 1]
        assert cc > 0.98
        slope = (dm * dl).sum() / (dl**2).sum()
        # CIC window suppresses the band's upper end by ~15%
        assert 0.7 < slope < 1.1

    def test_growing_mode_velocity_direction(self, cosmo, rng):
        """Velocities parallel to displacements (growing mode)."""
        grid = FourierGrid((16,) * 3, 100.0)
        power = LinearPower(cosmo)
        dk = gaussian_field_fourier(grid, lambda k: power(k), rng)
        p = zeldovich_particles(dk, grid, cosmo, 0.1, n_side=16, total_mass=1.0)
        psi = displacement_field(dk, grid)
        psi_flat = np.column_stack([psi[d].ravel() for d in range(3)])
        d0 = float(growth_factor(cosmo, 0.1))
        # u = a^2 H f D psi: positive multiple of psi
        ratio = (p.velocities * (d0 * psi_flat)).sum() / (
            (d0 * psi_flat) ** 2
        ).sum()
        assert ratio > 0

    def test_a_start_validation(self, cosmo, rng):
        grid = FourierGrid((8,) * 3, 10.0)
        dk = gaussian_field_fourier(grid, lambda k: np.ones_like(k), rng)
        with pytest.raises(ValueError):
            zeldovich_particles(dk, grid, cosmo, 1.5, 8, 1.0)


class TestNeutrinoIC:
    @pytest.fixture
    def fd(self, cosmo):
        return RelicNeutrinoDistribution(cosmo.m_nu_total_ev / 3.0, cosmo.units)

    def test_homogeneous_normalization(self, fd):
        grid = PhaseSpaceGrid(
            nx=(4, 4, 4), nu=(16, 16, 16), box_size=100.0,
            v_max=fd.velocity_cutoff(0.999),
        )
        f = neutrino_distribution_function(grid, fd, mean_density=2.5)
        from repro.core import moments

        total = moments.total_mass(f, grid)
        # velocity truncation + midpoint error: ~1%
        assert total == pytest.approx(2.5 * 100.0**3, rel=0.02)

    def test_density_modulation(self, fd, rng):
        grid = PhaseSpaceGrid(
            nx=(6, 6, 6), nu=(8, 8, 8), box_size=50.0, v_max=4 * fd.u0
        )
        delta = 0.1 * rng.standard_normal(grid.nx)
        f = neutrino_distribution_function(grid, fd, 1.0, delta=delta)
        from repro.core import moments

        rho = moments.density(f, grid)
        meas = rho / rho.mean() - 1
        assert np.corrcoef(meas.ravel(), delta.ravel())[0, 1] > 0.999

    def test_bulk_velocity_shifts_mean(self, fd):
        grid = PhaseSpaceGrid(
            nx=(4, 4, 4), nu=(24, 24, 24), box_size=50.0, v_max=7 * fd.u0
        )
        bulk = np.zeros((3,) + grid.nx)
        bulk[0] = 0.5 * fd.u0
        f = neutrino_distribution_function(grid, fd, 1.0, bulk_velocity=bulk)
        from repro.core import moments

        vbar = moments.mean_velocity(f, grid)
        assert np.allclose(vbar[0], 0.5 * fd.u0, rtol=0.06)
        assert np.allclose(vbar[1], 0.0, atol=0.01 * fd.u0)

    def test_overdense_ic_rejected(self, fd):
        grid = PhaseSpaceGrid(nx=(4,), nu=(8,), box_size=1.0, v_max=4 * fd.u0)
        with pytest.raises(ValueError):
            neutrino_distribution_function(
                grid, fd, 1.0, delta=np.full(grid.nx, -1.5)
            )

    def test_reduced_dim_normalized(self, fd):
        """1D1V marginal: unit-normalized in 1-D velocity space."""
        grid = PhaseSpaceGrid(
            nx=(8,), nu=(256,), box_size=10.0, v_max=30 * fd.u0, dtype=np.float64
        )
        f = neutrino_distribution_function(grid, fd, 1.0)
        from repro.core import moments

        assert moments.total_mass(f, grid) == pytest.approx(10.0, rel=1e-3)

    def test_particle_sampling_matches_field(self, fd, rng):
        """The N-body sampling of the same IC: same density field up to
        shot noise, same speed distribution."""
        grid_nx = (6, 6, 6)
        delta = 0.3 * np.sin(
            2 * np.pi * np.arange(6) / 6
        ).reshape(6, 1, 1) * np.ones(grid_nx)
        p = sample_neutrino_particles(
            60_000, fd, box_size=60.0, total_mass=1.0, rng=rng, delta=delta
        )
        from repro.nbody.pm import assign_mass

        rho = assign_mass(p.positions, p.masses, grid_nx, 60.0, "ngp")
        meas = rho / rho.mean() - 1
        assert np.corrcoef(meas.ravel(), delta.ravel())[0, 1] > 0.9
        speeds = np.sqrt((p.velocities**2).sum(axis=1))
        assert speeds.mean() == pytest.approx(fd.mean_speed, rel=0.02)
