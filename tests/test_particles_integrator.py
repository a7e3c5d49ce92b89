"""Particle container and the comoving KDK integrator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nbody.integrator import LeapfrogKDK, scale_factor_steps
from repro.nbody.particles import ParticleSet


class TestParticleSet:
    def test_wrap_on_construction(self):
        p = ParticleSet(
            np.array([[11.0, -1.0, 5.0]]), np.zeros((1, 3)), np.ones(1), 10.0
        )
        assert np.all(p.positions >= 0.0) and np.all(p.positions < 10.0)
        assert p.positions[0, 0] == pytest.approx(1.0)
        assert p.positions[0, 1] == pytest.approx(9.0)

    def test_scalar_mass_broadcast(self):
        p = ParticleSet(np.zeros((3, 2)), np.zeros((3, 2)), np.array(2.0), 1.0)
        assert p.masses.shape == (3,)
        assert p.total_mass == pytest.approx(6.0)

    def test_uniform_lattice(self):
        p = ParticleSet.uniform_lattice(4, 8.0, total_mass=64.0, dim=3)
        assert p.n == 64
        assert p.total_mass == pytest.approx(64.0)
        # lattice spacing 2, first point at 1
        assert p.positions.min() == pytest.approx(1.0)

    def test_uniform_random_bounds(self, rng):
        p = ParticleSet.uniform_random(100, 5.0, 10.0, rng)
        assert np.all(p.positions >= 0) and np.all(p.positions < 5.0)
        assert p.total_mass == pytest.approx(10.0)

    def test_drift_and_wrap(self):
        p = ParticleSet(
            np.array([[9.5, 5.0, 5.0]]), np.array([[1.0, 0.0, 0.0]]), np.ones(1), 10.0
        )
        p.drift(1.0)
        assert p.positions[0, 0] == pytest.approx(0.5)

    def test_kick(self):
        p = ParticleSet(np.zeros((2, 3)), np.zeros((2, 3)), np.ones(2), 1.0)
        p.kick(np.full((2, 3), 0.5), 2.0)
        assert np.allclose(p.velocities, 1.0)

    def test_kick_shape_validated(self):
        p = ParticleSet(np.zeros((2, 3)), np.zeros((2, 3)), np.ones(2), 1.0)
        with pytest.raises(ValueError):
            p.kick(np.zeros((3, 3)), 1.0)

    def test_kinetic_energy(self):
        p = ParticleSet(
            np.zeros((2, 3)),
            np.array([[1.0, 0, 0], [0, 2.0, 0]]),
            np.array([2.0, 1.0]),
            1.0,
        )
        assert p.kinetic_energy() == pytest.approx(0.5 * (2 * 1 + 1 * 4))

    def test_minimum_image(self):
        p = ParticleSet(np.zeros((1, 3)), np.zeros((1, 3)), np.ones(1), 10.0)
        d = p.minimum_image(np.array([[7.0, -6.0, 3.0]]))
        assert np.allclose(d, [[-3.0, 4.0, 3.0]])

    def test_validation(self):
        with pytest.raises(ValueError):
            ParticleSet(np.zeros(3), np.zeros(3), np.ones(1), 1.0)
        with pytest.raises(ValueError):
            ParticleSet(np.zeros((2, 3)), np.zeros((3, 3)), np.ones(2), 1.0)
        with pytest.raises(ValueError):
            ParticleSet(np.zeros((2, 3)), np.zeros((2, 3)), np.ones(2), -1.0)


class TestLeapfrog:
    def test_static_harmonic_oscillator_energy(self):
        """KDK on a harmonic force conserves energy over many periods
        (symplectic: bounded oscillation, no drift)."""
        k_spring = 1.0

        def accel(p, a):
            # harmonic well around box center, non-periodic distances here
            return -k_spring * (p.positions - 5.0)

        p = ParticleSet(
            np.array([[6.0, 5.0, 5.0]]), np.zeros((1, 3)), np.ones(1), 10.0
        )
        stepper = LeapfrogKDK(accel_fn=accel)
        energies = []
        for _ in range(500):
            stepper.step(p, 0.05)
            e = p.kinetic_energy() + 0.5 * k_spring * (
                (p.positions[0] - 5.0) ** 2
            ).sum()
            energies.append(e)
        energies = np.array(energies)
        assert energies.std() / energies.mean() < 1e-3

    def test_static_second_order(self):
        """Position error after fixed time scales as dt^2."""
        def accel(p, a):
            return -(p.positions - 5.0)

        def run(dt):
            p = ParticleSet(
                np.array([[6.0, 5.0, 5.0]]), np.zeros((1, 3)), np.ones(1), 10.0
            )
            stepper = LeapfrogKDK(accel_fn=accel)
            n = int(round(2.0 / dt))
            for _ in range(n):
                stepper.step(p, dt)
            return p.positions[0, 0]

        exact = 5.0 + np.cos(2.0)
        e1 = abs(run(0.02) - exact)
        e2 = abs(run(0.01) - exact)
        assert e1 / e2 > 3.0  # ~4 for 2nd order

    def test_cosmological_step_requires_cosmology(self):
        stepper = LeapfrogKDK(accel_fn=lambda p, a: np.zeros_like(p.positions))
        p = ParticleSet(np.zeros((1, 3)), np.zeros((1, 3)), np.ones(1), 1.0)
        with pytest.raises(ValueError):
            stepper.step_cosmological(p, 0.5, 0.6)

    def test_cosmological_zero_force_free_stream(self, cosmo):
        """With zero force, u is constant and x moves by the exact drift
        integral — the comoving kinematics check."""
        stepper = LeapfrogKDK(
            accel_fn=lambda p, a: np.zeros_like(p.positions), cosmology=cosmo
        )
        p = ParticleSet(
            np.array([[10.0, 10.0, 10.0]]),
            np.array([[100.0, 0.0, 0.0]]),
            np.ones(1),
            1000.0,
        )
        stepper.step_cosmological(p, 0.5, 0.6)
        expected = 10.0 + 100.0 * cosmo.drift_factor(0.5, 0.6)
        assert p.positions[0, 0] == pytest.approx(expected)
        assert p.velocities[0, 0] == pytest.approx(100.0)


class TestSchedule:
    def test_log_spacing(self):
        s = scale_factor_steps(0.1, 1.0, 10, "log")
        assert len(s) == 11
        assert s[0] == pytest.approx(0.1) and s[-1] == pytest.approx(1.0)
        ratios = s[1:] / s[:-1]
        assert np.allclose(ratios, ratios[0])

    def test_linear_spacing(self):
        s = scale_factor_steps(0.2, 1.0, 4, "linear")
        assert np.allclose(s, [0.2, 0.4, 0.6, 0.8, 1.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            scale_factor_steps(1.0, 0.5, 4)
        with pytest.raises(ValueError):
            scale_factor_steps(0.1, 1.0, 0)
        with pytest.raises(ValueError):
            scale_factor_steps(0.1, 1.0, 4, "geometric")
