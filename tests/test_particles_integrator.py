"""Particle container and the scale-factor schedule."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nbody.integrator import scale_factor_steps
from repro.nbody.particles import ParticleSet

from .helpers import uniform_lattice_particles, uniform_random_particles


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
        p = uniform_lattice_particles(4, 8.0, total_mass=64.0, dim=3)
        assert p.n == 64
        assert p.total_mass == pytest.approx(64.0)
        # lattice spacing 2, first point at 1
        assert p.positions.min() == pytest.approx(1.0)

    def test_uniform_random_bounds(self, rng):
        p = uniform_random_particles(100, 5.0, 10.0, rng)
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

    def test_validation(self):
        with pytest.raises(ValueError):
            ParticleSet(np.zeros(3), np.zeros(3), np.ones(1), 1.0)
        with pytest.raises(ValueError):
            ParticleSet(np.zeros((2, 3)), np.zeros((3, 3)), np.ones(2), 1.0)
        with pytest.raises(ValueError):
            ParticleSet(np.zeros((2, 3)), np.zeros((2, 3)), np.ones(2), -1.0)


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
