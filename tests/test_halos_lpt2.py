"""FoF halos + neutrino condensation and the Casimir diagnostics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import (
    condensation_report,
    fof_halos,
    halo_neutrino_overdensity,
)
from repro.core import moments
from repro.core.mesh import PhaseSpaceGrid
from repro.nbody.particles import ParticleSet

from .helpers import casimir, entropy, uniform_random_particles


class TestFoF:
    @pytest.fixture
    def two_clumps(self, rng):
        pos = np.concatenate(
            [
                rng.normal(20.0, 0.5, (200, 3)),
                rng.normal(70.0, 0.5, (150, 3)),
                rng.uniform(0.0, 100.0, (100, 3)),
            ]
        ) % 100.0
        return ParticleSet(pos, np.zeros_like(pos), np.ones(450), 100.0)

    def test_finds_the_two_clumps(self, two_clumps):
        halos = fof_halos(two_clumps, linking_length=1.5, min_members=20)
        assert len(halos) == 2
        assert halos[0].n_particles >= halos[1].n_particles  # mass-sorted
        centers = sorted(h.center[0] for h in halos)
        assert centers[0] == pytest.approx(20.0, abs=0.5)
        assert centers[1] == pytest.approx(70.0, abs=0.5)

    def test_masses_and_radius(self, two_clumps):
        halos = fof_halos(two_clumps, linking_length=1.5, min_members=20)
        assert halos[0].mass == pytest.approx(halos[0].n_particles)
        # isotropic sigma=0.5 clump: rms 3-D radius ~ sqrt(3)*0.5
        assert halos[0].radius == pytest.approx(np.sqrt(3) * 0.5, rel=0.25)

    def test_min_members_filter(self, two_clumps):
        halos = fof_halos(two_clumps, linking_length=1.5, min_members=500)
        assert halos == []

    def test_periodic_wrap_clump(self, rng):
        """A clump straddling the periodic boundary is one halo with the
        correct (wrapped) center."""
        pos = rng.normal(0.0, 0.5, (120, 3)) % 50.0  # wraps around 0
        p = ParticleSet(pos, np.zeros_like(pos), np.ones(120), 50.0)
        halos = fof_halos(p, linking_length=1.5, min_members=50)
        assert len(halos) == 1
        center = halos[0].center
        dist = np.minimum(center, 50.0 - center)
        assert np.all(dist < 0.5)

    def test_uniform_particles_no_halos(self, rng):
        p = uniform_random_particles(400, 100.0, 1.0, rng)
        halos = fof_halos(p, b=0.2, min_members=30)
        assert len(halos) == 0  # Poisson field: no big groups at b=0.2

    def test_members_partition(self, two_clumps):
        halos = fof_halos(two_clumps, linking_length=1.5, min_members=20)
        all_members = np.concatenate([h.member_indices for h in halos])
        assert len(np.unique(all_members)) == len(all_members)

    def test_linking_length_validation(self, two_clumps):
        with pytest.raises(ValueError):
            fof_halos(two_clumps, linking_length=-1.0)


class TestCondensation:
    def test_neutrinos_condense_onto_halo(self, rng):
        """Put a neutrino overdensity at a known halo position; the
        statistic must report it (and ~0 elsewhere)."""
        grid = PhaseSpaceGrid(nx=(10,) * 3, nu=(4,) * 3, box_size=100.0, v_max=1.0)
        rho_nu = np.ones(grid.nx)
        rho_nu[2, 2, 2] = 3.0  # cell at position ~25

        pos = rng.normal(25.0, 1.0, (60, 3)) % 100.0
        halo_p = ParticleSet(pos, np.zeros_like(pos), np.ones(60), 100.0)
        halos = fof_halos(halo_p, linking_length=3.0, min_members=30)
        assert len(halos) == 1
        delta = halo_neutrino_overdensity(halos, rho_nu, grid, radius_cells=1.0)
        assert delta[0] > 0.1

        report = condensation_report(halos, delta)
        assert "delta_nu" in report

    def test_shape_validation(self):
        grid = PhaseSpaceGrid(nx=(8,) * 3, nu=(4,) * 3, box_size=10.0, v_max=1.0)
        with pytest.raises(ValueError):
            halo_neutrino_overdensity(
                [None], np.ones((4, 4, 4)), grid  # type: ignore[list-item]
            )

    def test_empty_halo_list(self):
        grid = PhaseSpaceGrid(nx=(8,) * 3, nu=(4,) * 3, box_size=10.0, v_max=1.0)
        assert halo_neutrino_overdensity([], np.ones(grid.nx), grid).size == 0
        assert condensation_report([], np.empty(0)) == "no halos found"


class TestCasimirs:
    @pytest.fixture
    def grid(self):
        return PhaseSpaceGrid(
            nx=(32,), nu=(64,), box_size=10.0, v_max=4.0, dtype=np.float64
        )

    def test_entropy_of_uniform_f(self, grid):
        f = np.full(grid.shape, 2.0)
        # -int f ln f = -2 ln 2 * phase-space volume
        vol = grid.box_size * 2 * grid.v_max
        assert entropy(f, grid) == pytest.approx(-2 * np.log(2) * vol)

    def test_casimir_p2_is_l2_squared(self, grid, rng):
        f = rng.random(grid.shape)
        assert casimir(f, grid, 2.0) == pytest.approx(
            moments.l2_norm(f, grid) ** 2
        )

    def test_casimirs_decay_under_limited_advection(self, grid):
        """The limited scheme is dissipative: entropy grows (toward the
        coarse-grained maximum) and the L2 Casimir decays, monotonically."""
        from repro.core.advection import advect

        x = grid.x_centers(0)[:, None]
        v = grid.u_centers(0)[None, :]
        f = (1 + 0.9 * np.sin(2 * np.pi * x / 10.0)) * np.exp(-(v**2))
        c_prev = casimir(f, grid, 2.0)
        s_prev = entropy(f, grid)
        for _ in range(5):
            for _ in range(10):
                f = advect(f, 0.37, 0, scheme="slmpp5")
            c_now = casimir(f, grid, 2.0)
            s_now = entropy(f, grid)
            assert c_now <= c_prev * (1 + 1e-12)
            assert s_now >= s_prev - 1e-9 * abs(s_prev)
            c_prev, s_prev = c_now, s_now

    def test_casimir_power_validation(self, grid):
        with pytest.raises(ValueError):
            casimir(np.zeros(grid.shape), grid, 0.0)

