"""The hybrid Vlasov + N-body driver (paper §5.1.2) at mini scale."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.hybrid import HybridSimulation, build_neutrino_component
from repro.core.mesh import PhaseSpaceGrid
from repro.nbody.particles import ParticleSet

from .helpers import uniform_random_particles


@pytest.fixture
def mini_setup(cosmo, rng):
    """A tiny but complete hybrid configuration."""
    L = 200.0
    grid = PhaseSpaceGrid(nx=(8, 8, 8), nu=(8, 8, 8), box_size=L, v_max=4000.0)
    cdm_mass = (cosmo.omega_cdm + cosmo.omega_b) * cosmo.units.rho_crit * L**3
    cdm = uniform_random_particles(512, L, cdm_mass, rng)
    sim = HybridSimulation(grid, cdm, cosmo, a=0.1, use_tree=False)
    sim.neutrinos.f = build_neutrino_component(grid, cosmo)
    return sim


class TestConstruction:
    def test_densities_live_on_one_mesh(self, mini_setup):
        sim = mini_setup
        assert sim.neutrino_density().shape == sim.grid.nx
        assert sim.cdm_density().shape == sim.grid.nx

    def test_total_density_budget(self, mini_setup, cosmo):
        """rho_CDM + rho_nu averages to Omega_m * rho_crit."""
        sim = mini_setup
        rho = sim.cdm_density() + sim.neutrino_density()
        expected = cosmo.omega_m * cosmo.units.rho_crit
        assert rho.mean() == pytest.approx(expected, rel=0.02)

    def test_neutrino_mass_fraction(self, mini_setup, cosmo):
        sim = mini_setup
        rho_nu = sim.neutrino_density()
        f_nu = rho_nu.mean() / (sim.cdm_density() + rho_nu).mean()
        assert f_nu == pytest.approx(cosmo.f_nu, rel=0.05)

    def test_box_mismatch_rejected(self, cosmo, rng):
        grid = PhaseSpaceGrid(nx=(4,) * 3, nu=(4,) * 3, box_size=100.0, v_max=1000.0)
        cdm = uniform_random_particles(8, 50.0, 1.0, rng)
        with pytest.raises(ValueError):
            HybridSimulation(grid, cdm, cosmo, a=0.1)


class TestCoupling:
    def test_both_components_feel_shared_potential(self, mini_setup):
        """An inhomogeneous neutrino component changes the particle
        forces — the two-way coupling of §5.1.2.  (A homogeneous one must
        NOT: only the contrast gravitates on a periodic box.)"""
        sim = mini_setup
        acc_uniform = sim.particle_acceleration(a=0.1)
        # pile neutrino mass into one corner cell
        sim.neutrinos.f[0, 0, 0] *= 5.0
        acc_blob = sim.particle_acceleration(a=0.1)
        assert not np.allclose(acc_blob, acc_uniform)
        # and the homogeneous component matches no neutrinos at all
        sim.neutrinos.f = np.zeros_like(sim.neutrinos.f)
        acc_none = sim.particle_acceleration(a=0.1)
        assert np.allclose(acc_uniform, acc_none, rtol=1e-6)

    def test_mesh_acceleration_shape(self, mini_setup):
        acc = mini_setup.mesh_acceleration(a=0.1)
        assert acc.shape == (3,) + mini_setup.grid.nx


class TestEvolution:
    def test_step_conserves_neutrino_mass(self, mini_setup):
        sim = mini_setup
        m0 = sim.neutrino_mass()
        sim.step(0.12)
        assert sim.neutrino_mass() == pytest.approx(m0, rel=1e-4)
        assert sim.a == pytest.approx(0.12)
        assert sim.step_count == 1

    def test_f_stays_positive(self, mini_setup):
        sim = mini_setup
        sim.step(0.12)
        sim.step(0.15)
        assert sim.neutrinos.f.min() >= -1e-7 * sim.neutrinos.f.max()

    def test_neutrinos_smoother_than_cdm(self, cosmo, rng):
        """The paper's Fig. 4 signature: after evolution the neutrino
        density contrast is far smaller than the CDM contrast (free
        streaming suppresses neutrino clustering)."""
        L = 200.0
        grid = PhaseSpaceGrid(nx=(8,) * 3, nu=(8,) * 3, box_size=L, v_max=4000.0)
        cdm_mass = (cosmo.omega_cdm + cosmo.omega_b) * cosmo.units.rho_crit * L**3
        # clustered CDM: displace half the particles into one octant
        pos = rng.uniform(0, L, (512, 3))
        pos[:256] = rng.uniform(0, L / 2, (256, 3))
        cdm = ParticleSet(pos, np.zeros((512, 3)), np.full(512, cdm_mass / 512), L)
        sim = HybridSimulation(grid, cdm, cosmo, a=0.2, use_tree=False)
        sim.neutrinos.f = build_neutrino_component(grid, cosmo)
        for a_next in (0.3, 0.45, 0.65, 1.0):
            sim.step(a_next)
        rho_nu = sim.neutrino_density()
        rho_c = sim.cdm_density()
        contrast_nu = (rho_nu / rho_nu.mean() - 1).std()
        contrast_c = (rho_c / rho_c.mean() - 1).std()
        assert contrast_nu < 0.5 * contrast_c
        assert contrast_nu > 0.001  # but the neutrinos did respond

    def test_neutrinos_fall_into_cdm_well(self, cosmo):
        """Neutrino density develops a positive correlation with the CDM
        distribution — gravitational response through the shared
        potential."""
        L = 200.0
        grid = PhaseSpaceGrid(nx=(8,) * 3, nu=(8,) * 3, box_size=L, v_max=3000.0)
        cdm_mass = (cosmo.omega_cdm + cosmo.omega_b) * cosmo.units.rho_crit * L**3
        # a single massive clump, statically placed
        pos = np.full((64, 3), 100.0) + np.random.default_rng(5).normal(
            0, 10, (64, 3)
        )
        cdm = ParticleSet(pos, np.zeros((64, 3)), np.full(64, cdm_mass / 64), L)
        sim = HybridSimulation(grid, cdm, cosmo, a=0.2, use_tree=False)
        sim.neutrinos.f = build_neutrino_component(grid, cosmo)
        for a_next in (0.3, 0.45, 0.65, 1.0):
            sim.step(a_next)
        rho_nu = sim.neutrino_density()
        rho_c = sim.cdm_density()
        cc = np.corrcoef(
            (rho_nu / rho_nu.mean()).ravel(), (rho_c / rho_c.mean()).ravel()
        )[0, 1]
        assert cc > 0.2

    def test_backwards_step_rejected(self, mini_setup):
        with pytest.raises(ValueError):
            mini_setup.step(0.05)


class TestNeutrinoMassDependence:
    def test_lighter_neutrinos_cluster_less_mass(self, cosmo, cosmo_light):
        """Fig. 4's comparison: Omega_nu(0.2 eV) is half of Omega_nu(0.4 eV),
        so the neutrino component carries half the mass at fixed volume.
        Each mass gets its own velocity grid sized to its thermal scale
        (exactly as the paper's runs must choose V per neutrino mass)."""
        from repro.core import moments
        from repro.cosmology import RelicNeutrinoDistribution

        L = 100.0
        masses = {}
        for c in (cosmo, cosmo_light):
            fd = RelicNeutrinoDistribution(c.m_nu_total_ev / 3, c.units)
            grid = PhaseSpaceGrid(
                nx=(4,) * 3, nu=(16,) * 3, box_size=L,
                v_max=fd.velocity_cutoff(0.997),
            )
            f = build_neutrino_component(grid, c)
            masses[c.m_nu_total_ev] = moments.total_mass(f, grid)
        assert masses[0.2] / masses[0.4] == pytest.approx(0.5, rel=0.05)

    def test_lighter_neutrinos_are_faster(self, cosmo, cosmo_light):
        """m_nu halved -> thermal velocity doubled: the light-neutrino f
        needs a wider velocity grid (why Fig. 4's runs differ)."""
        from repro.cosmology import RelicNeutrinoDistribution

        fd_h = RelicNeutrinoDistribution(cosmo.m_nu_total_ev / 3, cosmo.units)
        fd_l = RelicNeutrinoDistribution(cosmo_light.m_nu_total_ev / 3, cosmo.units)
        assert fd_l.u0 == pytest.approx(2 * fd_h.u0, rel=1e-6)


class TestCheckpointRestart:
    def test_bit_exact_roundtrip(self, mini_setup, tmp_path):
        from repro.io.snapshot import read_checkpoint

        sim = mini_setup
        sim.step(0.12)
        path = sim.save(tmp_path / "ck.npz")
        f_ref = sim.neutrinos.f.copy()
        pos_ref = sim.cdm.positions.copy()
        vel_ref = sim.cdm.velocities.copy()
        sim.step(0.15)
        grid, f, particles, header = read_checkpoint(path)
        assert grid == sim.grid
        sim.restore(f, particles, header)
        assert np.array_equal(sim.neutrinos.f, f_ref)
        assert np.array_equal(sim.cdm.positions, pos_ref)
        assert np.array_equal(sim.cdm.velocities, vel_ref)
        assert sim.a == pytest.approx(0.12)
        assert sim.step_count == 1

    def test_restart_continues_identically(self, mini_setup, tmp_path):
        """Evolving through a checkpoint equals evolving straight through
        (the restart is bit-exact, so the continuation is too)."""
        from repro.io.snapshot import read_checkpoint

        sim = mini_setup
        sim.step(0.12)
        path = sim.save(tmp_path / "ck.npz")
        sim.step(0.15)
        f_straight = sim.neutrinos.f.copy()
        _, f, particles, header = read_checkpoint(path)
        sim.restore(f, particles, header)
        sim.step(0.15)
        assert np.array_equal(sim.neutrinos.f, f_straight)


class TestTreePathInHybrid:
    def test_tree_force_path_runs_and_conserves(self, cosmo, rng):
        """The full TreePM path inside the hybrid driver (the production
        configuration): one step with the short-range force enabled."""
        from repro.core.hybrid import HybridSimulation, build_neutrino_component
        from repro.core.mesh import PhaseSpaceGrid

        L = 40.0
        grid = PhaseSpaceGrid(nx=(8,) * 3, nu=(6,) * 3, box_size=L, v_max=4000.0)
        cdm_mass = (cosmo.omega_cdm + cosmo.omega_b) * cosmo.units.rho_crit * L**3
        cdm = uniform_random_particles(512, L, cdm_mass, rng)
        sim = HybridSimulation(
            grid, cdm, cosmo, a=0.2, use_tree=True, r_split_cells=0.8
        )
        sim.neutrinos.f = build_neutrino_component(grid, cosmo)
        m0 = sim.neutrino_mass()
        sim.step(0.25)
        assert sim.neutrino_mass() == pytest.approx(m0, rel=1e-3)
        assert sim.gravity.counter.count > 0  # the tree kernel actually ran

    def test_tree_changes_small_scale_forces(self, cosmo, rng):
        """TreePM vs PM-only on the same state: the short-range force
        matters for close pairs (that is its purpose)."""
        from repro.core.hybrid import HybridSimulation, build_neutrino_component
        from repro.core.mesh import PhaseSpaceGrid

        L = 40.0
        grid = PhaseSpaceGrid(nx=(8,) * 3, nu=(6,) * 3, box_size=L, v_max=4000.0)
        cdm_mass = (cosmo.omega_cdm + cosmo.omega_b) * cosmo.units.rho_crit * L**3
        # a close pair plus background
        pos = rng.uniform(0, L, (64, 3))
        pos[0] = [20.0, 20.0, 20.0]
        pos[1] = [20.5, 20.0, 20.0]
        cdm = ParticleSet(pos, np.zeros((64, 3)), np.full(64, cdm_mass / 64), L)
        sim = HybridSimulation(
            grid, cdm, cosmo, a=0.2, use_tree=True, r_split_cells=0.8
        )
        sim.neutrinos.f = build_neutrino_component(grid, cosmo)
        acc_tree = sim.particle_acceleration(a=0.2)
        sim.use_tree = False
        acc_pm = sim.particle_acceleration(a=0.2)
        # the pair force differs strongly; distant particles much less
        pair_diff = np.abs(acc_tree[0] - acc_pm[0]).max()
        far_diff = np.abs(acc_tree[32:] - acc_pm[32:]).max()
        assert pair_diff > 3.0 * far_diff


def _composed_kick(sim, a, dt_kick):
    """A kick as it was before the kick field was fused: the public mesh
    field, then the particle force from its own moment, deposit and
    solve (TreePM when the tree is on)."""
    mesh_acc = sim.mesh_acceleration(a)
    rho_nu = sim.neutrino_density()
    if sim.use_tree:
        part_acc = sim.gravity.accelerations(sim.cdm, a=a, external_density=rho_nu)
    else:
        source = sim.gravity.pm_source(sim.cdm, a=a, external_density=rho_nu)
        part_acc = sim.gravity.pm.accelerations(sim.cdm.positions, source)
    sim.neutrinos.kick(mesh_acc, dt_kick)
    sim.cdm.kick(part_acc, dt_kick)


def _composed_step(sim, a_next):
    """The merged leapfrog step: one kick over [kick_from, a_mid], the
    drift, [a_mid, a_next] left pending."""
    cosmo = sim.cosmology
    a0, a1 = sim.a, a_next
    am = 0.5 * (a0 + a1)
    start = a0 if sim.kick_from is None else sim.kick_from
    _composed_kick(sim, a0, cosmo.kick_factor(start, am))
    sim.neutrinos.drift(cosmo.drift_factor(a0, a1))
    sim.cdm.drift(cosmo.drift_factor(a0, a1))
    sim.kick_from = am
    sim.a = a_next
    sim.step_count += 1


def _composed_synchronize(sim):
    _composed_kick(sim, sim.a, sim.cosmology.kick_factor(sim.kick_from, sim.a))
    sim.kick_from = None


def _state(sim):
    return (sim.neutrinos.f.tobytes(), sim.cdm.positions.tobytes(),
            sim.cdm.velocities.tobytes())


class TestOneKickField:
    """Each kick deposits, solves and weighs its particles once, and the
    step and the closing synchronize() are bitwise the composition they
    replaced."""

    def _pair(self, cosmo, use_tree):
        L = 40.0 if use_tree else 200.0
        grid = PhaseSpaceGrid(nx=(8,) * 3, nu=(6,) * 3, box_size=L, v_max=4000.0)
        cdm_mass = (cosmo.omega_cdm + cosmo.omega_b) * cosmo.units.rho_crit * L**3
        sims = []
        for _ in range(2):
            cdm = uniform_random_particles(
                512, L, cdm_mass, np.random.default_rng(11))
            sim = HybridSimulation(grid, cdm, cosmo, a=0.2, use_tree=use_tree,
                                   r_split_cells=0.8)
            sim.neutrinos.f = build_neutrino_component(grid, cosmo)
            sims.append(sim)
        return sims

    @pytest.mark.parametrize("use_tree, schedule", [
        (False, (0.25, 0.32, 0.4)),
        (True, (0.25,)),
    ])
    def test_fused_step_is_the_composed_step(self, cosmo, use_tree, schedule):
        fused, composed = self._pair(cosmo, use_tree)
        for a_next in schedule:
            fused.step(a_next)
            _composed_step(composed, a_next)
            assert _state(fused) == _state(composed)
        fused.synchronize()
        _composed_synchronize(composed)
        assert _state(fused) == _state(composed)

    def test_one_stencil_deposit_and_moment_per_kick(self, mini_setup, monkeypatch):
        import repro.nbody.pm as pm_module

        calls = {"stencil": 0, "deposit": 0, "moment": 0}

        def counting(key, fn):
            def wrapped(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapped

        sim = mini_setup
        monkeypatch.setattr(pm_module, "window_stencil",
                            counting("stencil", pm_module.window_stencil))
        monkeypatch.setattr(pm_module.WindowStencil, "deposit",
                            counting("deposit", pm_module.WindowStencil.deposit))
        monkeypatch.setattr(sim, "neutrino_density",
                            counting("moment", sim.neutrino_density))
        sim.step(0.12)
        assert calls == {"stencil": 1, "deposit": 1, "moment": 1}  # one kick
        sim.step(0.15)
        assert calls == {"stencil": 2, "deposit": 2, "moment": 2}
        sim.pending_velocity()  # solves the post-drift field once ...
        sim.synchronize()  # ... and the pending kick reuses it
        assert calls == {"stencil": 3, "deposit": 3, "moment": 3}

    def test_mesh_acceleration_stays_mesh_only(self, mini_setup, monkeypatch):
        import repro.nbody.pm as pm_module

        def no_interpolation(self, mesh):
            raise AssertionError("mesh_acceleration interpolated")

        monkeypatch.setattr(pm_module.WindowStencil, "interpolate", no_interpolation)
        assert mini_setup.mesh_acceleration(0.1).shape == (3,) + mini_setup.grid.nx

    def test_particle_half_is_timed(self, cosmo, rng):
        from repro.diagnostics import StepTimer

        L = 200.0
        grid = PhaseSpaceGrid(nx=(8,) * 3, nu=(6,) * 3, box_size=L, v_max=4000.0)
        cdm = uniform_random_particles(512, L, 1.0, rng)
        timer = StepTimer()
        sim = HybridSimulation(grid, cdm, cosmo, a=0.1, use_tree=False, timer=timer)
        sim.neutrinos.f = build_neutrino_component(grid, cosmo)
        sim.step(0.12)
        for name in ("pm/moments", "pm/deposit", "pm/fft", "pm/grad",
                     "pm/interp", "cdm/kick", "cdm/drift"):
            assert timer.sections[name].count == 1, name  # one merged kick
