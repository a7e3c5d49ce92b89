"""Barnes-Hut tree and the combined TreePM force."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nbody.direct import direct_accel_open, ewald_accel
from repro.nbody.particles import ParticleSet
from repro.nbody.phantom import InteractionCounter
from repro.nbody.pm import PMSolver
from repro.nbody.tree import BarnesHutTree
from repro.nbody.treepm import (
    LongRangePM,
    TreePMSolver,
    min_tree_mesh,
    pm_mesh_for_particles,
)


@pytest.fixture(scope="module")
def clustered_particles():
    rng = np.random.default_rng(42)
    L = 100.0
    n = 1200
    centers = rng.uniform(20, 80, (4, 3))
    pos = (centers[rng.integers(0, 4, n)] + rng.normal(0, 5, (n, 3))) % L
    return ParticleSet(pos, np.zeros((n, 3)), np.full(n, 1.0), L)


class TestTreeConstruction:
    def test_all_particles_in_leaves(self, clustered_particles):
        tree = BarnesHutTree(clustered_particles, leaf_size=16)
        total = sum(
            tree.nodes[li].hi - tree.nodes[li].lo for li in tree.leaves
        )
        assert total == clustered_particles.n

    def test_perm_is_permutation(self, clustered_particles):
        tree = BarnesHutTree(clustered_particles, leaf_size=16)
        assert np.array_equal(np.sort(tree.perm), np.arange(clustered_particles.n))

    def test_root_mass_and_com(self, clustered_particles):
        tree = BarnesHutTree(clustered_particles, leaf_size=16)
        root = tree.nodes[0]
        assert root.mass == pytest.approx(clustered_particles.total_mass)
        com = (
            clustered_particles.masses[:, None] * clustered_particles.positions
        ).sum(axis=0) / clustered_particles.total_mass
        assert np.allclose(root.com, com)

    def test_leaf_size_respected(self, clustered_particles):
        tree = BarnesHutTree(clustered_particles, leaf_size=8)
        for li in tree.leaves:
            assert tree.nodes[li].hi - tree.nodes[li].lo <= 8

    def test_parameter_validation(self, clustered_particles):
        with pytest.raises(ValueError):
            BarnesHutTree(clustered_particles, leaf_size=0)
        with pytest.raises(ValueError):
            BarnesHutTree(clustered_particles, theta=3.0)


class TestTreeForce:
    def test_accuracy_vs_direct(self, clustered_particles):
        tree = BarnesHutTree(clustered_particles, leaf_size=16, theta=0.4)
        a_tree = tree.accelerations(g_newton=1.0, eps=0.1)
        a_dir = direct_accel_open(clustered_particles, 1.0, 0.1)
        err = np.sqrt(((a_tree - a_dir) ** 2).sum(1)) / np.sqrt((a_dir**2).sum(1))
        assert np.median(err) < 2e-3
        assert err.max() < 0.05

    def test_smaller_theta_more_accurate(self, clustered_particles):
        a_dir = direct_accel_open(clustered_particles, 1.0, 0.1)

        def median_err(theta):
            tree = BarnesHutTree(clustered_particles, leaf_size=16, theta=theta)
            a = tree.accelerations(1.0, 0.1)
            return np.median(
                np.sqrt(((a - a_dir) ** 2).sum(1)) / np.sqrt((a_dir**2).sum(1))
            )

        assert median_err(0.3) < median_err(0.8)

    def test_interactions_subquadratic(self, clustered_particles):
        counter = InteractionCounter()
        tree = BarnesHutTree(clustered_particles, leaf_size=16, theta=0.6)
        tree.accelerations(1.0, 0.1, counter=counter)
        n = clustered_particles.n
        assert counter.count < 0.6 * n * n

    def test_theta_zero_limit_is_direct(self):
        """Tiny theta never accepts a multipole: exact direct sum."""
        rng = np.random.default_rng(1)
        pos = rng.uniform(40, 60, (40, 3))
        p = ParticleSet(pos, np.zeros((40, 3)), np.ones(40), 100.0)
        tree = BarnesHutTree(p, leaf_size=4, theta=0.01)
        a_tree = tree.accelerations(1.0, 0.05)
        a_dir = direct_accel_open(p, 1.0, 0.05)
        assert np.allclose(a_tree, a_dir, rtol=1e-4)

    def test_rcut_must_fit_box(self, clustered_particles):
        tree = BarnesHutTree(clustered_particles)
        with pytest.raises(ValueError):
            tree.accelerations(1.0, 0.1, r_split=20.0, r_cut=60.0)


class TestTreePM:
    def test_total_force_matches_ewald(self):
        rng = np.random.default_rng(11)
        L = 100.0
        pos = rng.uniform(0, L, (250, 3))
        p = ParticleSet(pos, np.zeros((250, 3)), rng.uniform(0.5, 1.5, 250), L)
        solver = TreePMSolver(
            n_mesh=(32, 32, 32), box_size=L, g_newton=1.0, eps=0.0, theta=0.3
        )
        a_tot = solver.accelerations(p)
        a_ew = ewald_accel(p, 1.0)
        err = np.sqrt(((a_tot - a_ew) ** 2).sum(1)) / np.sqrt(
            (a_ew**2).sum(1)
        ).clip(1e-30)
        assert np.median(err) < 0.02
        assert np.quantile(err, 0.95) < 0.08

    def test_force_split_sums_to_newton_isolated_pair(self):
        """g(r) + long-range = 1/r^2 exactly for the split kernel."""
        L = 100.0
        solver = TreePMSolver((32,) * 3, L, g_newton=1.0, eps=0.0)
        pos = np.array([[48.0, 50, 50], [52.0, 50, 50]])
        p = ParticleSet(pos.copy(), np.zeros((2, 3)), np.ones(2), L)
        a = solver.accelerations(p)
        a_ref = ewald_accel(p, 1.0)
        assert np.allclose(a, a_ref, rtol=0.03)

    def test_external_density_attracts(self):
        """The Vlasov coupling path: a neutrino overdensity on the mesh
        pulls the particles."""
        L = 100.0
        solver = TreePMSolver((16,) * 3, L, g_newton=1.0, eps=0.0)
        pos = np.array([[30.0, 50.0, 50.0]])
        p = ParticleSet(pos.copy(), np.zeros((1, 3)), np.ones(1), L)
        external = np.zeros((16, 16, 16))
        external[11, 8, 8] = 100.0  # blob at x ~ 72
        a = solver.accelerations(p, external_density=external)
        assert a[0, 0] > 0  # pulled toward the blob

    def test_scale_factor_weakens_force(self):
        L = 100.0
        solver = TreePMSolver((16,) * 3, L, g_newton=1.0, eps=0.0)
        rng = np.random.default_rng(2)
        pos = rng.uniform(0, L, (20, 3))
        p = ParticleSet(pos, np.zeros((20, 3)), np.ones(20), L)
        a1 = solver.accelerations(p, a=1.0)
        a2 = solver.accelerations(p, a=2.0)
        assert np.allclose(a2, 0.5 * a1, rtol=1e-10)

    def test_mesh_validation(self):
        solver = TreePMSolver((16,) * 3, 100.0, g_newton=1.0, eps=0.0)
        rng = np.random.default_rng(0)
        p = ParticleSet(rng.uniform(0, 100, (5, 3)), np.zeros((5, 3)), np.ones(5), 100.0)
        with pytest.raises(ValueError):
            solver.accelerations(p, external_density=np.zeros((8, 8, 8)))

    def test_rcut_exceeding_halfbox_rejected_on_tree_use(self):
        """The tree refuses a mesh whose cutoff exceeds half the box when
        it is built, not inside a step; the PM-only half takes it."""
        with pytest.raises(ValueError, match="cutoff exceeds half the box"):
            TreePMSolver((4,) * 3, 10.0, g_newton=1.0, eps=0.0)
        pm_only = LongRangePM((4,) * 3, 10.0, g_newton=1.0)
        rng = np.random.default_rng(0)
        p = ParticleSet(rng.uniform(0, 10, (5, 3)), np.zeros((5, 3)), np.ones(5), 10.0)
        src = pm_only.pm_source(p)
        assert pm_only.pm.accelerations(p.positions, src).shape == (5, 3)

    @pytest.mark.parametrize("r_split_cells, n_min", [(1.25, 12), (0.8, 8), (1.0, 9)])
    def test_min_tree_mesh_is_where_the_cutoff_fits(self, r_split_cells, n_min):
        """r_cut = 4.5 r_s fits in L/2 from n = 9 r_split_cells on: the
        tree builds at ``min_tree_mesh`` and refuses one point below."""
        assert min_tree_mesh(r_split_cells) == n_min
        for box in (1.0, 200.0):
            ok = TreePMSolver((n_min,) * 3, box, g_newton=1.0, eps=0.0,
                              r_split_cells=r_split_cells)
            assert ok.r_cut <= 0.5 * box
            with pytest.raises(ValueError, match=f"at least {n_min} points"):
                TreePMSolver((n_min - 1,) * 3, box, g_newton=1.0, eps=0.0,
                             r_split_cells=r_split_cells)

    def test_long_range_half_is_the_treepm_long_range(self):
        """PM-only runs use LongRangePM: bitwise TreePM's PM half."""
        rng = np.random.default_rng(3)
        L = 100.0
        p = ParticleSet(rng.uniform(0, L, (40, 3)), np.zeros((40, 3)),
                        np.ones(40), L)
        ext = rng.uniform(0.0, 1.0, (16, 16, 16))
        tree = TreePMSolver((16,) * 3, L, g_newton=1.0, eps=0.0)
        pm_only = LongRangePM((16,) * 3, L, g_newton=1.0)
        for got, want in zip(pm_only.long_range(p, 0.5, ext),
                             tree.long_range(p, 0.5, ext)):
            assert got.tobytes() == want.tobytes()


class TestPmMeshRule:
    def test_paper_rule(self):
        """N_PM = N_CDM / 3^3: 6912^3 particles -> 2304 mesh per axis."""
        assert pm_mesh_for_particles(6912**3) == 2304
        assert pm_mesh_for_particles(864**3) == 288

    def test_validation(self):
        with pytest.raises(ValueError):
            pm_mesh_for_particles(0)
