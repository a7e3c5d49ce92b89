"""Particle-Mesh: mass assignment, interpolation, PM forces."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nbody.pm import (
    PMSolver,
    assign_mass,
    interpolate_mesh,
    window_deconvolution,
    window_stencil,
)


class TestMassAssignment:
    @pytest.mark.parametrize("window", ["ngp", "cic", "tsc"])
    def test_total_mass_conserved(self, window, rng):
        pos = rng.uniform(0, 10, (100, 3))
        m = rng.uniform(0.5, 2, 100)
        mesh = assign_mass(pos, m, (8, 8, 8), 10.0, window)
        cell_vol = (10.0 / 8) ** 3
        assert mesh.sum() * cell_vol == pytest.approx(m.sum(), rel=1e-12)

    @given(st.integers(0, 2**31 - 1), st.sampled_from(["ngp", "cic", "tsc"]))
    @settings(max_examples=25, deadline=None)
    def test_mass_conservation_property(self, seed, window):
        r = np.random.default_rng(seed)
        n = int(r.integers(1, 50))
        pos = r.uniform(0, 5, (n, 2))
        m = r.uniform(0.1, 3, n)
        mesh = assign_mass(pos, m, (6, 6), 5.0, window)
        cell_vol = (5.0 / 6) ** 2
        assert mesh.sum() * cell_vol == pytest.approx(m.sum(), rel=1e-10)

    def test_ngp_deposits_one_cell(self):
        mesh = assign_mass(np.array([[1.3, 2.8]]), np.array([2.0]), (4, 4), 4.0, "ngp")
        assert np.count_nonzero(mesh) == 1
        assert mesh[1, 2] == pytest.approx(2.0)

    def test_cic_particle_at_cell_center(self):
        """A particle exactly at a cell center deposits entirely there."""
        mesh = assign_mass(
            np.array([[1.5, 1.5]]), np.array([1.0]), (4, 4), 4.0, "cic"
        )
        assert mesh[1, 1] == pytest.approx(1.0)
        assert np.count_nonzero(np.abs(mesh) > 1e-14) == 1

    def test_tsc_support_three_cells(self):
        mesh = assign_mass(np.array([[2.4]]), np.array([1.0]), (8,), 8.0, "tsc")
        assert np.count_nonzero(mesh) == 3
        assert mesh.sum() == pytest.approx(1.0)

    def test_periodic_wrap(self):
        mesh = assign_mass(
            np.array([[0.01, 0.01]]), np.array([1.0]), (4, 4), 4.0, "cic"
        )
        cell_vol = 1.0
        assert mesh.sum() * cell_vol == pytest.approx(1.0)
        # corner particle spreads across the periodic corner cells
        assert mesh[0, 0] > 0 and mesh[3, 3] > 0

    def test_uniform_lattice_gives_uniform_density(self):
        """Particles on a lattice commensurate with the mesh: exactly
        uniform density (window sums telescoping)."""
        side = 8
        ax = (np.arange(side) + 0.5) * (8.0 / side)
        mesh_pts = np.meshgrid(ax, ax, indexing="ij")
        pos = np.column_stack([m.ravel() for m in mesh_pts])
        for window in ("ngp", "cic", "tsc"):
            mesh = assign_mass(pos, np.ones(side**2), (8, 8), 8.0, window)
            assert np.allclose(mesh, mesh.mean(), rtol=1e-12), window

    def test_window_validation(self):
        with pytest.raises(ValueError):
            assign_mass(np.zeros((1, 2)), np.ones(1), (4, 4), 1.0, "spline9")


class TestInterpolation:
    @pytest.mark.parametrize("window", ["ngp", "cic", "tsc"])
    def test_constant_field_exact(self, window, rng):
        mesh = np.full((8, 8), 3.3)
        pos = rng.uniform(0, 4, (30, 2))
        vals = interpolate_mesh(mesh, pos, 4.0, window)
        assert np.allclose(vals, 3.3, rtol=1e-12)

    def test_cic_linear_field_exact(self):
        """CIC reproduces linear fields exactly between nodes (1-D)."""
        n = 16
        mesh = np.arange(n, dtype=np.float64)
        # keep positions away from the periodic seam
        pos = np.linspace(1.0, 13.0, 25).reshape(-1, 1) + 0.5
        vals = interpolate_mesh(mesh, pos, float(n), "cic")
        expected = pos[:, 0] - 0.5
        assert np.allclose(vals, expected, rtol=1e-12)

    def test_dimension_mismatch_rejected(self, rng):
        """Issue regression: a dim mismatch used to compute garbage
        strides silently instead of raising like assign_mass does."""
        mesh = np.zeros((8, 8))
        pos3 = rng.uniform(0, 4, (10, 3))
        with pytest.raises(ValueError):
            interpolate_mesh(mesh, pos3, 4.0, "cic")
        with pytest.raises(ValueError):
            interpolate_mesh(np.zeros(8), pos3[:, :2], 4.0, "tsc")


class TestDeconvolution:
    def test_dc_mode_unity(self):
        w = window_deconvolution((8, 8), 1.0, "cic")
        assert w[0, 0] == pytest.approx(1.0)

    def test_order_hierarchy(self):
        """Higher-order windows suppress high k more: W_tsc < W_cic < W_ngp."""
        w1 = window_deconvolution((16,), 1.0, "ngp")
        w2 = window_deconvolution((16,), 1.0, "cic")
        w3 = window_deconvolution((16,), 1.0, "tsc")
        assert np.all(w3[1:] <= w2[1:] + 1e-15)
        assert np.all(w2[1:] <= w1[1:] + 1e-15)


class TestPMForce:
    def test_no_self_force(self, rng):
        """A single particle must feel (almost) no force from its own
        mesh-assigned density — the classic PM momentum test."""
        pm = PMSolver((16, 16, 16), 10.0, window="cic")
        pos = rng.uniform(0, 10, (1, 3))
        rho = pm.density(pos, np.ones(1))
        src = 4 * np.pi * (rho - rho.mean())
        acc = pm.accelerations(pos, src)
        # compare against the two-particle force scale at one mesh cell
        scale = 1.0 / (10.0 / 16) ** 2
        assert np.abs(acc).max() < 0.05 * scale

    def test_pair_force_attractive_and_antisymmetric(self):
        pm = PMSolver((32, 32, 32), 10.0, window="tsc")
        pos = np.array([[3.0, 5.0, 5.0], [7.0, 5.0, 5.0]])
        rho = pm.density(pos, np.ones(2))
        src = 4 * np.pi * (rho - rho.mean())
        acc = pm.accelerations(pos, src)
        assert acc[0, 0] > 0 and acc[1, 0] < 0
        assert acc[0, 0] == pytest.approx(-acc[1, 0], rel=1e-6)

    def test_pm_force_matches_newton_at_large_separation(self):
        """Well-separated pair on a fine mesh: PM ~ periodic Newton."""
        from repro.nbody.direct import ewald_accel
        from repro.nbody.particles import ParticleSet

        pm = PMSolver((48, 48, 48), 10.0, window="tsc")
        pos = np.array([[3.0, 5.0, 5.0], [6.5, 5.0, 5.0]])
        p = ParticleSet(pos.copy(), np.zeros((2, 3)), np.ones(2), 10.0)
        rho = pm.density(pos, np.ones(2))
        src = 4 * np.pi * (rho - rho.mean())
        acc = pm.accelerations(pos, src)
        a_ref = ewald_accel(p, 1.0)
        assert np.allclose(acc, a_ref, rtol=0.05)

    def test_gaussian_cut_suppresses_short_range(self):
        """With r_split set, the PM force of a close pair is much weaker
        than Newtonian (the tree supplies the difference)."""
        pm_full = PMSolver((32, 32, 32), 10.0, window="tsc")
        pm_cut = PMSolver((32, 32, 32), 10.0, window="tsc", r_split=0.4)
        pos = np.array([[5.0, 5.0, 5.0], [5.5, 5.0, 5.0]])
        rho = pm_full.density(pos, np.ones(2))
        src = 4 * np.pi * (rho - rho.mean())
        a_full = pm_full.accelerations(pos, src)
        a_cut = pm_cut.accelerations(pos, src)
        assert abs(a_cut[0, 0]) < 0.6 * abs(a_full[0, 0])

    def test_mesh_acceleration_shape(self):
        pm = PMSolver((8, 8), 1.0)
        acc = pm.acceleration_mesh(np.random.default_rng(0).standard_normal((8, 8)))
        assert acc.shape == (2, 8, 8)


class TestAdjointness:
    @given(st.integers(0, 2**31 - 1), st.sampled_from(["ngp", "cic", "tsc"]))
    @settings(max_examples=25, deadline=None)
    def test_assignment_interpolation_adjoint(self, seed, window):
        """The defining identity behind PM momentum conservation: for any
        mesh field g and particle masses m,

            sum_i m_i * interp(g, x_i) == V_cell * sum_cells g * assign(m)

        (assignment and interpolation are adjoint when they share the
        window)."""
        r = np.random.default_rng(seed)
        n = int(r.integers(1, 40))
        pos = r.uniform(0, 6, (n, 2))
        m = r.uniform(0.1, 2, n)
        g = r.standard_normal((6, 6))
        lhs = float((m * interpolate_mesh(g, pos, 6.0, window)).sum())
        rho = assign_mass(pos, m, (6, 6), 6.0, window)
        cell_vol = 1.0
        rhs = float((g * rho).sum() * cell_vol)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def _per_point_window(positions, n_mesh, box_size, window):
    """The window as it was built before the stencil: one (wrapped cell
    index, weight) pair per support point, each point its own loop."""
    scaled = positions / box_size * np.array(n_mesh)
    n, dim = scaled.shape
    nm = np.array(n_mesh, dtype=np.int64)
    if window == "ngp":
        return [np.floor(scaled).astype(np.int64) % nm], [np.ones(n)]
    if window == "cic":
        lo = np.floor(scaled - 0.5).astype(np.int64)
        frac = scaled - 0.5 - lo
        base, m = lo, 2
        per_axis = [[1.0 - frac[:, d], frac[:, d]] for d in range(dim)]
    else:
        base = np.floor(scaled).astype(np.int64)
        dx = scaled - (base + 0.5)
        base, m = base - 1, 3
        per_axis = [[0.5 * (0.5 - dx[:, d]) ** 2, 0.75 - dx[:, d] ** 2,
                     0.5 * (0.5 + dx[:, d]) ** 2] for d in range(dim)]
    cells, weights = [], []
    for code in range(m**dim):
        sel = [(code // m**d) % m for d in range(dim)]
        w = np.ones(n)
        for d in range(dim):
            w = w * per_axis[d][sel[d]]
        cells.append((base + np.array(sel)) % nm)
        weights.append(w)
    return cells, weights


def _per_point_assign(positions, masses, n_mesh, box_size, window):
    cells, weights = _per_point_window(positions, n_mesh, box_size, window)
    strides = np.array([int(np.prod(n_mesh[d + 1:])) for d in range(len(n_mesh))])
    flat = np.zeros(int(np.prod(n_mesh)))
    for c, w in zip(cells, weights):
        np.add.at(flat, (c * strides).sum(axis=1), masses * w)
    return flat.reshape(n_mesh) / (box_size / np.array(n_mesh)).prod()


def _per_point_interpolate(mesh, positions, box_size, window):
    n_mesh = mesh.shape
    cells, weights = _per_point_window(positions, n_mesh, box_size, window)
    out = np.zeros(positions.shape[0])
    for c, w in zip(cells, weights):
        out += mesh[tuple(c.T)] * w
    return out


class TestWindowStencil:
    """One stencil per position set, bitwise the per-point loop it
    replaced, for every window and dimension."""

    @pytest.mark.parametrize("window", ["ngp", "cic", "tsc"])
    @pytest.mark.parametrize("n_mesh", [(9,), (6, 5), (8, 8, 8), (4, 7, 5)])
    def test_deposit_and_interpolate_bitwise(self, window, n_mesh, rng):
        box = 3.3
        pos = rng.uniform(0, box, (301, len(n_mesh)))
        pos[:3] = 0.0  # on a cell edge and at the wrap
        pos[3] = box * (1 - 1e-16)
        masses = rng.uniform(0.1, 2.0, 301)
        field = rng.standard_normal((len(n_mesh),) + n_mesh)
        stencil = window_stencil(pos, n_mesh, box, window)
        assert stencil.deposit(masses).tobytes() == _per_point_assign(
            pos, masses, n_mesh, box, window).tobytes()
        assert assign_mass(pos, masses, n_mesh, box, window).tobytes() == \
            stencil.deposit(masses).tobytes()
        stacked = stencil.interpolate(field)
        assert stacked.shape == (301, len(n_mesh))
        for d in range(len(n_mesh)):
            ref = _per_point_interpolate(field[d], pos, box, window)
            assert stacked[:, d].tobytes() == ref.tobytes()
            assert interpolate_mesh(field[d], pos, box, window).tobytes() \
                == ref.tobytes()

    def test_pm_accelerations_share_one_stencil(self, rng, monkeypatch):
        import repro.nbody.pm as pm_module

        calls = []
        real = pm_module.window_stencil
        monkeypatch.setattr(pm_module, "window_stencil",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        pm = PMSolver((8, 8, 8), 1.0, window="tsc")
        pm.accelerations(rng.uniform(0, 1, (50, 3)),
                         rng.standard_normal((8, 8, 8)))
        assert len(calls) == 1  # was one per force component

    def test_mismatched_mesh_rejected(self, rng):
        stencil = window_stencil(rng.uniform(0, 1, (5, 2)), (4, 4), 1.0)
        with pytest.raises(ValueError):
            stencil.interpolate(np.zeros((4, 5)))
