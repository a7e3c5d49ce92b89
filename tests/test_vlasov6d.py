"""The full six-dimensional phase-space path (the paper's production case),
exercised directly at tiny scale: every advection direction, the List 1
memory layout, isotropy, and conservation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import moments
from repro.core.mesh import PhaseSpaceGrid
from repro.core.vlasov import VlasovSolver

from .helpers import dispersion_tensor


@pytest.fixture
def grid6d():
    return PhaseSpaceGrid(
        nx=(6, 6, 6), nu=(8, 8, 8), box_size=12.0, v_max=2.0, dtype=np.float32
    )


def gaussian_f(grid, x0, u0, sx=2.0, su=0.5):
    """A Gaussian blob in all six dimensions."""
    f = np.ones(grid.shape, dtype=np.float64)
    for d in range(3):
        shape = [1] * (2 * grid.dim)
        shape[d] = grid.nx[d]
        x = grid.x_centers(d).astype(grid.dtype).astype(np.float64).reshape(shape)
        f = f * np.exp(-((x - x0[d]) ** 2) / (2 * sx**2))
        u = grid.u_center_broadcast(d).astype(np.float64)
        f = f * np.exp(-((u - u0[d]) ** 2) / (2 * su**2))
    return f.astype(grid.dtype)


class Test6DLayout:
    def test_paper_list1_axis_order(self, grid6d):
        """Spatial axes lead, velocity axes trail, C order — the layout
        the SIMD strategy requires (contiguous along u_z)."""
        f = grid6d.zeros_f()
        assert f.shape == (6, 6, 6, 8, 8, 8)
        assert f.strides[-1] == f.itemsize  # u_z contiguous
        assert grid6d.velocity_axis(2) == 5

    def test_six_advection_directions_run(self, grid6d):
        """Each of the six D_l operators executes and conserves mass."""
        from repro.core.advection import advect

        f = gaussian_f(grid6d, (6.0, 6.0, 6.0), (0.0, 0.0, 0.0))
        m0 = f.sum()
        for axis in range(3):
            f = advect(f, 0.3, axis, scheme="slmpp5", bc="periodic")
        for axis in range(3, 6):
            f = advect(f, 0.3, axis, scheme="slmpp5", bc="zero")
        # the ~3e-4/axis loss is the Gaussian tail flowing out at +-V,
        # which the zero BC makes physical (not a conservation bug)
        assert f.sum() == pytest.approx(m0, rel=3e-3)


class Test6DDynamics:
    def test_drift_moves_blob_along_velocity(self, grid6d):
        solver = VlasovSolver(grid6d, scheme="slmpp5")
        solver.f = gaussian_f(grid6d, (6.0, 6.0, 6.0), (1.0, 0.0, -1.0))
        rho0 = solver.density()
        com0 = _center_of_mass(rho0, grid6d)
        solver.drift(1.0)
        com1 = _center_of_mass(solver.density(), grid6d)
        # blob mean velocity (1, 0, -1): x moves +, z moves -
        assert com1[0] - com0[0] == pytest.approx(1.0, abs=0.3)
        assert abs(com1[1] - com0[1]) < 0.2
        assert com1[2] - com0[2] == pytest.approx(-1.0, abs=0.3)

    def test_kick_shifts_bulk_velocity_vector(self, grid6d):
        solver = VlasovSolver(grid6d, scheme="slmpp5")
        solver.f = gaussian_f(grid6d, (6.0, 6.0, 6.0), (0.0, 0.0, 0.0))
        accel = np.zeros((3,) + grid6d.nx)
        accel[0] = 0.8
        accel[1] = -0.4
        solver.kick(accel, 1.0)
        vbar = moments.mean_velocity(solver.f, grid6d)
        rho = solver.density()
        w = rho / rho.sum()
        assert (vbar[0] * w).sum() == pytest.approx(0.8, abs=0.1)
        assert (vbar[1] * w).sum() == pytest.approx(-0.4, abs=0.1)
        assert abs((vbar[2] * w).sum()) < 0.05

    def test_isotropy_of_the_six_directions(self, grid6d):
        """Advecting the same isotropic blob along x, y or z (or u_x, u_y,
        u_z) gives identical results up to axis permutation — no direction
        is special in the engine (the paper's Table 1 differences are
        purely about memory layout, not numerics)."""
        from repro.core.advection import advect

        f = gaussian_f(grid6d, (6.0, 6.0, 6.0), (0.0, 0.0, 0.0))
        out_x = advect(f, 0.37, 0, scheme="slmpp5")
        out_y = advect(f, 0.37, 1, scheme="slmpp5")
        # permute x <-> y axes of the y-result; the blob is symmetric
        out_y_perm = np.swapaxes(np.swapaxes(out_y, 0, 1), 3, 4)
        assert np.allclose(out_x, out_y_perm, atol=1e-6)

    def test_strang_step_conserves_mass_6d(self, grid6d):
        solver = VlasovSolver(grid6d, scheme="slmpp5")
        solver.f = gaussian_f(grid6d, (6.0, 6.0, 6.0), (0.3, 0.0, 0.0))
        m0 = solver.total_mass()
        accel = 0.2 * np.random.default_rng(0).standard_normal((3,) + grid6d.nx)
        solver.kick(accel, 0.2)  # K(h/2) D(h) K(h/2)
        solver.drift(0.4)
        solver.kick(accel, 0.2)
        assert solver.total_mass() == pytest.approx(m0, rel=1e-3)
        assert solver.f.min() >= -1e-6 * solver.f.max()

    def test_velocity_dispersion_isotropic_blob(self, grid6d):
        solver = VlasovSolver(grid6d)
        solver.f = gaussian_f(grid6d, (6.0, 6.0, 6.0), (0.0, 0.0, 0.0), su=0.5)
        tensor = dispersion_tensor(solver.f, grid6d)
        center = (3, 3, 3)
        assert tensor[0, 0][center] == pytest.approx(tensor[1, 1][center], rel=1e-3)
        assert tensor[0, 1][center] == pytest.approx(0.0, abs=1e-4)

    def test_float32_pipeline_6d(self, grid6d):
        """The production precision: f stays float32 end-to-end."""
        solver = VlasovSolver(grid6d, scheme="slmpp5")
        solver.f = gaussian_f(grid6d, (6.0, 6.0, 6.0), (0.0, 0.0, 0.0))
        assert solver.f.dtype == np.float32
        solver.drift(0.2)
        assert solver.f.dtype == np.float32
        solver.kick(np.full((3,) + grid6d.nx, 0.1), 0.2)
        assert solver.f.dtype == np.float32


def _center_of_mass(rho, grid):
    out = []
    w = rho / rho.sum()
    for d in range(3):
        x = grid.x_centers(d)
        shape = [1, 1, 1]
        shape[d] = len(x)
        out.append(float((x.reshape(shape) * w).sum()))
    return out
