"""FFT Poisson solver: analytic solutions, gradients, conventions."""

from __future__ import annotations

import numpy as np
import pytest

from repro.gravity.poisson import PeriodicPoissonSolver


def _potential(solver: PeriodicPoissonSolver, source: np.ndarray) -> np.ndarray:
    """phi of laplacian(phi) = source, from the fused solve."""
    return solver.solve_fields(source)[0]


class TestPotential:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_single_mode_exact(self, dim):
        """laplacian(phi) = -k^2 sin(kx) must give phi = sin(kx)."""
        n = 32
        solver = PeriodicPoissonSolver((n,) * dim, box_size=2 * np.pi)
        x = solver.dx[0] * (np.arange(n))
        k = 3.0
        phi_true = np.sin(k * x)
        phi_true = phi_true.reshape((n,) + (1,) * (dim - 1)) * np.ones((n,) * dim)
        source = -(k**2) * phi_true
        phi = _potential(solver, source)
        assert np.allclose(phi, phi_true - phi_true.mean(), atol=1e-10)

    def test_mean_gauged_to_zero(self):
        solver = PeriodicPoissonSolver((16, 16), box_size=1.0)
        rng = np.random.default_rng(0)
        src = rng.standard_normal((16, 16))
        phi = _potential(solver, src - src.mean())
        assert abs(phi.mean()) < 1e-12

    def test_dc_mode_discarded(self):
        solver = PeriodicPoissonSolver((16,), box_size=1.0)
        phi0 = _potential(solver, np.ones(16))
        assert np.allclose(phi0, 0.0)

    def test_shape_validation(self):
        solver = PeriodicPoissonSolver((8, 8), box_size=1.0)
        with pytest.raises(ValueError):
            _potential(solver, np.ones((4, 4)))

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            PeriodicPoissonSolver((8,), box_size=-1.0)
        with pytest.raises(ValueError):
            PeriodicPoissonSolver((1,), box_size=1.0)


class TestGradient:
    @pytest.mark.parametrize("method,tol", [("spectral", 1e-10), ("fd4", 1e-3)])
    def test_gradient_of_sine(self, method, tol):
        """-acceleration of the source of phi = sin(2x) is its gradient."""
        n = 64
        solver = PeriodicPoissonSolver((n,), box_size=2 * np.pi)
        x = solver.dx[0] * np.arange(n)
        grad = -solver.acceleration(-4.0 * np.sin(2 * x), method)[0]
        assert np.allclose(grad, 2 * np.cos(2 * x), atol=tol)

    def test_fd4_order(self):
        def err(n):
            solver = PeriodicPoissonSolver((n,), box_size=2 * np.pi)
            x = solver.dx[0] * np.arange(n)
            return np.abs(
                -solver.acceleration(-np.sin(x), "fd4")[0] - np.cos(x)
            ).max()

        assert err(32) / err(64) > 14  # 4th order: factor 16

    def test_acceleration_sign(self):
        """For a positive density blob, -grad phi points toward the blob
        (attractive) when the source has the gravity sign convention."""
        n = 64
        solver = PeriodicPoissonSolver((n,), box_size=1.0)
        x = (np.arange(n) + 0.5) / n
        rho = np.exp(-((x - 0.5) ** 2) / 0.01)
        acc = solver.acceleration(4.0 * np.pi * (rho - rho.mean()))[0]
        # left of the blob acceleration is positive (points right/toward)
        assert acc[n // 4] > 0
        assert acc[3 * n // 4] < 0
