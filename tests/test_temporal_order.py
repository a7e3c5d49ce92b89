"""Measured temporal order of the drivers' merged leapfrog (paper Eq. 5).

The drivers step Eq. (5) with adjacent half kicks merged: one kick by the
owed half kick plus dt/2, one drift by dt, dt/2 left owed until
``synchronize()``.  Merging moves no kick in time, so the composition is
still Strang's and must be 2nd order in time on the nonlinear
Vlasov-Poisson system: halving dt cuts the error ~4x.  Temporal order
comes from the composition, not from Runge-Kutta stages.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.mesh import PhaseSpaceGrid
from repro.core.vlasov_poisson import GravitationalVlasovPoisson, PlasmaVlasovPoisson

DRIVERS = {
    "plasma": lambda grid: PlasmaVlasovPoisson(grid, scheme="slp5"),
    "gravitational": lambda grid: GravitationalVlasovPoisson(
        grid, g_newton=0.1, scheme="slp5"),
}


def _fresh(driver: str):
    """A weakly perturbed Maxwellian on 32x64, unlimited ``slp5`` so that
    the errors stay smooth."""
    grid = PhaseSpaceGrid(
        nx=(32,), nu=(64,), box_size=4 * np.pi, v_max=6.0, dtype=np.float64
    )
    vp = DRIVERS[driver](grid)
    x = grid.x_centers(0)[:, None]
    v = grid.u_centers(0)[None, :]
    vp.f = (1 + 0.05 * np.cos(0.5 * x)) * np.exp(-(v**2) / 2) / np.sqrt(2 * np.pi)
    return vp


def _run(driver: str, dt: float, t_end: float) -> np.ndarray:
    vp = _fresh(driver)
    for _ in range(int(round(t_end / dt))):
        vp.step(dt)
    vp.synchronize()
    return vp.f.copy()


def _error_at(driver: str, dt: float, t_end: float = 0.8) -> float:
    """Richardson-style error: distance to a dt/4 reference."""
    return float(np.abs(_run(driver, dt, t_end) - _run(driver, dt / 4, t_end)).max())


@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_merged_leapfrog_is_second_order(driver):
    """Halving dt cuts the error of the synchronized step ~4x."""
    order = np.log2(_error_at(driver, 0.2) / _error_at(driver, 0.1))
    assert 1.7 < order < 2.6


def test_negative_drift_reverses_positive():
    """D(-dt) inverts D(dt): SL advection is not exactly time-reversible
    (dissipation), but for smooth data the round trip is accurate to the
    scheme order."""
    vp = _fresh("plasma")
    f0 = vp.f.copy()
    vp.solver.drift(0.37)
    vp.solver.drift(-0.37)
    assert np.abs(vp.f - f0).max() < 1e-6 * f0.max()
