"""Velocity moments of the distribution function.

Because the velocity space is never decomposed across processes (paper
§5.1.3), every moment is a *local* reduction over the trailing velocity
axes — no communication.  The same property makes these pure vectorized
reductions in NumPy.

Moments are returned on the spatial grid:

* ``density``    — mass density rho(x)        = m_unit int f d^3u
* ``momentum``   — momentum density rho*<u>   = int u f d^3u
* ``mean_velocity`` — bulk velocity <u>(x)
* ``velocity_dispersion`` — the isotropized 1-D dispersion sigma(x)

Accumulations are done in float64 even for float32 f: reductions over up to
64^3 velocity cells would otherwise lose ~3 digits, and the density feeds
the Poisson solve where systematic bias matters (this mirrors the paper's
"mixed precision" attribute).
"""

from __future__ import annotations

import math

import numpy as np

from .mesh import PhaseSpaceGrid


def density(f: np.ndarray, grid: PhaseSpaceGrid) -> np.ndarray:
    """Mass density rho(x): the zeroth velocity moment times du^dim.

    Returns float64 array of shape ``grid.nx``.
    """
    _check(f, grid)
    vel_axes = tuple(range(grid.dim, 2 * grid.dim))
    return f.sum(axis=vel_axes, dtype=np.float64) * grid.cell_volume_u


def momentum(f: np.ndarray, grid: PhaseSpaceGrid) -> np.ndarray:
    """Momentum density int u_d f d^du, shape ``(dim,) + grid.nx``."""
    _check(f, grid)
    vel_axes = tuple(range(grid.dim, 2 * grid.dim))
    out = np.empty((grid.dim,) + grid.nx, dtype=np.float64)
    for d in range(grid.dim):
        u = grid.u_center_broadcast(d).astype(np.float64)
        out[d] = (f * u).sum(axis=vel_axes, dtype=np.float64) * grid.cell_volume_u
    return out


def mean_velocity(
    f: np.ndarray, grid: PhaseSpaceGrid, rho: np.ndarray | None = None
) -> np.ndarray:
    """Bulk velocity <u>(x) = momentum / density, shape ``(dim,) + nx``.

    Cells with vanishing density get zero velocity (they carry no mass, so
    any value is consistent; zero keeps downstream statistics finite).
    """
    if rho is None:
        rho = density(f, grid)
    mom = momentum(f, grid)
    with np.errstate(divide="ignore", invalid="ignore"):
        v = mom / rho
    return np.where(rho > 0.0, v, 0.0)


def velocity_dispersion(
    f: np.ndarray, grid: PhaseSpaceGrid, rho: np.ndarray | None = None
) -> np.ndarray:
    """1-D velocity dispersion sigma(x) = sqrt(trace(sigma_ij^2)/dim).

    sigma_ij^2 = <u_i u_j> - <u_i><u_j>; this returns the isotropized
    scalar dispersion used in the paper's Fig. 6 comparison maps.
    """
    _check(f, grid)
    if rho is None:
        rho = density(f, grid)
    vel_axes = tuple(range(grid.dim, 2 * grid.dim))
    vbar = mean_velocity(f, grid, rho)
    trace = np.zeros(grid.nx, dtype=np.float64)
    for d in range(grid.dim):
        u = grid.u_center_broadcast(d).astype(np.float64)
        u2 = (f * u**2).sum(axis=vel_axes, dtype=np.float64) * grid.cell_volume_u
        with np.errstate(divide="ignore", invalid="ignore"):
            mean_sq = u2 / rho
        mean_sq = np.where(rho > 0.0, mean_sq, 0.0)
        trace += np.maximum(mean_sq - vbar[d] ** 2, 0.0)
    return np.sqrt(trace / grid.dim)


def total_mass(f: np.ndarray, grid: PhaseSpaceGrid) -> float:
    """Total mass int f d^dx d^du — conserved exactly by the SL fluxes
    (up to velocity-boundary outflow with the 'zero' BC)."""
    _check(f, grid)
    return float(f.sum(dtype=np.float64) * grid.cell_volume)


def l2_norm(f: np.ndarray, grid: PhaseSpaceGrid) -> float:
    """L2 norm sqrt(int f^2) — monotonically non-increasing for the exact
    Vlasov flow; its decay measures numerical (and physical filamentation)
    diffusion."""
    _check(f, grid)
    return float(
        np.sqrt((f.astype(np.float64) ** 2).sum(dtype=np.float64) * grid.cell_volume)
    )


def kinetic_energy(f: np.ndarray, grid: PhaseSpaceGrid) -> float:
    """Kinetic energy (1/2) int u^2 f d^dx d^du (canonical velocity)."""
    _check(f, grid)
    total = 0.0
    for d in range(grid.dim):
        total += float((f * grid.u_squared_broadcast(d)).sum(dtype=np.float64))
    return 0.5 * total * grid.cell_volume


def finite_stats(f: np.ndarray) -> tuple[int, float]:
    """(non-finite cell count, min of f) — the guards' health probe.

    Both are exact under aggregation over blocks (summed counts, min of
    minima), so guard decisions do not depend on where f lives.  A
    healthy f costs two reductions: min and max are both finite only
    when every cell is (a NaN propagates into the min); the count is
    taken when one of them is not.
    """
    fmin = float(f.min())
    if math.isfinite(fmin) and math.isfinite(f.max()):
        return 0, fmin
    return int(f.size - np.count_nonzero(np.isfinite(f))), fmin


def _check(f: np.ndarray, grid: PhaseSpaceGrid) -> None:
    if f.shape != grid.shape:
        raise ValueError(f"f shape {f.shape} does not match grid shape {grid.shape}")
