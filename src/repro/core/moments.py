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

The weighted moments (``momentum``, ``velocity_dispersion``,
``kinetic_energy``) read f in blocks of whole spatial cells, at most
:data:`repro.core.advection.BLOCK_CELLS` phase-space cells each, through
one float64 block scratch: a reduction holds one block beside f, never
an f-sized product.  A per-cell sum over the velocity axes is the same
sum whichever block the cell lands in, so the per-cell moments are
bitwise the full-array formula's; a total over all cells (the kinetic
energy) is summed per block and the block sums pairwise — bitwise when f
is one block or splits into equal power-of-two blocks, within a few
ulps otherwise.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from . import advection
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
    out = _velocity_sums(f, grid, [
        grid.u_center_broadcast(d).astype(np.float64) for d in range(grid.dim)
    ])
    out *= grid.cell_volume_u
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
    f: np.ndarray,
    grid: PhaseSpaceGrid,
    rho: np.ndarray | None = None,
    vbar: np.ndarray | None = None,
) -> np.ndarray:
    """1-D velocity dispersion sigma(x) = sqrt(trace(sigma_ij^2)/dim).

    sigma_ij^2 = <u_i u_j> - <u_i><u_j>; this returns the isotropized
    scalar dispersion used in the paper's Fig. 6 comparison maps.
    ``rho`` and ``vbar`` are f's density and :func:`mean_velocity`, when
    the caller already has them.
    """
    _check(f, grid)
    if rho is None:
        rho = density(f, grid)
    if vbar is None:
        vbar = mean_velocity(f, grid, rho)
    second = _velocity_sums(
        f, grid, [grid.u_squared_broadcast(d) for d in range(grid.dim)]
    )
    trace = np.zeros(grid.nx, dtype=np.float64)
    for d in range(grid.dim):
        u2 = second[d] * grid.cell_volume_u
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
    return 0.5 * sum(kinetic_sums(f, grid)) * grid.cell_volume


def kinetic_sums(f: np.ndarray, grid: PhaseSpaceGrid) -> list[float]:
    """Per velocity axis d, the float64 sum of f u_d^2 over f's cells.

    ``f`` holds whole velocity spaces on any spatial extent — the run's
    f, or one domain block of it (whose partials the engine adds up).
    """
    partials: list[list[float]] = [[] for _ in range(grid.dim)]
    for _, blk, tmp in _cell_blocks(f, grid.dim):
        for d in range(grid.dim):
            np.multiply(blk, grid.u_squared_broadcast(d), out=tmp)
            partials[d].append(float(tmp.sum()))
    return [_pairwise(p) for p in partials]


def _pairwise(values: list[float]) -> float:
    """Sum of the block partials, halves first: NumPy's own pairwise
    order, so equal power-of-two blocks reproduce the full sum's bits."""
    if len(values) == 1:
        return values[0]
    half = len(values) // 2
    return _pairwise(values[:half]) + _pairwise(values[half:])


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


def _cell_blocks(
    f: np.ndarray, dim: int
) -> Iterator[tuple[tuple[slice, ...], np.ndarray, np.ndarray]]:
    """Cut f into runs of whole spatial cells of ~``BLOCK_CELLS`` cells.

    Yields ``(index, block, scratch)``: ``index`` addresses the block's
    cells on the spatial mesh, and ``scratch`` is a float64 array of the
    block's shape — one buffer, reused for every block.  An f of at most
    ``BLOCK_CELLS`` cells is one block, f itself.
    """
    if f.size <= advection.BLOCK_CELLS:
        plan = [()]
    else:  # the velocity space rides along whole, as one trailing axis
        plan = list(advection._block_plan(f.shape[:dim] + (f[(0,) * dim].size,)))
    buf = np.empty(f[plan[0]].size, dtype=np.float64)  # the first is the largest
    for index in plan:
        blk = f[index]
        yield index, blk, buf[: blk.size].reshape(blk.shape)


def _velocity_sums(
    f: np.ndarray, grid: PhaseSpaceGrid, weights: list[np.ndarray]
) -> np.ndarray:
    """Per spatial cell, the float64 sum of ``f * w`` over the velocity
    axes for each weight ``w``: shape ``(len(weights),) + grid.nx``."""
    vel_axes = tuple(range(grid.dim, 2 * grid.dim))
    out = np.empty((len(weights),) + grid.nx, dtype=np.float64)
    for index, blk, tmp in _cell_blocks(f, grid.dim):
        for i, w in enumerate(weights):
            np.multiply(blk, w, out=tmp)
            tmp.sum(axis=vel_axes, out=out[(i, *index)])
    return out


def _check(f: np.ndarray, grid: PhaseSpaceGrid) -> None:
    if f.shape != grid.shape:
        raise ValueError(f"f shape {f.shape} does not match grid shape {grid.shape}")
