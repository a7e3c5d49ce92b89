"""Vlasov-vs-N-body comparison machinery (paper §5.4, Figs. 5-6, §7.2).

The paper's central scientific claim is that the Vlasov representation of
the neutrinos eliminates the shot noise that compromises particle-based
runs at the same cost.  This module provides the quantitative versions of
those comparisons:

* local velocity distributions (Fig. 5): the Vlasov f at one spatial cell
  against a histogram of the particles in the same cell;
* moment-field comparisons (Fig. 6): density / velocity / dispersion maps
  from both representations, plus their noise statistics;
* the shot-noise algebra of §7.2 (Eqs. 9-10) lives in
  :mod:`repro.scaling.tts`; here are the empirical counterparts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import moments
from ..core.mesh import PhaseSpaceGrid
from ..nbody.particles import ParticleSet
from ..nbody.pm import assign_mass


def _ngp_cells(
    positions: np.ndarray, grid: PhaseSpaceGrid
) -> tuple[np.ndarray, ...]:
    """Periodic NGP cell index per particle and spatial axis.

    Matches :func:`repro.nbody.pm.assign_mass`'s NGP convention
    (``floor(pos/box*n) % n``): a particle at or past the box edge wraps
    onto cell 0 instead of being clipped into cell n-1.
    """
    return tuple(
        np.floor(
            positions[:, d] / grid.box_size * grid.nx[d]
        ).astype(np.int64) % grid.nx[d]
        for d in range(grid.dim)
    )


def particle_moments_on_grid(
    particles: ParticleSet, grid: PhaseSpaceGrid, window: str = "ngp"
) -> dict[str, np.ndarray]:
    """Density, velocity and dispersion of a particle set on grid.nx.

    NGP binning (window='ngp') keeps the estimator unbiased for the
    dispersion; CIC/TSC smooth the density but correlate neighboring
    cells.
    """
    rho = assign_mass(
        particles.positions, particles.masses, grid.nx, grid.box_size, window
    )
    # velocity moments: NGP binning of m*u and m*u^2, wrapped exactly
    # like assign_mass's NGP window (floor then mod) — clipping to the
    # last cell put boundary particles' velocity contributions in a
    # different cell than their mass, so the moment fields disagreed.
    idx1 = _ngp_cells(particles.positions, grid)
    flat = np.ravel_multi_index(idx1, grid.nx)
    m = particles.masses
    msum = np.bincount(flat, weights=m, minlength=int(np.prod(grid.nx)))
    vel = np.zeros((grid.dim,) + grid.nx)
    disp = np.zeros(grid.nx)
    with np.errstate(divide="ignore", invalid="ignore"):
        for d in range(grid.dim):
            mu = np.bincount(
                flat, weights=m * particles.velocities[:, d],
                minlength=int(np.prod(grid.nx)),
            )
            mu2 = np.bincount(
                flat, weights=m * particles.velocities[:, d] ** 2,
                minlength=int(np.prod(grid.nx)),
            )
            mean = np.where(msum > 0, mu / msum, 0.0)
            mean_sq = np.where(msum > 0, mu2 / msum, 0.0)
            vel[d] = mean.reshape(grid.nx)
            disp += np.maximum(mean_sq - mean**2, 0.0).reshape(grid.nx)
    return {
        "density": rho,
        "velocity": vel,
        "dispersion": np.sqrt(disp / grid.dim),
        "counts": np.bincount(flat, minlength=int(np.prod(grid.nx))).reshape(grid.nx),
    }


def vlasov_moments_on_grid(f: np.ndarray, grid: PhaseSpaceGrid) -> dict[str, np.ndarray]:
    """The matching moment set from the distribution function."""
    rho = moments.density(f, grid)
    return {
        "density": rho,
        "velocity": moments.mean_velocity(f, grid, rho),
        "dispersion": moments.velocity_dispersion(f, grid, rho),
    }


def local_velocity_distribution(
    f: np.ndarray, grid: PhaseSpaceGrid, cell: tuple[int, ...]
) -> dict[str, np.ndarray]:
    """Fig. 5's smooth curve: f at one spatial cell vs speed bins.

    Returns the raw velocity-space block and its speed histogram
    (mass per speed bin, normalized to a density).
    """
    block = np.asarray(f[cell], dtype=np.float64)
    speed = np.zeros(grid.nu)
    for d in range(grid.dim):
        u = grid.u_centers(d)
        shape = [1] * grid.dim
        shape[d] = grid.nu[d]
        speed = speed + u.reshape(shape) ** 2
    speed = np.sqrt(speed)
    bins = np.linspace(0.0, grid.v_max * np.sqrt(grid.dim), 40)
    mass, _ = np.histogram(
        speed.ravel(), bins=bins, weights=block.ravel() * grid.cell_volume_u
    )
    # phase-space volume per bin (cells falling in the bin x du^dim):
    # dividing it out turns the binned mass into the *average f* per bin,
    # which is the smooth curve Fig. 5 plots (raw binned mass inherits
    # combinatorial noise from the discrete |u| values)
    counts, _ = np.histogram(speed.ravel(), bins=bins)
    volume = counts * grid.cell_volume_u
    with np.errstate(divide="ignore", invalid="ignore"):
        f_mean = np.where(counts > 0, mass / volume, 0.0)
    return {
        "f_block": block,
        "speed_bins": bins,
        "mass_per_bin": mass,
        "bin_volume": volume,
        "f_mean_per_bin": f_mean,
    }


def particle_velocity_histogram(
    particles: ParticleSet,
    grid: PhaseSpaceGrid,
    cell: tuple[int, ...],
    bins: np.ndarray,
) -> np.ndarray:
    """Fig. 5's open circles: particle speeds in the same spatial cell."""
    idx = _ngp_cells(particles.positions, grid)
    in_cell = np.ones(particles.n, dtype=bool)
    for d in range(grid.dim):
        in_cell &= idx[d] == cell[d]
    speeds = np.sqrt((particles.velocities[in_cell] ** 2).sum(axis=1))
    mass, _ = np.histogram(speeds, bins=bins, weights=particles.masses[in_cell])
    return mass


@dataclass(frozen=True)
class NoiseComparison:
    """Summary statistics of the Vlasov-vs-particle moment comparison."""

    density_rms_diff: float
    velocity_rms_diff: float
    dispersion_rms_diff: float
    particle_shot_noise: float
    mean_particles_per_cell: float


def compare_noise(
    f: np.ndarray,
    grid: PhaseSpaceGrid,
    particles: ParticleSet,
) -> NoiseComparison:
    """Fig. 6's quantitative content.

    The RMS relative difference of the particle moments from the (smooth)
    Vlasov moments should track the Poisson prediction 1/sqrt(N_cell) —
    which is the tested invariant: the "noise" in the particle maps *is*
    shot noise, not physics.
    """
    v = vlasov_moments_on_grid(f, grid)
    p = particle_moments_on_grid(particles, grid)
    rho_v, rho_p = v["density"], p["density"]
    scale = max(float(rho_v.mean()), 1e-30)
    dens_rms = float(np.sqrt(((rho_p - rho_v) ** 2).mean()) / scale)

    vel_scale = max(float(np.abs(v["velocity"]).max()), 1e-30)
    vel_rms = float(
        np.sqrt(((p["velocity"] - v["velocity"]) ** 2).mean()) / vel_scale
    )
    disp_scale = max(float(v["dispersion"].mean()), 1e-30)
    disp_rms = float(
        np.sqrt(((p["dispersion"] - v["dispersion"]) ** 2).mean()) / disp_scale
    )
    n_per_cell = particles.n / np.prod(grid.nx)
    return NoiseComparison(
        density_rms_diff=dens_rms,
        velocity_rms_diff=vel_rms,
        dispersion_rms_diff=disp_rms,
        particle_shot_noise=1.0 / np.sqrt(n_per_cell),
        mean_particles_per_cell=float(n_per_cell),
    )
