"""Test-side helpers: fixtures' builders and oracles for other code.

Each of these is read only by tests that check something else (the
advection's dissipation, the moments, the Poisson and PM solves, the
spectra, the runs that fail), so it lives with them rather than in the
package.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable

import numpy as np
import pytest

from repro.core.mesh import PhaseSpaceGrid
from repro.core.moments import density, mean_velocity
from repro.ic.gaussian_field import FourierGrid, gaussian_field_fourier
from repro.nbody.particles import ParticleSet

# -- phase-space invariants and moments --------------------------------


def l1_norm(f: np.ndarray, grid: PhaseSpaceGrid) -> float:
    """L1 norm int |f| — equals total mass iff f >= 0 everywhere."""
    return float(np.abs(f).sum(dtype=np.float64) * grid.cell_volume)


def entropy(f: np.ndarray, grid: PhaseSpaceGrid, floor: float = 1.0e-30) -> float:
    """Gibbs entropy -int f ln f — a Casimir of the exact Vlasov flow;
    numerically it drifts at the rate of the scheme's dissipation."""
    fa = np.asarray(f, dtype=np.float64)
    return float(-(fa * np.log(np.maximum(fa, floor))).sum() * grid.cell_volume)


def casimir(f: np.ndarray, grid: PhaseSpaceGrid, power: float = 2.0) -> float:
    """int f^p — the family of Casimir invariants (p = 2: the L2 norm^2),
    non-increasing for the limited schemes on f >= 0."""
    if power <= 0:
        raise ValueError("power must be positive")
    fa = np.asarray(f, dtype=np.float64)
    return float((np.abs(fa) ** power).sum() * grid.cell_volume)


def dispersion_tensor(f: np.ndarray, grid: PhaseSpaceGrid) -> np.ndarray:
    """Full velocity-dispersion tensor sigma_ij^2, shape (dim, dim) + nx."""
    rho = density(f, grid)
    vel_axes = tuple(range(grid.dim, 2 * grid.dim))
    vbar = mean_velocity(f, grid, rho)
    out = np.empty((grid.dim, grid.dim) + grid.nx, dtype=np.float64)
    for i in range(grid.dim):
        ui = grid.u_center_broadcast(i).astype(np.float64)
        for j in range(i, grid.dim):
            uj = grid.u_center_broadcast(j).astype(np.float64)
            uij = (f * (ui * uj)).sum(axis=vel_axes, dtype=np.float64)
            uij *= grid.cell_volume_u
            with np.errstate(divide="ignore", invalid="ignore"):
                mean_ij = uij / rho
            mean_ij = np.where(rho > 0.0, mean_ij, 0.0)
            out[i, j] = mean_ij - vbar[i] * vbar[j]
            out[j, i] = out[i, j]
    return out


# -- fields and particle sets -------------------------------------------


def gaussian_field(
    grid: FourierGrid,
    power: Callable[[np.ndarray], np.ndarray],
    rng: np.random.Generator,
) -> np.ndarray:
    """Real-space Gaussian density contrast delta(x) with spectrum P(k)."""
    return np.fft.irfftn(
        gaussian_field_fourier(grid, power, rng), s=grid.n_mesh, axes=range(grid.dim)
    )


def uniform_random_particles(
    n: int, box_size: float, total_mass: float, rng: np.random.Generator,
    dim: int = 3,
) -> ParticleSet:
    """n equal-mass particles at uniform random positions, at rest."""
    pos = rng.uniform(0.0, box_size, size=(n, dim))
    return ParticleSet(pos, np.zeros((n, dim)), np.full(n, total_mass / n), box_size)


def uniform_lattice_particles(
    n_side: int, box_size: float, total_mass: float, dim: int = 3
) -> ParticleSet:
    """A regular n_side^dim lattice of equal-mass particles at rest."""
    axes = [(np.arange(n_side) + 0.5) * (box_size / n_side)] * dim
    mesh = np.meshgrid(*axes, indexing="ij")
    pos = np.column_stack([m.ravel() for m in mesh])
    n = pos.shape[0]
    return ParticleSet(pos, np.zeros((n, dim)), np.full(n, total_mass / n), box_size)


# -- runs that fail ------------------------------------------------------


def failed_run_resumes(config, run_dir: Path, error: type, fault_plan=None):
    """Run ``config`` in ``run_dir``, which must raise ``error``; check the
    run left a clean directory — ``run.json`` at ``failed``, no staged
    ``.tmp`` file, every checkpoint whole, no shared-memory segment — then
    resume it without ``fault_plan`` and return the final f."""
    from repro.io.snapshot import read_checkpoint
    from repro.perf.substrate import LIVE_SEGMENTS
    from repro.runtime import EXIT_COMPLETE, SimulationRunner

    runner = SimulationRunner.create(config, run_dir)
    with pytest.raises(error):
        runner.run(fault_plan=fault_plan)
    manifest = runner.manifest()
    assert (manifest["status"], manifest["exit_code"], manifest["reason"]) \
        == ("failed", None, f"error:{error.__name__}")
    assert not list(run_dir.rglob("*.tmp*"))
    for path in (run_dir / "checkpoints").glob("ck_*.npz"):
        read_checkpoint(path)  # CRC-verified: a torn file raises
    assert not LIVE_SEGMENTS
    assert SimulationRunner.resume(run_dir).run() == EXIT_COMPLETE
    return read_checkpoint(max((run_dir / "checkpoints").glob("ck_*.npz")))[1]
