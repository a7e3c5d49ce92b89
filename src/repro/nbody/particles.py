"""Particle container for the CDM component (paper §5.1.2).

Positions and canonical velocities are stored as float64 structure-of-arrays
(the paper: "positions and velocities of the N-body particles are
represented by double precision floating point numbers"), in the same
comoving units as the Vlasov grid: positions in [0, L), canonical velocity
u = a^2 dx/dt in km/s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class ParticleSet:
    """Structure-of-arrays particle store on a periodic box.

    Attributes
    ----------
    positions:
        Shape (N, dim) float64 array, wrapped into [0, box_size).
    velocities:
        Shape (N, dim) float64 canonical velocities.
    masses:
        Shape (N,) float64 particle masses.
    box_size:
        Periodic box size (same along every axis).
    """

    positions: np.ndarray
    velocities: np.ndarray
    masses: np.ndarray
    box_size: float

    def __post_init__(self) -> None:
        self.positions = np.ascontiguousarray(self.positions, dtype=np.float64)
        self.velocities = np.ascontiguousarray(self.velocities, dtype=np.float64)
        self.masses = np.asarray(self.masses, dtype=np.float64)
        if self.positions.ndim != 2:
            raise ValueError("positions must be (N, dim)")
        n, dim = self.positions.shape
        if not 1 <= dim <= 3:
            raise ValueError("1 to 3 dimensions supported")
        if self.velocities.shape != (n, dim):
            raise ValueError("velocities shape mismatch")
        if self.masses.ndim == 0:
            self.masses = np.full(n, float(self.masses))
        self.masses = np.ascontiguousarray(self.masses)
        if self.masses.shape != (n,):
            raise ValueError("masses must be scalar or shape (N,)")
        if self.box_size <= 0.0:
            raise ValueError("box_size must be positive")
        self.wrap()

    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of particles."""
        return self.positions.shape[0]

    @property
    def dim(self) -> int:
        """Spatial dimensionality."""
        return self.positions.shape[1]

    @property
    def total_mass(self) -> float:
        """Sum of particle masses."""
        return float(self.masses.sum())

    def wrap(self) -> None:
        """Fold positions into the periodic box [0, L)."""
        np.mod(self.positions, self.box_size, out=self.positions)

    def drift(self, dt_drift: float) -> None:
        """x += u * dt_drift, then wrap (dt_drift = int dt/a^2, as for the
        Vlasov drift — the same comoving kinematics, paper §5.1.2)."""
        self.positions += self.velocities * dt_drift
        self.wrap()

    def kick(self, accel: np.ndarray, dt_kick: float) -> None:
        """u += accel * dt_kick."""
        accel = np.asarray(accel, dtype=np.float64)
        if accel.shape != self.positions.shape:
            raise ValueError(f"accel shape {accel.shape} != {self.positions.shape}")
        self.velocities += accel * dt_kick

    def kinetic_energy(self) -> float:
        """(1/2) sum m u^2 in canonical velocity."""
        return 0.5 * float((self.masses * (self.velocities**2).sum(axis=1)).sum())
