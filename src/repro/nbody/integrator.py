"""Comoving kick-drift-kick leapfrog for the N-body component.

Uses the same canonical-velocity kinematics as the Vlasov solver
(u = a^2 dx/dt, kick du/dt = -grad phi), so one shared time step advances
both components consistently in the hybrid scheme: the kick and drift
prefactors are the exact background integrals from
:class:`repro.cosmology.background.Cosmology`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..cosmology.background import Cosmology
from .particles import ParticleSet


@dataclass
class LeapfrogKDK:
    """Kick-drift-kick integrator in scale-factor time.

    Parameters
    ----------
    cosmology:
        Supplies the kick/drift integrals; None freezes the expansion
        (a = 1, plain dt steps via :meth:`step`).
    accel_fn:
        Callable ``(particles, a) -> (N, dim) accelerations``.
    """

    accel_fn: Callable[[ParticleSet, float], np.ndarray]
    cosmology: Cosmology | None = None

    def step_cosmological(
        self, particles: ParticleSet, a0: float, a1: float
    ) -> None:
        """KDK step advancing the scale factor from a0 to a1."""
        if self.cosmology is None:
            raise ValueError("no cosmology attached; use step")
        if a1 <= a0:
            raise ValueError("a1 must exceed a0")
        cosmo = self.cosmology
        am = 0.5 * (a0 + a1)
        particles.kick(self.accel_fn(particles, a0), cosmo.kick_factor(a0, am))
        particles.drift(cosmo.drift_factor(a0, a1))
        particles.kick(self.accel_fn(particles, a1), cosmo.kick_factor(am, a1))

    def step(self, particles: ParticleSet, dt: float) -> None:
        """KDK step with frozen expansion."""
        particles.kick(self.accel_fn(particles, 1.0), 0.5 * dt)
        particles.drift(dt)
        particles.kick(self.accel_fn(particles, 1.0), 0.5 * dt)


def scale_factor_steps(a_start: float, a_end: float, n_steps: int, spacing: str = "log") -> np.ndarray:
    """A monotone schedule of scale factors from a_start to a_end.

    ``log`` spacing (uniform in ln a) is the cosmological default — it
    resolves the fast early dynamics; ``linear`` is uniform in a.
    """
    if not 0.0 < a_start < a_end:
        raise ValueError("need 0 < a_start < a_end")
    if n_steps < 1:
        raise ValueError("need at least one step")
    if spacing == "log":
        return np.exp(np.linspace(np.log(a_start), np.log(a_end), n_steps + 1))
    if spacing == "linear":
        return np.linspace(a_start, a_end, n_steps + 1)
    raise ValueError("spacing must be 'log' or 'linear'")
