"""Self-consistent Vlasov-Poisson drivers.

Two closed-loop systems built on :class:`repro.core.vlasov.VlasovSolver`
and :class:`repro.gravity.poisson.PeriodicPoissonSolver`:

* :class:`PlasmaVlasovPoisson` — the normalized electrostatic plasma
  system (electrons over a neutralizing ion background).  This is the
  validation workhorse of the Vlasov literature (linear Landau damping,
  two-stream instability) and the application domain the paper's §8 points
  to for future work.

* :class:`GravitationalVlasovPoisson` — static self-gravitating matter
  (a = 1, proper time) [26].  The expanding background is the hybrid
  driver's (:class:`repro.core.hybrid.HybridSimulation`).

Both step ``step(dt)`` through the merged leapfrog of
:mod:`repro.core.leapfrog`: a kick by the pending kick time plus dt/2,
the drift by dt, dt/2 left as ``pending_kick``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..diagnostics.timers import section
from ..gravity.poisson import PeriodicPoissonSolver
from .leapfrog import Fields, LeapfrogDriver
from .mesh import PhaseSpaceGrid
from .vlasov import VlasovSolver

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..diagnostics.timers import StepTimer
    from .engine import SweepEngine


def _mean(rho: np.ndarray) -> np.floating:
    """``rho.mean()`` of a float64 density, bit for bit — the same
    pairwise sum divided by the same count — without ``np.mean``'s
    wrapper, which costs more than the reduction on a small mesh."""
    return rho.sum() / rho.size


class _VlasovPoisson(LeapfrogDriver):
    """What both drivers share: one Poisson solve of the density
    source, its force on the mesh, and fixed-dt steps at a = 1."""

    a = 1.0
    #: the kick time f owes; 0: f is synchronous
    pending_kick: float = 0.0
    OWED = ("pending_kick", "pending_kick")
    #: -1 flips the solved force (the electrons' charge)
    _force_sign: float = 1.0

    def __post_init__(self) -> None:
        self.solver = VlasovSolver(
            self.grid, scheme=self.scheme, engine=self.engine,
            timer=self.timer,
        )
        self.poisson = PeriodicPoissonSolver(self.grid.nx, self.grid.box_size)

    def _solve(self, need_phi: bool) -> Fields:
        """``self._density_source() -> (rho, source)`` (timed as
        ``moments``), then its potential (when asked) and force."""
        timer = self.timer
        with section(timer, "moments"):
            rho, source = self._density_source()
        if need_phi:
            phi, accel = self.poisson.solve_fields(
                source, self.gradient_method, timer=timer)
        else:
            phi, accel = None, self.poisson.acceleration(
                source, self.gradient_method, timer=timer)
        if self._force_sign < 0:
            np.negative(accel, out=accel)
        return Fields(rho=rho, phi=phi, accel=accel)

    def _kick_accel(self) -> tuple[np.ndarray, None]:
        with section(self.timer, "poisson"):
            return self.acceleration(), None

    def fields(self) -> tuple[np.ndarray, np.ndarray]:
        """Fused field solve: ``(phi, acceleration)``.

        One forward transform of the density source yields both the
        potential and the acceleration (see
        :meth:`PeriodicPoissonSolver.solve_fields`); with a timer
        attached the solve splits into ``moments`` / ``fft`` / ``grad``.
        """
        slot = self._fields(need_phi=True)
        return slot.phi, slot.accel

    def acceleration(self) -> np.ndarray:
        """The acceleration on the spatial mesh, shape (dim,) + nx — the
        kick path: skips the inverse transform of phi entirely on the
        spectral-gradient route (see
        :meth:`PeriodicPoissonSolver.acceleration`)."""
        return self._fields().accel

    def _owed_factor(self) -> float:
        return self.pending_kick

    def coordinate(self) -> dict[str, float]:
        return {"t": self.time}

    def conserved(self) -> dict[str, float]:
        return {"mass": self.solver.total_mass(), "energy": self.total_energy()}

    def step(self, dt: float) -> None:
        """One merged leapfrog step of length dt: kick by the pending
        half kick plus dt/2, drift by dt, dt/2 left pending."""
        self._advance(self.pending_kick + 0.5 * dt, dt, 0.5 * dt)
        self.time += dt


@dataclass
class PlasmaVlasovPoisson(_VlasovPoisson):
    """Normalized electron Vlasov-Poisson system on a periodic box.

        df/dt + v df/dx - E df/dv = 0,    laplacian(phi) = rho_e - <rho_e>,
        E = -dphi/dx.

    The electron acceleration is -E = +dphi/dx (unit charge-to-mass ratio,
    charge -1).  Time is in inverse plasma frequencies, velocity in thermal
    units, as usual.

    ``engine``/``timer`` are forwarded to the underlying
    :class:`VlasovSolver`, and the Poisson solver runs its mesh
    transforms on the process-default spectral backend; with a timer
    attached, steps record ``vlasov/drift/*``, ``vlasov/kick/*`` and the
    field solve split into
    ``poisson/moments`` (density reduction), ``poisson/fft`` (forward +
    potential inverse transform) and ``poisson/grad`` (k-space gradient
    inverses) — so ``timer.report()`` localizes where the solve spends.
    """

    grid: PhaseSpaceGrid
    scheme: str = "slmpp5"
    gradient_method: str = "spectral"
    engine: "SweepEngine | None" = None
    timer: "StepTimer | None" = None

    # solver returns -grad(phi); electrons (charge -1) feel +grad(phi)
    _force_sign = -1.0

    def _density_source(self) -> tuple[np.ndarray, np.ndarray]:
        rho = self.solver.density()
        return rho, rho - _mean(rho)

    def field_energy(self) -> float:
        """Electrostatic field energy (1/2) int E^2 dx."""
        e = self.acceleration()  # -E: squared, the sign drops out exactly
        return 0.5 * float((e**2).sum()) * self.grid.cell_volume_x

    def total_energy(self) -> float:
        """Kinetic + field energy — conserved by the continuous system;
        numerically it drifts at the splitting/dissipation order, which
        the tests bound."""
        return self.solver.kinetic_energy() + self.field_energy()


@dataclass
class GravitationalVlasovPoisson(_VlasovPoisson):
    """Static self-gravitating Vlasov-Poisson (a = 1, proper time).

    Parameters
    ----------
    grid:
        Phase-space geometry in arbitrary self-consistent units.
    g_newton:
        Gravitational constant in the caller's units.
    """

    grid: PhaseSpaceGrid
    g_newton: float
    scheme: str = "slmpp5"
    gradient_method: str = "fd4"
    engine: "SweepEngine | None" = None
    timer: "StepTimer | None" = None

    def _density_source(self) -> tuple[np.ndarray, np.ndarray]:
        rho = self.solver.density()
        return rho, (4.0 * np.pi * self.g_newton) * (rho - _mean(rho))

    def potential_energy(self) -> float:
        """W = (1/2) int rho phi dx (self-energy of the contrast); one
        density moment, shared with the solve."""
        slot = self._fields(need_phi=True)
        rho = slot.rho
        return 0.5 * float(((rho - rho.mean()) * slot.phi).sum()) * self.grid.cell_volume_x

    def total_energy(self) -> float:
        """Kinetic + potential energy."""
        return self.solver.kinetic_energy() + self.potential_energy()
