"""Self-consistent Vlasov-Poisson drivers.

Two closed-loop systems built on :class:`repro.core.vlasov.VlasovSolver`
and :class:`repro.gravity.poisson.PeriodicPoissonSolver`:

* :class:`PlasmaVlasovPoisson` — the normalized electrostatic plasma
  system (electrons over a neutralizing ion background).  This is the
  validation workhorse of the Vlasov literature (linear Landau damping,
  two-stream instability) and the application domain the paper's §8 points
  to for future work.

* :class:`GravitationalVlasovPoisson` — self-gravitating matter in
  comoving coordinates (paper Eqs. 1-2), stepped in scale factor with the
  exact kick/drift time integrals of the expanding background.  Setting
  ``cosmology=None`` freezes the expansion (a = 1, plain dt) for static
  self-gravity tests [26].

Both advance with the KDK Strang sequence of Eq. (5) in its merged
(leapfrog) form.  Step n's closing half kick and step n+1's opening half
kick use the same field, the solve after step n's drift, so a step is

    kick(pending + h/2) -> drift(h) -> pending = h/2

three velocity and three spatial sweeps and one field solve.  Between
steps f carries the ``pending_kick`` (a kick time, or the kick factor
int dt of a cosmological step): it is the synchronous state minus that
half kick.  :meth:`synchronize` applies it in place; a checkpoint stores
it as it is, so a restored run continues the same chain bit for bit.
The density, and with it the field, is the synchronous one: a kick does
not move mass between spatial cells.

One field solve per f state: each driver keeps its last solve, keyed by
the engine's ``f_version`` (bumped by every sweep, f assignment and
``notify_f_mutated``) and the scale factor.  The ledger's energy after a
step and the next step's kick see the same f, so the kick reuses the
ledger's solve.  The slot's arrays are read-only; writing into ``f`` in
place after a solve needs ``solver.notify_f_mutated()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from ..diagnostics.timers import section
from ..gravity.poisson import PeriodicPoissonSolver
from .mesh import PhaseSpaceGrid
from .vlasov import VlasovSolver

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cosmology.background import Cosmology
    from ..diagnostics.timers import StepTimer
    from .engine import SweepEngine


def _mean(rho: np.ndarray) -> np.floating:
    """``rho.mean()`` of a float64 density, bit for bit — the same
    pairwise sum divided by the same count — without ``np.mean``'s
    wrapper, which costs more than the reduction on a small mesh."""
    return rho.sum() / rho.size


class _Slot(NamedTuple):
    """One field solve: the f state it belongs to (None: no state) and its
    read-only results; ``phi`` is None when only the force was solved."""

    key: tuple | None
    rho: np.ndarray | None
    phi: np.ndarray | None
    accel: np.ndarray | None


class _OneSolvePerF:
    """What both drivers share: the last field solve, reused while the
    request's key (f version, and a) is the slot's, and the half kick
    f still owes (see the module docstring)."""

    _slot = _Slot(None, None, None, None)
    #: -1 flips the solved force (the electrons' charge)
    _force_sign: float = 1.0
    #: kick time the next step (or :meth:`synchronize`) adds; 0: f is
    #: synchronous
    pending_kick: float = 0.0

    def _kick_drift(self, dt_kick: float, dt_drift: float,
                    dt_pending: float) -> None:
        """The merged step: one kick by ``pending + dt_kick`` in the
        current field, the drift, and ``dt_pending`` left owed."""
        self.solver.kick(self._timed_accel(), self.pending_kick + dt_kick)
        self.solver.drift(dt_drift)
        self.pending_kick = dt_pending

    def synchronize(self) -> None:
        """Apply the pending half kick in place: f becomes the
        synchronous state of the current time.  A no-op when nothing is
        pending."""
        if self.pending_kick:
            self.solver.kick(self._timed_accel(), self.pending_kick)
            self.pending_kick = 0.0

    def pending_velocity(self) -> np.ndarray | None:
        """The velocity shift the pending kick applies on the spatial
        mesh, ``pending_kick * acceleration``; None when synchronous."""
        if not self.pending_kick:
            return None
        return self.pending_kick * self._timed_accel()

    def _field_solve(self, key, need_phi: bool, *args) -> _Slot:
        """The slot when it answers ``key``, else a fresh solve of
        ``self._density_source(*args) -> (rho, source)`` (timed as
        ``moments``) that replaces it; a negative ``_force_sign`` flips
        the force."""
        slot = self._slot
        if key is not None and key == slot.key and (slot.phi is not None or not need_phi):
            return slot
        timer = self.timer
        with section(timer, "moments"):
            rho, source = self._density_source(*args)
        if need_phi:
            phi, accel = self.poisson.solve_fields(
                source, self.gradient_method, timer=timer)
        else:
            phi, accel = None, self.poisson.acceleration(
                source, self.gradient_method, timer=timer)
        if self._force_sign < 0:
            np.negative(accel, out=accel)
        for x in (rho, phi, accel):
            if x is not None:
                x.setflags(write=False)
        self._slot = _Slot(key, rho, phi, accel)
        return self._slot


@dataclass
class PlasmaVlasovPoisson(_OneSolvePerF):
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
    time: float = field(default=0.0, init=False)

    def __post_init__(self) -> None:
        self.solver = VlasovSolver(
            self.grid, scheme=self.scheme, engine=self.engine,
            timer=self.timer,
        )
        self.poisson = PeriodicPoissonSolver(self.grid.nx, self.grid.box_size)

    def _timed_accel(self) -> np.ndarray:
        with section(self.timer, "poisson"):
            return self.acceleration()

    @property
    def f(self) -> np.ndarray:
        """The electron distribution function (assign to set ICs)."""
        return self.solver.f

    @f.setter
    def f(self, value: np.ndarray) -> None:
        self.solver.f = value

    # solver returns -grad(phi); electrons (charge -1) feel +grad(phi)
    _force_sign = -1.0

    def _density_source(self) -> tuple[np.ndarray, np.ndarray]:
        rho = self.solver.density()
        return rho, rho - _mean(rho)

    def _fields(self, need_phi: bool) -> _Slot:
        return self._field_solve((self.solver.engine.f_version,), need_phi)

    def fields(self) -> tuple[np.ndarray, np.ndarray]:
        """Fused field solve: ``(phi, electron acceleration)``.

        One forward transform of the density contrast yields both the
        potential and the acceleration (+grad phi per electron-charge
        sign; see :meth:`PeriodicPoissonSolver.solve_fields`).
        """
        slot = self._fields(need_phi=True)
        return slot.phi, slot.accel

    def acceleration(self) -> np.ndarray:
        """Electron acceleration +grad(phi) on the spatial mesh.

        The kick path: skips the inverse transform of phi entirely on
        the spectral-gradient route (see
        :meth:`PeriodicPoissonSolver.acceleration`).
        """
        return self._fields(need_phi=False).accel

    def electric_field(self) -> np.ndarray:
        """E = -grad(phi), shape (dim,) + nx."""
        return -self.acceleration()

    def field_energy(self) -> float:
        """Electrostatic field energy (1/2) int E^2 dx."""
        e = self.acceleration()  # -E: squared, the sign drops out exactly
        return 0.5 * float((e**2).sum()) * self.grid.cell_volume_x

    def total_energy(self) -> float:
        """Kinetic + field energy — conserved by the continuous system;
        numerically it drifts at the splitting/dissipation order, which
        the tests bound."""
        return self.solver.kinetic_energy() + self.field_energy()

    def step(self, dt: float) -> None:
        """One merged leapfrog step of length dt: kick by the pending
        half kick plus dt/2, drift by dt, dt/2 left pending."""
        self._kick_drift(0.5 * dt, dt, 0.5 * dt)
        self.time += dt

    def run(self, dt: float, n_steps: int, observer: Callable | None = None) -> None:
        """Advance n_steps, optionally calling ``observer(self)`` each step
        (on the carried state); the run ends synchronized."""
        for _ in range(n_steps):
            self.step(dt)
            if observer is not None:
                observer(self)
        self.synchronize()


@dataclass
class GravitationalVlasovPoisson(_OneSolvePerF):
    """Self-gravitating Vlasov-Poisson in (optionally) expanding space.

    Parameters
    ----------
    grid:
        Phase-space geometry in comoving units (h^-1 Mpc, km/s) when a
        cosmology is supplied, arbitrary self-consistent units otherwise.
    g_newton:
        Gravitational constant in the caller's units.
    cosmology:
        If given, steps advance the scale factor and apply the exact
        comoving kick/drift integrals; if None, a = 1 and dt is proper.
    external_density:
        Optional callable ``() -> rho_com`` returning an additional
        comoving density on the spatial mesh (the CDM contribution in the
        hybrid scheme — paper §5.1.2: "the mass density field in Eq. (2)
        is the sum of CDM and massive neutrinos").
    """

    grid: PhaseSpaceGrid
    g_newton: float
    scheme: str = "slmpp5"
    gradient_method: str = "fd4"
    cosmology: Cosmology | None = None
    external_density: Callable[[], np.ndarray] | None = None
    a: float = 1.0
    engine: "SweepEngine | None" = None
    timer: "StepTimer | None" = None
    time: float = field(default=0.0, init=False)

    def __post_init__(self) -> None:
        self.solver = VlasovSolver(
            self.grid, scheme=self.scheme, engine=self.engine,
            timer=self.timer,
        )
        self.poisson = PeriodicPoissonSolver(self.grid.nx, self.grid.box_size)

    def _timed_accel(self, a: float | None = None) -> np.ndarray:
        with section(self.timer, "poisson"):
            return self.acceleration(a)

    @property
    def f(self) -> np.ndarray:
        """The matter distribution function (assign to set ICs)."""
        return self.solver.f

    @f.setter
    def f(self, value: np.ndarray) -> None:
        self.solver.f = value

    # ------------------------------------------------------------------

    def total_density(self) -> np.ndarray:
        """Comoving mass density: Vlasov matter plus any external field."""
        rho = self.solver.density()
        if self.external_density is not None:
            rho = rho + self.external_density()
        return rho

    def _density_source(self, a: float) -> tuple[np.ndarray, np.ndarray]:
        rho = self.total_density()
        return rho, (4.0 * np.pi * self.g_newton / a) * (rho - _mean(rho))

    def _fields(self, a: float | None, need_phi: bool) -> _Slot:
        a = self.a if a is None else a
        # an external density is not part of f's state: nothing is reused
        key = None if self.external_density is not None \
            else (self.solver.engine.f_version, a)
        return self._field_solve(key, need_phi, a)

    def potential(self, a: float | None = None) -> np.ndarray:
        """Peculiar potential of Eq. (2) at scale factor a."""
        return self._fields(a, need_phi=True).phi

    def fields(self, a: float | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Fused field solve at scale factor a: ``(phi, -grad phi)``.

        One forward transform of the total density yields both fields
        (:meth:`PeriodicPoissonSolver.solve_fields`); with a timer
        attached the solve splits into ``moments`` / ``fft`` / ``grad``.
        """
        slot = self._fields(a, need_phi=True)
        return slot.phi, slot.accel

    def acceleration(self, a: float | None = None) -> np.ndarray:
        """-grad(phi), shape (dim,) + nx — the kick path; never inverts
        phi itself on the spectral-gradient route."""
        return self._fields(a, need_phi=False).accel

    def potential_energy(self, a: float | None = None) -> float:
        """W = (1/2) int rho phi dx (self-energy of the contrast); one
        density moment, shared with the solve."""
        slot = self._fields(a, need_phi=True)
        rho = slot.rho
        return 0.5 * float(((rho - rho.mean()) * slot.phi).sum()) * self.grid.cell_volume_x

    def total_energy(self, a: float | None = None) -> float:
        """Kinetic + potential energy (meaningful for static runs; in
        comoving coordinates the expansion exchanges energy through the
        Layzer-Irvine equation instead)."""
        return self.solver.kinetic_energy() + self.potential_energy(a)

    # ------------------------------------------------------------------

    def step_static(self, dt: float) -> None:
        """Merged leapfrog step with frozen expansion (a stays fixed)."""
        self._kick_drift(0.5 * dt, dt, 0.5 * dt)
        self.time += dt

    def step_cosmological(self, a_next: float) -> None:
        """Merged leapfrog step advancing the scale factor from self.a
        to a_next.

        Kick and drift prefactors are the exact background integrals
        int dt and int dt/a^2 (see
        :meth:`repro.cosmology.background.Cosmology.kick_factor`): the
        kick adds int dt over the opening half [a, a_mid] to the pending
        one, and int dt over [a_mid, a_next] is left pending.
        """
        if self.cosmology is None:
            raise ValueError("no cosmology attached; use step_static")
        if a_next <= self.a:
            raise ValueError("a_next must exceed the current scale factor")
        cosmo = self.cosmology
        a0, a1 = self.a, a_next
        am = 0.5 * (a0 + a1)
        self._kick_drift(cosmo.kick_factor(a0, am), cosmo.drift_factor(a0, a1),
                         cosmo.kick_factor(am, a1))
        self.time += cosmo.kick_factor(a0, a1)
        self.a = a_next
