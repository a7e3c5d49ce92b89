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

Both advance with the KDK Strang sequence of Eq. (5), recomputing the
potential between the drift and the second half kick.

One field solve per f state: each driver keeps its last solve, keyed by
the engine's ``f_version`` (bumped by every sweep, f assignment and
``notify_f_mutated``) and the scale factor.  The ledger's energy after a
step and the next step's first kick see the same f, so the kick reuses
the ledger's solve: two solves per step, not three, bitwise unchanged.
The slot's arrays are read-only; writing into ``f`` in place after a
solve needs ``solver.notify_f_mutated()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from ..cosmology.background import Cosmology
from ..diagnostics.timers import section
from ..gravity.poisson import PeriodicPoissonSolver
from .mesh import PhaseSpaceGrid
from .vlasov import VlasovSolver

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..diagnostics.timers import StepTimer
    from .engine import SweepEngine


class _Slot(NamedTuple):
    """One field solve: the f state it belongs to (None: no state) and its
    read-only results; ``phi`` is None when only the force was solved."""

    key: tuple | None
    rho: np.ndarray | None
    phi: np.ndarray | None
    accel: np.ndarray | None


class _OneSolvePerF:
    """What both drivers share: the last field solve, reused while the
    request's key (f version, and a) is the slot's."""

    _slot = _Slot(None, None, None, None)

    def _field_solve(self, key, need_phi: bool, density_source,
                     sign: float = 1.0) -> _Slot:
        """The slot when it answers ``key``, else a fresh solve of
        ``density_source() -> (rho, source)`` (timed as ``moments``)
        that replaces it; ``sign=-1`` flips the force."""
        slot = self._slot
        if key is not None and key == slot.key and (slot.phi is not None or not need_phi):
            return slot
        with section(self.timer, "moments"):
            rho, source = density_source()
        kw = {"method": self.gradient_method, "timer": self.timer}
        if need_phi:
            phi, accel = self.poisson.solve_fields(source, **kw)
        else:
            phi, accel = None, self.poisson.acceleration(source, **kw)
        if sign < 0:
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

    def _fields(self, need_phi: bool) -> _Slot:
        def contrast():
            rho = self.solver.density()
            return rho, rho - rho.mean()

        # solver returns -grad(phi); electrons (charge -1) feel +grad(phi)
        return self._field_solve((self.solver.engine.f_version,), need_phi,
                                 contrast, sign=-1.0)

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
        e = self.electric_field()
        return 0.5 * float((e**2).sum()) * self.grid.cell_volume_x

    def total_energy(self) -> float:
        """Kinetic + field energy — conserved by the continuous system;
        numerically it drifts at the splitting/dissipation order, which
        the tests bound."""
        return self.solver.kinetic_energy() + self.field_energy()

    def step(self, dt: float) -> None:
        """One KDK Strang step of length dt."""
        self.solver.strang_step(
            self._timed_accel(), 0.5 * dt, dt, self._timed_accel, 0.5 * dt
        )
        self.time += dt

    def run(self, dt: float, n_steps: int, observer: Callable | None = None) -> None:
        """Advance n_steps, optionally calling ``observer(self)`` each step."""
        for _ in range(n_steps):
            self.step(dt)
            if observer is not None:
                observer(self)


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

    def _fields(self, a: float | None, need_phi: bool) -> _Slot:
        a = self.a if a is None else a

        def source():
            rho = self.total_density()
            return rho, (4.0 * np.pi * self.g_newton / a) * (rho - rho.mean())

        # an external density is not part of f's state: nothing is reused
        key = None if self.external_density is not None \
            else (self.solver.engine.f_version, a)
        return self._field_solve(key, need_phi, source)

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
        """KDK step with frozen expansion (a stays fixed)."""
        self.solver.strang_step(
            self._timed_accel(), 0.5 * dt, dt, self._timed_accel, 0.5 * dt
        )
        self.time += dt

    def step_cosmological(self, a_next: float) -> None:
        """KDK step advancing the scale factor from self.a to a_next.

        Kick and drift prefactors are the exact background integrals
        int dt and int dt/a^2 over the half/full intervals (see
        :meth:`repro.cosmology.background.Cosmology.kick_factor`).
        """
        if self.cosmology is None:
            raise ValueError("no cosmology attached; use step_static")
        if a_next <= self.a:
            raise ValueError("a_next must exceed the current scale factor")
        cosmo = self.cosmology
        a0, a1 = self.a, a_next
        am = 0.5 * (a0 + a1)
        kick1 = cosmo.kick_factor(a0, am)
        drift = cosmo.drift_factor(a0, a1)
        kick2 = cosmo.kick_factor(am, a1)

        accel0 = self._timed_accel(a=a0)

        def second_accel() -> np.ndarray:
            return self._timed_accel(a=a1)

        self.solver.strang_step(accel0, kick1, drift, second_accel, kick2)
        self.time += cosmo.kick_factor(a0, a1)
        self.a = a_next
