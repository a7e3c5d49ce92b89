"""The merged-leapfrog protocol every driver shares (paper Eq. 5).

The three closed-loop drivers —
:class:`~repro.core.vlasov_poisson.PlasmaVlasovPoisson`,
:class:`~repro.core.vlasov_poisson.GravitationalVlasovPoisson` and
:class:`~repro.core.hybrid.HybridSimulation` — advance with the KDK
Strang sequence of Eq. (5) in its merged (leapfrog) form.  Step n's
closing half kick and step n+1's opening half kick use the same field,
the solve after step n's drift, so a step is

    kick(owed + opening half) -> drift -> owe the closing half

three velocity and three spatial sweeps and one field solve.  Between
steps f owes that half kick: it is the synchronous state minus it.
:meth:`LeapfrogDriver.synchronize` applies it in place; a checkpoint
stores the state as it is, with the owed kick in its header's ``extra``,
so a restored run continues the same chain bit for bit.  The density,
and with it the field, is the synchronous one: a kick does not move mass
between spatial cells.

One field solve per f state: the driver keeps its last solve, keyed by
the engine's ``f_version`` (bumped by every sweep, f assignment and
``notify_f_mutated``) and the scale factor.  The ledger's energy after a
step and the next step's kick see the same f, so the kick reuses the
ledger's solve.  The slot's arrays are read-only; writing into ``f`` in
place after a solve needs ``solver.notify_f_mutated()``.

A driver supplies its field solve (:meth:`LeapfrogDriver._solve`), the
accelerations its kick reads, its kick and drift, and a ``step`` that
computes the merged-kick integral; the base does the rest.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from ..io.snapshot import write_checkpoint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..diagnostics.timers import StepTimer
    from .mesh import PhaseSpaceGrid
    from .vlasov import VlasovSolver


class Fields(NamedTuple):
    """One field solve: the state it belongs to and its read-only
    results, None where the solve made none (``phi`` when only the force
    was solved)."""

    key: tuple | None = None
    rho: np.ndarray | None = None
    phi: np.ndarray | None = None
    #: the acceleration on the spatial mesh, shape (dim,) + nx
    accel: np.ndarray | None = None
    #: the acceleration at the CDM particles (the hybrid)
    particles: np.ndarray | None = None


class LeapfrogDriver:
    """The merged-leapfrog protocol: the field slot, the owed half kick,
    the clock and the checkpoint pair (see the module docstring)."""

    grid: PhaseSpaceGrid
    timer: StepTimer | None
    #: the Vlasov solver, built by the driver
    solver: VlasovSolver
    #: the scale factor (1 on the static drivers)
    a: float
    #: completed steps (a checkpoint's ``step``)
    step_count: int = 0
    #: the fixed-dt clocks' time; 0 on the hybrid, whose clock is ``a``
    time: float = 0.0
    #: ``(attribute, key)``: the owed kick's attribute, falsy (its class
    #: default) while f is synchronous, and its key in a checkpoint
    #: header's ``extra``, omitted while synchronous
    OWED: tuple[str, str]
    _slot = Fields()

    # ------------------------------------------------------------------
    # what a driver supplies
    # ------------------------------------------------------------------

    def _solve(self, need_phi: bool) -> Fields:
        """A fresh field solve of the current state."""
        raise NotImplementedError

    def _kick_accel(self) -> tuple[np.ndarray, np.ndarray | None]:
        """``(mesh, particles)``: the accelerations a kick applies now."""
        raise NotImplementedError

    def _owed_factor(self) -> float:
        """The kick factor of the owed half kick."""
        raise NotImplementedError

    def _kick(self, factor: float) -> None:
        self.solver.kick(self._kick_accel()[0], factor)

    def _drift(self, factor: float) -> None:
        self.solver.drift(factor)

    # ------------------------------------------------------------------
    # the protocol
    # ------------------------------------------------------------------

    @property
    def f(self) -> np.ndarray:
        """The Vlasov distribution function (assign to set ICs)."""
        return self.solver.f

    @f.setter
    def f(self, value: np.ndarray) -> None:
        self.solver.f = value

    @property
    def particles(self):
        """The particle component, or None."""
        return None

    def _fields(self, need_phi: bool = False) -> Fields:
        """The field solve of the current state: the slot while its key
        (f version, a) is current and it holds phi when ``need_phi``,
        else a fresh :meth:`_solve` that replaces it."""
        key = (self.solver.engine.f_version, self.a)
        slot = self._slot
        if key != slot.key or (need_phi and slot.phi is None):
            slot = self._solve(need_phi)._replace(key=key)
            for x in slot[1:]:
                if x is not None:
                    x.setflags(write=False)
            self._slot = slot
        return slot

    @property
    def _owed(self) -> float | None:
        """The owed kick as the driver holds it; falsy: synchronous."""
        return getattr(self, self.OWED[0])

    @_owed.setter
    def _owed(self, value: float | None) -> None:
        # None: synchronous, the attribute's class default
        attr = self.OWED[0]
        setattr(self, attr, getattr(type(self), attr) if value is None else value)

    def _advance(self, kick: float, drift: float, owed: float) -> None:
        """The merged step: one kick by ``kick`` (the owed half kick
        included) in the current field, the drift, ``owed`` left owed."""
        self._kick(kick)
        self._drift(drift)
        self._owed = owed
        self.step_count += 1

    def synchronize(self) -> None:
        """Apply the owed half kick in place: f (and the particles)
        become the synchronous state of the current time.  A no-op when
        nothing is owed."""
        if self._owed:
            self._kick(self._owed_factor())
            self._owed = None

    def pending_velocity(self) -> tuple[np.ndarray | None, np.ndarray | None]:
        """``(mesh, particles)``: the velocity shifts the owed kick
        applies on the spatial mesh and to the particles; None where
        there is nothing to shift."""
        if not self._owed:
            return None, None
        factor = self._owed_factor()
        mesh, particles = self._kick_accel()
        return factor * mesh, None if particles is None else factor * particles

    def coordinate(self) -> dict[str, float]:
        """The driver's clock, e.g. ``{"t": 1.2}`` or ``{"a": 0.5}``."""
        raise NotImplementedError

    def conserved(self) -> dict[str, float]:
        """Conserved quantities for the ledger and guards, read on the
        carried f (the owed kick is not applied)."""
        raise NotImplementedError

    def save(self, path: str | Path, timer=None, extra: dict | None = None) -> Path:
        """Write a restart checkpoint of the carried state: f, the
        particles, the clock, ``step_count`` and the owed kick."""
        extra = dict(extra or {})
        if self._owed:
            extra[self.OWED[1]] = self._owed
        return write_checkpoint(
            path, self.grid, self.f, self.particles, a=self.a,
            step=self.step_count, sim_time=self.time, extra=extra, timer=timer,
        )

    def restore(self, f: np.ndarray, particles, header: dict) -> None:
        """Adopt a checkpoint's state (the inverse of :meth:`save`); a
        header without the owed kick's key is synchronous."""
        self.f = f
        self.time = float(header["time"])
        self.a = float(header["a"])
        self.step_count = int(header["step"])
        self._owed = header.get("extra", {}).get(self.OWED[1])
