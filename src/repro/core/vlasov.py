"""The phase-space Vlasov solver: directional splitting of Eq. (1).

A :class:`VlasovSolver` applies the two elementary split operators of the
paper's §5.1.1, each as a plan of directional sweeps executed by its engine
(:mod:`repro.core.engine` — where the sweeps run and where f lives):

* ``drift`` — the spatial advections of Eq. (3), speed u_i / a^2 (the
  cosmological 1/a^2 is folded into the *effective* drift time supplied by
  the caller, so the solver itself is cosmology-agnostic);
* ``kick``  — the velocity advections of Eq. (4), speed -dphi/dx_i,
  supplied as an acceleration field on the spatial mesh.

One full time step composes them in the Strang sequence of Eq. (5):
half kick, full drift, half kick — with the caller recomputing the
potential between the drift and the second half kick (KDK), which keeps
the whole Vlasov-Poisson loop second order in time while the advections
themselves are spatially 5th order and single-stage.

Thanks to the semi-Lagrangian fluxes, *no CFL restriction* applies: the
paper's neutrinos move many cells per step at high redshift.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .engine import AXIS_NAMES, Sweep, SweepEngine
from .mesh import PhaseSpaceGrid

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..diagnostics.timers import StepTimer
    from ..perf.arena import ScratchArena


@dataclass
class VlasovSolver:
    """Finite-volume Vlasov solver on a :class:`PhaseSpaceGrid`.

    Attributes
    ----------
    grid:
        Phase-space geometry.
    scheme:
        Advection scheme name (default the paper's ``slmpp5``).
    f:
        The distribution function, allocated zero; load initial conditions
        by assigning into it (``solver.f[...] = ...``) or over it.
    velocity_bc:
        Boundary condition along the velocity axes; the paper truncates at
        [-V, V) which is the ``zero`` (outflow) condition.
    engine:
        Where the sweeps execute and f lives (:mod:`repro.core.engine`):
        ``None`` (default) is the serial :class:`SweepEngine`; a
        :class:`repro.perf.pencil.PencilEngine` pencil-shards every
        sweep, a :class:`repro.parallel.domain.DomainEngine` keeps f in
        persistent block workers.  All are bitwise-identical.  An engine
        serves one solver at a time: binding restarts its f.
    timer:
        Optional :class:`repro.diagnostics.StepTimer`; when set, every
        sweep is recorded as ``vlasov/drift/x`` ... ``vlasov/kick/uz``,
        so ``timer.report()`` reproduces the paper's Fig. 7-style
        per-section breakdown.
    arena:
        Scratch-buffer pool of the serial engine (ignored when an engine
        is passed; afterwards always the engine's own), so steady-state
        stepping is allocation-free.
    """

    grid: PhaseSpaceGrid
    scheme: str = "slmpp5"
    velocity_bc: str = "zero"
    engine: "SweepEngine | None" = None
    timer: "StepTimer | None" = None
    arena: "ScratchArena | None" = None

    def __post_init__(self) -> None:
        if self.engine is None:
            self.engine = SweepEngine(arena=self.arena)
        self.arena = self.engine.arena
        self.engine.bind(self.grid, self.scheme, self.velocity_bc, self.timer)

    @property
    def f(self) -> np.ndarray:
        """The distribution function (engine-resident; see ``engine``)."""
        return self.engine.f

    @f.setter
    def f(self, value: np.ndarray) -> None:
        self.engine.f = value

    def notify_f_mutated(self) -> None:
        """:attr:`f` was written in place (fault injection); engines
        holding f elsewhere re-sync from it."""
        self.engine.mark_mutated()

    # ------------------------------------------------------------------
    # split operators
    # ------------------------------------------------------------------

    def drift(self, dt_drift: float) -> None:
        """Apply D_x D_y D_z: advect along every spatial axis.

        Parameters
        ----------
        dt_drift:
            Effective drift time; cosmological callers pass
            int dt / a(t)^2 over the step (paper's u/a^2 advection speed),
            static problems pass plain dt.

        Following Eq. (5) the drifts are applied in z, y, x order (the
        rightmost operator acts first).
        """
        g = self.grid
        self.engine.run([
            Sweep(f"vlasov/drift/{AXIS_NAMES[d]}", "x", d, g.spatial_axis(d),
                  dt_drift / g.dx[d], "periodic")
            for d in reversed(range(g.dim))
        ], None)

    def kick(self, accel: np.ndarray, dt_kick: float) -> None:
        """Apply D_ux D_uy D_uz: advect along every velocity axis.

        Parameters
        ----------
        accel:
            Acceleration field -grad(phi) on the spatial mesh, shape
            ``(dim,) + grid.nx``.
        dt_kick:
            Effective kick time (int dt over the half step for
            cosmological callers).

        Applied in x, y, z order (rightmost first in Eq. 5).
        """
        g = self.grid
        accel = np.asarray(accel)
        if accel.shape != (g.dim,) + g.nx:
            raise ValueError(
                f"accel shape {accel.shape} != {(g.dim,) + g.nx}"
            )
        self.engine.run([
            Sweep(f"vlasov/kick/u{AXIS_NAMES[d]}", "v", d, g.velocity_axis(d),
                  dt_kick / g.du[d], self.velocity_bc)
            for d in range(g.dim)
        ], accel)

    def strang_step(
        self,
        accel_first: np.ndarray,
        dt_kick_first: float,
        dt_drift: float,
        recompute_accel,
        dt_kick_second: float,
    ) -> None:
        """One full Strang (KDK) step of Eq. (5).

        ``recompute_accel`` is a callable invoked *after* the drift with no
        arguments, returning the updated acceleration field for the second
        half kick (callers close over their Poisson solve; the density has
        changed during the drift).
        """
        self.kick(accel_first, dt_kick_first)
        self.drift(dt_drift)
        self.kick(recompute_accel(), dt_kick_second)

    # ------------------------------------------------------------------
    # CFL bookkeeping (informational: the SL scheme has no stability limit,
    # but accuracy and the splitting error still favor moderate shifts)
    # ------------------------------------------------------------------

    def max_drift_cfl(self, dt_drift: float) -> float:
        """Largest spatial shift in cells for a given effective drift time."""
        return max(
            self.grid.v_max * abs(dt_drift) / self.grid.dx[d]
            for d in range(self.grid.dim)
        )

    def max_kick_cfl(self, accel: np.ndarray, dt_kick: float) -> float:
        """Largest velocity shift in cells for a given acceleration field."""
        accel = np.asarray(accel)
        return max(
            float(np.abs(accel[d]).max()) * abs(dt_kick) / self.grid.du[d]
            for d in range(self.grid.dim)
        )

    # ------------------------------------------------------------------
    # moments and health (delegated to wherever f lives)
    # ------------------------------------------------------------------

    def density(self) -> np.ndarray:
        """Mass density on the spatial mesh."""
        return self.engine.density()

    def total_mass(self) -> float:
        """Total phase-space mass."""
        return self.engine.total_mass()

    def kinetic_energy(self) -> float:
        """Kinetic energy in canonical velocity."""
        return self.engine.kinetic_energy()

    def f_stats(self) -> tuple[int, float]:
        """(non-finite cell count, min of f), without materializing f."""
        return self.engine.f_stats()
