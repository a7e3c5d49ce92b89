"""The engine seam: how a directional sweep is described, and where f lives.

:class:`repro.core.vlasov.VlasovSolver` is the only solver.  It turns
``drift``/``kick`` into a *plan* — a list of :class:`Sweep` records —
and hands plan plus acceleration mesh to one engine protocol: ``bind``,
``run(plan, accel)``, ``f`` (get / set / ``mark_mutated``), the
reductions (``density``, ``total_mass``, ``kinetic_energy``,
``f_stats``), ``fault_hook`` and ``close`` — see the method-by-method
table in docs/PERFORMANCE.md ("One engine seam").  The field solve is
not part of it: every driver's Poisson solver runs on the process-default
:class:`repro.perf.fft.SpectralBackend`, whatever the engine.

:class:`SweepEngine` is that protocol's serial implementation and the
base of the two parallel ones: ``PencilEngine`` overrides the per-sweep
kernel (:meth:`SweepEngine.advect`), ``DomainEngine`` overrides ``run``,
the reductions and where f lives.  :func:`sweep_shift` is the one place
the departure shift is computed — it is bitwise-load-bearing, so the
domain workers call it on their own slab rather than restating it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from ..diagnostics.timers import section
from . import moments
from .advection import SCHEMES, advect
from .mesh import PhaseSpaceGrid

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..diagnostics.timers import StepTimer
    from ..perf.arena import ScratchArena

__all__ = ["AXIS_NAMES", "Sweep", "SweepEngine", "sweep_shift"]

#: axis letters for timer section names (vlasov/drift/x, vlasov/kick/ux, ...)
AXIS_NAMES = "xyz"


class Sweep(NamedTuple):
    """One directional advection of a plan."""

    name: str      # timer section, e.g. "vlasov/drift/x"
    kind: str      # "x": spatial drift, "v": velocity kick
    d: int         # which of the grid's ``dim`` directions
    axis: int      # the advected axis of f
    factor: float  # dt/dx_d (drift) or dt/du_d (kick)
    bc: str


def sweep_shift(grid: PhaseSpaceGrid, sweep: Sweep, accel) -> np.ndarray:
    """Departure shift of one sweep, in cells, broadcastable against f.

    Drift: ``u_d * dt/dx_d``.  Kick: ``accel[d] * dt/du_d`` with the
    mesh broadcast over the velocity axes; ``accel`` is ``(dim,) + nx``
    or any spatial slab of it (an elementwise product of a slab equals
    the slab of the product, so block shifts match the full-mesh ones
    row for row).  The shift stays float64: casting the acceleration to
    float32 storage first would round the departure points themselves,
    while ``advect`` already confines storage precision to f.
    """
    if sweep.kind == "x":
        return grid.u_center_broadcast(sweep.d) * sweep.factor
    a_d = accel[sweep.d].astype(np.float64, copy=False)
    return a_d.reshape(a_d.shape + (1,) * grid.dim) * sweep.factor


class SweepEngine:
    """Serial engine: f on the host, one plain ``advect`` per sweep.

    ``arena`` is the scratch pool its sweeps reuse (created when not
    given), so steady-state stepping is allocation-free.  f is one array,
    allocated at :meth:`bind` and never replaced: each sweep advects it
    in place (``advect(..., out=f)``) and assigning f copies into it.
    ``DomainEngine`` swaps :attr:`f` between two shared buffers instead,
    so read f through the property and hold it across no sweep.
    """

    grid: PhaseSpaceGrid | None = None
    timer: "StepTimer | None" = None
    #: chaos-harness hook, ``hook(engine)``; only engines with
    #: workers to sabotage ever call it.
    fault_hook = None
    #: bumped by everything that may change f — ``run``, ``mark_mutated``
    #: (so the f setter and restores) and ``bind`` — so a value derived
    #: from f is current exactly while the version it was derived at is.
    f_version = 0

    def __init__(self, arena: "ScratchArena | None" = None) -> None:
        if arena is None:
            from ..perf.arena import ScratchArena

            arena = ScratchArena()
        self.arena = arena

    def bind(
        self,
        grid: PhaseSpaceGrid,
        scheme: str,
        velocity_bc: str = "zero",
        timer: "StepTimer | None" = None,
    ) -> None:
        """Adopt one solver's geometry; f restarts as zeros."""
        if scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r}")
        self.grid = grid
        self.scheme = scheme
        self.velocity_bc = velocity_bc
        self.timer = timer
        self._f = self._zeroed_f(grid)
        self.mark_mutated()

    def _zeroed_f(self, grid: PhaseSpaceGrid) -> np.ndarray:
        """The all-zero f a bind starts from."""
        return grid.zeros_f()

    # -- the distribution function --------------------------------------

    @property
    def f(self) -> np.ndarray:
        return self._f

    @f.setter
    def f(self, value: np.ndarray) -> None:
        """Copy ``value`` into f (cast to the storage dtype); the caller's
        array is never adopted, so later sweeps cannot overwrite it."""
        if np.shape(value) != self.grid.shape:
            raise ValueError(
                f"f has shape {self.grid.shape}; got {np.shape(value)}"
            )
        self._f[...] = value
        self.mark_mutated()

    def mark_mutated(self) -> None:
        """The array behind :attr:`f` was written."""
        self.f_version += 1

    # -- sweeps ----------------------------------------------------------

    def advect(self, f, shift, axis, scheme="slmpp5", bc="periodic",
               out=None) -> np.ndarray:
        """The per-sweep kernel: :func:`repro.core.advection.advect`."""
        return advect(f, shift, axis, scheme=scheme, bc=bc, out=out,
                      arena=self.arena)

    def _section(self, name: str):
        return section(self.timer, name)

    def run(self, plan, accel) -> None:
        """Execute ``plan`` on the host array, each sweep a timed section."""
        self.f_version += 1
        for sweep in plan:
            with self._section(sweep.name):
                self._host_sweep(sweep, accel)

    def _host_sweep(self, sweep: Sweep, accel) -> None:
        f = self._f
        self.advect(
            f, sweep_shift(self.grid, sweep, accel), sweep.axis,
            scheme=self.scheme, bc=sweep.bc, out=f,
        )

    # -- reductions (no communication by construction, §5.1.3) -----------

    def density(self) -> np.ndarray:
        """Mass density on the spatial mesh."""
        return moments.density(self.f, self.grid)

    def total_mass(self) -> float:
        return moments.total_mass(self.f, self.grid)

    def kinetic_energy(self) -> float:
        return moments.kinetic_energy(self.f, self.grid)

    def f_stats(self) -> tuple[int, float]:
        """(non-finite cell count, min of f) — the guards' health probe."""
        return moments.finite_stats(self.f)

    # -- lifetime --------------------------------------------------------

    def close(self) -> None:
        """Nothing to release."""

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()
