"""Time-step control for the cosmological hybrid runs.

The SL scheme is stable at any CFL, but three considerations still bound
the step (and set the paper's end-to-end step counts):

* **spatial CFL** — with domain decomposition a drift lands
  ``ghost_width(spec, cfl)`` planes from each neighbour
  (:func:`repro.core.advection.ghost_width`), so the block width bounds
  the usable shift; production runs march at spatial CFL ~ 1;
* **velocity CFL** — the kick shift a*dt/du should stay below ~1 cell for
  accuracy of the split (and positivity headroom);
* **expansion** — da/a per step bounded so the background integrals stay
  well resolved.

The controller converts these into the largest admissible next scale
factor.  It is deliberately stateless: feed it the current fields, get
a_next.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cosmology.background import Cosmology
from .mesh import PhaseSpaceGrid


@dataclass(frozen=True)
class TimestepController:
    """Computes the admissible scale-factor step for a hybrid run.

    Attributes
    ----------
    cosmology:
        Background (supplies the drift/kick integrals).
    grid:
        Phase-space geometry (cell sizes and the velocity cutoff).
    cfl_drift:
        Maximum spatial shift in cells per step (<= ghost budget).
    cfl_kick:
        Maximum velocity shift in cells per step.
    max_dloga:
        Maximum d(ln a) per step.
    """

    cosmology: Cosmology
    grid: PhaseSpaceGrid
    cfl_drift: float = 1.0
    cfl_kick: float = 0.5
    max_dloga: float = 0.05

    def __post_init__(self) -> None:
        if self.cfl_drift <= 0 or self.cfl_kick <= 0 or self.max_dloga <= 0:
            raise ValueError("all limits must be positive")

    # ------------------------------------------------------------------

    def drift_limit(self, a: float) -> float:
        """Largest a_next satisfying the spatial CFL.

        The fastest neutrinos move v_max * drift_factor; solve
        v_max * int_a^{a'} da/(a^3 H) <= cfl * dx by bisection (the
        integrand is positive and smooth, a few iterations suffice).
        """
        dx_min = min(self.grid.dx)
        budget = self.cfl_drift * dx_min / self.grid.v_max
        return self._invert_integral(a, budget, self.cosmology.drift_factor)

    def kick_limit(self, a: float, accel_max: float) -> float:
        """Largest a_next satisfying the velocity CFL for a given peak
        acceleration (|grad phi| max over the mesh)."""
        if accel_max <= 0.0:
            return np.inf
        du_min = min(self.grid.du)
        budget = self.cfl_kick * du_min / accel_max
        return self._invert_integral(a, budget, self.cosmology.kick_factor)

    def expansion_limit(self, a: float) -> float:
        """a * exp(max_dloga)."""
        return a * float(np.exp(self.max_dloga))

    def next_scale_factor(
        self, a: float, accel_max: float, a_end: float = 1.0
    ) -> float:
        """The admissible a_next: min over the three limits, capped at a_end."""
        if a <= 0.0 or a >= a_end:
            raise ValueError(f"need 0 < a < a_end, got a={a}, a_end={a_end}")
        candidates = [
            self.drift_limit(a),
            self.kick_limit(a, accel_max),
            self.expansion_limit(a),
            a_end,
        ]
        a_next = min(candidates)
        # never stall: numerical floor of 1e-6 relative growth
        return max(a_next, a * (1.0 + 1.0e-6))

    def estimate_steps(self, a_start: float, a_end: float = 1.0) -> int:
        """Steps needed from a_start to a_end under the drift limit alone
        (the binding constraint for the fast neutrinos — how the paper's
        end-to-end step counts scale with N_x, cf. repro.scaling.tts)."""
        total_drift = self.cosmology.drift_factor(a_start, a_end)
        dx_min = min(self.grid.dx)
        cells = self.grid.v_max * total_drift / dx_min
        return max(1, int(np.ceil(cells / self.cfl_drift)))

    # ------------------------------------------------------------------

    def _invert_integral(self, a: float, budget: float, integral) -> float:
        """Find a' with integral(a, a') == budget (monotone bisection)."""
        hi = a
        for _ in range(60):
            hi = min(hi * 2.0, 1.0e6)
            if integral(a, hi) >= budget or hi >= 1.0e6:
                break
        if integral(a, hi) < budget:
            return hi
        lo = a
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if integral(a, mid) < budget:
                lo = mid
            else:
                hi = mid
        return lo
