"""Operator-splitting compositions for the Vlasov step (paper Eq. 5).

The paper composes six 1-D advections in the Strang (symmetric) order —
half kicks around full drifts — which is 2nd-order accurate in time while
each substep remains a single-stage SL sweep.  This module makes the
composition itself a first-class, testable object:

* :func:`lie_step`    — K(dt) D(dt): 1st order, the naive composition;
* :func:`strang_step` — K(dt/2) D(dt) K(dt/2): the paper's Eq. (5);
* :func:`ruth_step`   — a 4th-order (Yoshida/Ruth) composition of Strang
  sub-steps, the natural "future work" upgrade: still single-stage per
  sweep, just more sweeps.

All three drive any object exposing ``kick_operator(dt)`` and
``drift_operator(dt)``; :class:`SplitStepper` adapts the
Vlasov-Poisson drivers to that protocol.  The temporal orders are
*measured* in ``tests/test_splitting.py``.  The drivers' own step is the
Strang composition with adjacent half kicks merged
(:mod:`repro.core.vlasov_poisson`); here every composition stays
unmerged, so that each is measured as written.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol

#: Yoshida (1990) triple-jump coefficients for the 4th-order composition.
_YOSHIDA_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_YOSHIDA_W0 = 1.0 - 2.0 * _YOSHIDA_W1


class Splittable(Protocol):
    """What a system must expose to be split-stepped."""

    def kick_operator(self, dt: float) -> None:
        """Advance the velocity-space (interaction) part by dt."""

    def drift_operator(self, dt: float) -> None:
        """Advance the free-streaming part by dt."""


def lie_step(system: Splittable, dt: float) -> None:
    """First-order Lie-Trotter composition: K(dt) then D(dt)."""
    system.kick_operator(dt)
    system.drift_operator(dt)


def strang_step(system: Splittable, dt: float) -> None:
    """Second-order Strang composition (the paper's Eq. 5 structure)."""
    system.kick_operator(0.5 * dt)
    system.drift_operator(dt)
    system.kick_operator(0.5 * dt)


def ruth_step(system: Splittable, dt: float) -> None:
    """Fourth-order Yoshida triple jump: Strang(w1 dt) Strang(w0 dt)
    Strang(w1 dt) with w0 < 0 (the backward sub-step is what buys the
    extra orders)."""
    strang_step(system, _YOSHIDA_W1 * dt)
    strang_step(system, _YOSHIDA_W0 * dt)
    strang_step(system, _YOSHIDA_W1 * dt)


COMPOSITIONS: dict[str, Callable[[Splittable, float], None]] = {
    "lie": lie_step,
    "strang": strang_step,
    "ruth4": ruth_step,
}


@dataclass
class SplitStepper:
    """Adapts a Vlasov-Poisson driver to the splitting protocol.

    The kick recomputes the self-consistent field each time it is applied
    (fresh Poisson solve), which is what makes the Strang composition
    genuinely 2nd order for the *nonlinear* system.

    Parameters
    ----------
    vp:
        A :class:`repro.core.vlasov_poisson.PlasmaVlasovPoisson` or
        :class:`GravitationalVlasovPoisson` (anything with ``solver``
        and ``acceleration()``).
    composition:
        One of :data:`COMPOSITIONS`.
    """

    vp: object
    composition: str = "strang"

    def __post_init__(self) -> None:
        if self.composition not in COMPOSITIONS:
            raise ValueError(
                f"unknown composition {self.composition!r}; "
                f"choose from {sorted(COMPOSITIONS)}"
            )

    def kick_operator(self, dt: float) -> None:
        """Self-consistent velocity advection over dt."""
        self.vp.solver.kick(self.vp.acceleration(), dt)

    def drift_operator(self, dt: float) -> None:
        """Spatial advection over dt (negative dt = backward drift,
        needed by the 4th-order composition)."""
        self.vp.solver.drift(dt)

    def step(self, dt: float) -> None:
        """One composed step."""
        COMPOSITIONS[self.composition](self, dt)

    def run(self, dt: float, n_steps: int) -> None:
        """March n_steps."""
        for _ in range(n_steps):
            self.step(dt)
