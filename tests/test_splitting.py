"""Measured temporal orders of the splitting compositions.

The paper's Eq. (5) is the Strang composition; these tests *measure* that
it is 2nd order in time on the nonlinear Vlasov-Poisson system, that the
naive Lie composition is only 1st order, and that the Yoshida 4th-order
composition (built purely from more Strang sweeps — still single-stage
per sweep) reaches higher accuracy, validating the paper's claim that
temporal order comes from composition, not Runge-Kutta stages.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.mesh import PhaseSpaceGrid
from repro.core.splitting import COMPOSITIONS, SplitStepper
from repro.core.vlasov_poisson import PlasmaVlasovPoisson


def _fresh_vp() -> PlasmaVlasovPoisson:
    grid = PhaseSpaceGrid(
        nx=(32,), nu=(64,), box_size=4 * np.pi, v_max=6.0, dtype=np.float64
    )
    vp = PlasmaVlasovPoisson(grid, scheme="slp5")  # unlimited: smooth errors
    x = grid.x_centers(0)[:, None]
    v = grid.u_centers(0)[None, :]
    vp.f = (1 + 0.05 * np.cos(0.5 * x)) * np.exp(-(v**2) / 2) / np.sqrt(2 * np.pi)
    return vp


def _error_at(composition: str, dt: float, t_end: float = 0.8) -> float:
    """Richardson-style error: distance to a dt/4 reference."""
    ref = _run(composition, dt / 4.0, t_end)
    sol = _run(composition, dt, t_end)
    return float(np.abs(sol - ref).max())


def _run(composition: str, dt: float, t_end: float) -> np.ndarray:
    vp = _fresh_vp()
    stepper = SplitStepper(vp, composition)
    stepper.run(dt, int(round(t_end / dt)))
    return vp.f


class TestTemporalOrders:
    def test_lie_is_first_order(self):
        e1 = _error_at("lie", 0.2)
        e2 = _error_at("lie", 0.1)
        order = np.log2(e1 / e2)
        assert 0.7 < order < 1.5

    def test_strang_is_second_order(self):
        """The paper's composition: halving dt cuts the error ~4x."""
        e1 = _error_at("strang", 0.2)
        e2 = _error_at("strang", 0.1)
        order = np.log2(e1 / e2)
        assert 1.7 < order < 2.6

    def test_ruth4_beats_strang(self):
        """The Yoshida composition reaches much smaller errors at the
        same dt (each sub-sweep is still a single-stage SL advection)."""
        e_strang = _error_at("strang", 0.2)
        e_ruth = _error_at("ruth4", 0.2)
        assert e_ruth < 0.2 * e_strang

    def test_strang_matches_production_step(self):
        """SplitStepper('strang') equals PlasmaVlasovPoisson.step, the
        same composition with adjacent half kicks merged, once the
        pending half kick is applied (both 2nd order; equal within the
        step's truncation error)."""
        vp_a = _fresh_vp()
        SplitStepper(vp_a, "strang").run(0.1, 10)
        vp_b = _fresh_vp()
        for _ in range(10):
            vp_b.step(0.1)
        vp_b.synchronize()
        assert np.abs(vp_a.f - vp_b.f).max() < 5e-4 * vp_b.f.max()

    def test_unknown_composition_rejected(self):
        with pytest.raises(ValueError):
            SplitStepper(_fresh_vp(), "magic")

    def test_registry_contents(self):
        assert set(COMPOSITIONS) == {"lie", "strang", "ruth4"}


class TestBackwardDrift:
    def test_negative_drift_reverses_positive(self):
        """ruth4 needs backward sub-steps: D(-dt) must invert D(dt) for
        the linear drift (exactly, for integer shifts)."""
        vp = _fresh_vp()
        f0 = vp.f.copy()
        vp.solver.drift(0.37)
        vp.solver.drift(-0.37)
        # SL advection is not exactly time-reversible (dissipation), but
        # for smooth data the round trip is accurate to the scheme order
        assert np.abs(vp.f - f0).max() < 1e-6 * f0.max()
