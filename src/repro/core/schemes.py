"""Method-of-lines baseline: MP5 reconstruction + TVD Runge-Kutta stages.

The paper's key algorithmic claim (§5.2) is that the SL-MPP5 scheme reaches
spatially 5th-order accuracy with monotonicity/positivity preservation in a
*single* flux evaluation per step, whereas a conventional MP5 finite-volume
scheme needs a temporally high-order multi-stage integrator (Shu & Osher
TVD-RK3, ref. [21]) — three flux evaluations per step — and is CFL-limited.

This module implements that conventional baseline so the cost claim can be
measured (``benchmarks/bench_ablation_scheme_cost.py``).  Flux evaluations
are counted explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .limiters import mp_limit_interface
from .stencil import edge_value_coefficients

#: Shu-Osher SSP-RK3 stage weights: u1 = u + dt L(u);
#: u2 = 3/4 u + 1/4 (u1 + dt L(u1)); u3 = 1/3 u + 2/3 (u2 + dt L(u2)).
_RK3_STAGES = ((1.0, 0.0, 1.0), (0.75, 0.25, 0.25), (1.0 / 3.0, 2.0 / 3.0, 2.0 / 3.0))

#: Maximum CFL for which MP5+RK3 remains monotone (Suresh & Huynh, alpha=4).
MP5_RK3_MAX_CFL = 0.2


@dataclass
class Mp5Rk3Advector:
    """Eulerian MP5 + SSP-RK3 directional advection operator.

    Unlike :func:`repro.core.advection.advect`, the shift per call must
    respect the Eulerian CFL limit; callers needing a larger total shift
    must sub-cycle (which is exactly the cost disadvantage the paper's
    single-stage scheme removes).

    Attributes
    ----------
    use_mp:
        Apply the Suresh-Huynh MP limiter to the interface values.
    flux_evaluations:
        Running count of full-grid flux evaluations (3 per RK3 step).
    """

    use_mp: bool = True
    flux_evaluations: int = field(default=0, init=False)

    def step(self, f: np.ndarray, shift, axis: int, bc: str = "periodic") -> np.ndarray:
        """One RK3 step of df/dt + v df/dx = 0 with |shift| <= CFL limit.

        ``shift = v dt / dx``, broadcastable with size 1 along ``axis``.
        """
        fw = np.moveaxis(f, axis, -1).copy()
        sh = np.asarray(shift, dtype=fw.dtype)
        if sh.ndim:
            ax = axis if axis >= 0 else axis + f.ndim
            sh = np.moveaxis(sh, ax, -1)
        if np.max(np.abs(sh)) > 1.0 + 1e-12:
            raise ValueError(
                "MP5+RK3 is Eulerian: |shift| must be <= 1 per step "
                f"(got {float(np.max(np.abs(sh)))}); sub-cycle instead"
            )
        u0 = fw
        u = fw
        for w0, w1, w2 in _RK3_STAGES:
            lu = self._rhs(u, sh, bc)
            u = w0 * u0 + w1 * u + w2 * lu if w1 else u0 + lu
            # (w-form written out: stage1 uses u0 + L; later stages mix)
        return np.moveaxis(u, -1, axis)

    def advance(
        self, f: np.ndarray, shift, axis: int, bc: str = "periodic",
        cfl: float = MP5_RK3_MAX_CFL,
    ) -> np.ndarray:
        """Advance by an arbitrary total shift, sub-cycling at the CFL limit."""
        sh = np.asarray(shift, dtype=np.float64)
        max_shift = float(np.max(np.abs(sh))) if sh.size else 0.0
        n_sub = max(1, int(np.ceil(max_shift / cfl)))
        out = f
        for _ in range(n_sub):
            out = self.step(out, sh / n_sub, axis, bc)
        return out

    # ------------------------------------------------------------------

    def _rhs(self, u: np.ndarray, sh: np.ndarray, bc: str) -> np.ndarray:
        """-(shift) * d/dx discretized: -(F_{i+1/2} - F_{i-1/2}).

        F here is the *point-value* upwind interface reconstruction times
        the shift (the dt/dx factor is folded into the shift).
        """
        self.flux_evaluations += 1
        n = u.shape[-1]
        if bc == "zero":
            pad = 3
            u_ext = np.concatenate(
                [
                    np.zeros(u.shape[:-1] + (pad,), dtype=u.dtype),
                    u,
                    np.zeros(u.shape[:-1] + (pad,), dtype=u.dtype),
                ],
                axis=-1,
            )
            f_plus = self._interface_values(u_ext, upwind_from_left=True)
            f_minus = self._interface_values(u_ext, upwind_from_left=False)
            f_plus = f_plus[..., pad : pad + n]
            f_minus = f_minus[..., pad : pad + n]
        else:
            f_plus = self._interface_values(u, upwind_from_left=True)
            f_minus = self._interface_values(u, upwind_from_left=False)

        f_iface = np.where(sh >= 0.0, f_plus, f_minus)
        flux = sh * f_iface
        if bc == "zero":
            flux_left = np.empty_like(flux)
            flux_left[..., 1:] = flux[..., :-1]
            flux_left[..., 0] = 0.0
        else:
            flux_left = np.roll(flux, 1, axis=-1)
        return -(flux - flux_left)

    def _interface_values(self, u: np.ndarray, upwind_from_left: bool) -> np.ndarray:
        """MP5 point value at interface i+1/2 from the chosen upwind side."""
        coef = edge_value_coefficients(5).astype(u.dtype)
        if upwind_from_left:
            # st[m][i] = u[i + m - 2]: donor cell i, ascending offsets
            st = np.stack([np.roll(u, 2 - m, axis=-1) for m in range(5)])
        else:
            # mirrored: donor cell i+1, reconstruct its left-edge value;
            # st[m][i] = u[i + 3 - m] puts the stencil in mirrored-canonical
            # order (donor at index 2, downstream cell i at index 3), which
            # is exactly what the coefficients and the MP limiter expect.
            st = np.stack([np.roll(u, m - 3, axis=-1) for m in range(5)])
        f_if = np.zeros_like(u)
        for m in range(5):
            f_if += coef[m] * st[m]
        if self.use_mp:
            f_if = mp_limit_interface(f_if, st)
        return f_if
