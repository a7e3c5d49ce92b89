"""Quickstart: linear Landau damping with the SL-MPP5 Vlasov solver.

The five-minute tour of the library: build a phase-space grid, load a
perturbed Maxwellian, march the self-consistent Vlasov-Poisson system with
the paper's single-stage scheme, and check the measured damping rate
against Landau's analytic result.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np
from scipy.signal import argrelmax

from repro.core import PhaseSpaceGrid, PlasmaVlasovPoisson


def main() -> None:
    # --- phase space: 1 spatial + 1 velocity dimension -----------------
    k = 0.5  # perturbation wavenumber
    grid = PhaseSpaceGrid(
        nx=(64,),              # spatial cells
        nu=(128,),             # velocity cells
        box_size=2 * np.pi / k,
        v_max=6.0,             # velocity domain [-6, 6) thermal units
        dtype=np.float64,
    )
    print(grid)

    # --- initial condition: perturbed Maxwellian ------------------------
    vp = PlasmaVlasovPoisson(grid, scheme="slmpp5")
    x = grid.x_centers(0)[:, None]
    v = grid.u_centers(0)[None, :]
    maxwellian = np.exp(-v**2 / 2) / np.sqrt(2 * np.pi)
    vp.f = (1 + 0.01 * np.cos(k * x)) * maxwellian

    # --- evolve ----------------------------------------------------------
    mass0 = vp.solver.total_mass()
    times, energies = [], []
    for _ in range(160):
        vp.step(dt=0.1)
        times.append(vp.time)
        energies.append(vp.field_energy())
    vp.synchronize()  # apply the pending half kick: f at t = 16
    t = np.array(times)
    e = np.array(energies)

    # --- measure the damping rate from the field-energy peaks ----------
    log_amp = 0.5 * np.log(e)
    peaks = argrelmax(log_amp)[0]
    peaks = peaks[(t[peaks] > 2) & (t[peaks] < 15)]
    gamma = np.polyfit(t[peaks], log_amp[peaks], 1)[0]
    omega = np.pi / np.diff(t[peaks]).mean()

    print(f"\nLandau damping at k = {k}:")
    print(f"  measured gamma = {gamma:+.4f}   (theory -0.1533)")
    print(f"  measured omega = {omega:.4f}    (theory  1.4156)")
    print(f"  mass drift     = {vp.solver.total_mass() / mass0 - 1:+.2e}")
    print(f"  min f          = {vp.f.min():+.2e}  (positivity preserved)")

    assert abs(gamma + 0.1533) < 0.01, "damping rate off - numerics broken?"
    print("\nquickstart OK")


if __name__ == "__main__":
    main()
