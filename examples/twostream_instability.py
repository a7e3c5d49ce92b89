"""Two-stream instability: the classic nonlinear Vlasov-Poisson showcase
and the paper's §8 plasma application direction.

Two counter-streaming electron beams are unstable below the critical
wavenumber; the field energy grows exponentially, then saturates as the
phase-space distribution rolls up into the famous vortex ("phase-space
hole") — a structure a particle code can only resolve noisily, but the
distribution function represents smoothly.

Also compares the scheme family: run with --scheme slmpp5 / slp5 /
upwind1 to see dissipation differences at saturation.

Run:  python examples/twostream_instability.py [--scheme slmpp5]
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.core import PhaseSpaceGrid, PlasmaVlasovPoisson
from repro.core.moments import l2_norm


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scheme", default="slmpp5")
    ap.add_argument("--steps", type=int, default=250)
    ap.add_argument("--dt", type=float, default=0.1)
    args = ap.parse_args()

    k = 0.5
    v0 = 1.5
    grid = PhaseSpaceGrid(
        nx=(64,), nu=(128,), box_size=2 * np.pi / k, v_max=8.0, dtype=np.float64
    )
    vp = PlasmaVlasovPoisson(grid, scheme=args.scheme)
    x = grid.x_centers(0)[:, None]
    v = grid.u_centers(0)[None, :]

    def beam(center):
        return np.exp(-((v - center) ** 2) / (2 * 0.5**2)) / np.sqrt(2 * np.pi) / 0.5

    vp.f = (1 + 0.001 * np.cos(k * x)) * 0.5 * (beam(v0) + beam(-v0))

    l2_initial = l2_norm(vp.f, grid)
    print(f"two-stream, scheme={args.scheme}, beams at ±{v0}")
    print(f"{'t':>6} {'field energy':>13} {'phase'}")
    energies = []
    for i in range(args.steps):
        vp.step(args.dt)
        energies.append(vp.field_energy())
        if (i + 1) % 25 == 0:
            e = energies[-1]
            phase = (
                "linear growth" if e < 0.1 * max(energies) else "saturated vortex"
            )
            print(f"{vp.time:6.1f} {e:13.4e} {phase}")

    vp.synchronize()  # apply the pending half kick before reading f
    e = np.array(energies)
    t = np.arange(1, args.steps + 1) * args.dt
    window = (e > 30 * e[0]) & (e < e.max() / 10) & (t < t[e.argmax()])
    if window.sum() > 4:
        gamma = 0.5 * np.polyfit(t[window], np.log(e[window]), 1)[0]
        print(f"\nmeasured growth rate gamma = {gamma:.3f}")
    print(f"field-energy amplification: {e.max() / e[0]:.1e}")
    print(f"L2(f) decay (filamentation + scheme dissipation): "
          f"{l2_norm(vp.f, grid) / l2_initial:.4f}")
    print(f"min f = {vp.f.min():+.2e} (positivity)")

    # a crude phase-space picture at saturation
    print("\nphase-space density (x horizontal, v vertical, '-5..5'):")
    iv = np.linspace(0, grid.nu[0] - 1, 24).astype(int)
    ix = np.linspace(0, grid.nx[0] - 1, 64).astype(int)
    block = vp.f[np.ix_(ix, iv)].T[::-1]
    glyphs = " .:-=+*#%@"
    fmax = block.max()
    for row in block:
        print("  " + "".join(glyphs[int(q / fmax * (len(glyphs) - 1))] for q in row))


if __name__ == "__main__":
    main()
