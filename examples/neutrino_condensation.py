"""Neutrino condensation onto dark-matter halos — the science of the
paper's TianNu comparator (Yu et al. 2017, paper refs. [7, 27]), done the
Vlasov way.

Pipeline: run the hybrid simulation to z = 0, find CDM halos with a
periodic friends-of-friends finder, and measure the neutrino overdensity
at each halo from the *noise-free* Vlasov density mesh.  Heavier halos
capture more neutrinos ("differential condensation"); with particles this
measurement fights shot noise, with f it is a table lookup.

The TreePM run goes through the production runner, in a temporary run
directory, and its z = 0 state is read back from the final checkpoint.

Run:  python examples/neutrino_condensation.py [--nx 12] [--steps 6]
"""

from __future__ import annotations

import argparse
import tempfile
from pathlib import Path

from repro.analysis import (
    condensation_report,
    fof_halos,
    halo_neutrino_overdensity,
)
from repro.runtime import (RunConfig, SimulationRunner, build_stepper,
                           find_latest_valid_checkpoint)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nx", type=int, default=12)
    ap.add_argument("--nu", type=int, default=8)
    ap.add_argument("--steps", type=int, default=6)
    ap.add_argument("--seed", type=int, default=27)
    ap.add_argument("--box", type=float, default=40.0,
                    help="small box = nonlinear by z=0 = real halos")
    args = ap.parse_args()

    config = RunConfig.from_dict({
        "scenario": "hybrid", "name": "condensation",
        "grid": {"nx": [args.nx] * 3, "nu": [args.nu] * 3,
                 "box_size": args.box, "dtype": "float32"},
        "schedule": {"kind": "scale_factor", "n_steps": args.steps},
        "params": {"m_nu": 0.4, "seed": args.seed, "use_tree": True},
    })
    with tempfile.TemporaryDirectory() as tmp:
        run_dir = Path(tmp)
        print(f"evolving {(2 * args.nx) ** 3} CDM particles + "
              f"{args.nx ** 3 * args.nu ** 3:,} phase-space cells ...")
        if SimulationRunner.create(config, run_dir).run() != 0:
            raise SystemExit("the run did not complete")
        stepper = build_stepper(config)
        state = find_latest_valid_checkpoint(run_dir / "checkpoints")
        stepper.restore(state.f, state.particles, state.header)
    sim = stepper.sim

    halos = fof_halos(sim.cdm, b=0.25, min_members=16)
    print(f"\nFoF (b=0.25): {len(halos)} halos with >= 16 particles")
    if not halos:
        print("increase --n-side-cdm or --steps to form halos")
        return

    rho_nu = sim.neutrino_density()
    delta_nu = halo_neutrino_overdensity(halos, rho_nu, sim.grid)

    print("\nper-halo neutrino overdensity (top 8 by mass):")
    print(f"{'rank':>5} {'N_p':>5} {'M [1e10 Ms/h]':>14} {'R':>6} {'delta_nu':>9}")
    for i, h in enumerate(halos[:8]):
        print(f"{i + 1:>5} {h.n_particles:>5} {h.mass:>14.3e} "
              f"{h.radius:>6.2f} {delta_nu[i]:>9.4f}")

    print("\ndifferential condensation (heavier halos catch more):")
    print(condensation_report(halos, delta_nu))

    field_mean = float(delta_nu.mean())
    print(f"\nmean neutrino overdensity at halos: {field_mean:+.4f} "
          "(> 0: neutrinos condense onto structure)")


if __name__ == "__main__":
    main()
