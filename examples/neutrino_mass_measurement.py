"""The science case: how the neutrino mass imprints itself on the matter
power spectrum (the 'measuring the neutrino mass' program of the paper's
overview section).

Runs matched hybrid simulations at M_nu = 0.0, 0.2 and 0.4 eV from the
same random realization and measures the small-scale suppression of the
CDM power spectrum — the collisionless-damping signature galaxy surveys
will use to weigh the neutrino.  The three runs are one campaign swept
over ``params.m_nu`` (run directories in a temporary directory); each
run's z = 0 state is read back from its final checkpoint.

Run:  python examples/neutrino_mass_measurement.py [--nx 8] [--steps 5]
"""

from __future__ import annotations

import argparse
import tempfile
from pathlib import Path

import numpy as np

from repro.campaign import Campaign, CampaignConfig
from repro.cosmology import Cosmology, growth_suppression_factor
from repro.ic import measure_power
from repro.runtime import (SimulationRunner, build_stepper,
                           find_latest_valid_checkpoint)


def final_cdm_density(run_dir: Path) -> np.ndarray:
    """The CDM density of a run's final checkpoint, restored into the
    config's stepper as ``repro resume`` does."""
    stepper = build_stepper(SimulationRunner.resume(run_dir).config)
    state = find_latest_valid_checkpoint(run_dir / "checkpoints")
    stepper.restore(state.f, state.particles, state.header)
    return stepper.sim.cdm_density()


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nx", type=int, default=8)
    ap.add_argument("--nu", type=int, default=8)
    ap.add_argument("--steps", type=int, default=5)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--box", type=float, default=40.0,
                    help="small box probes k above the free-streaming "
                         "scale, where the suppression lives")
    args = ap.parse_args()

    # one hybrid config swept over the mass; ~0 eV is a tiny mass, whose
    # first step takes ~100 s: the stall heartbeat is an hour, not 30 s
    spec = CampaignConfig.from_dict({
        "name": "nu-mass",
        "base": {
            "scenario": "hybrid",
            "grid": {"nx": [args.nx] * 3, "nu": [args.nu] * 3,
                     "box_size": args.box, "dtype": "float32"},
            "schedule": {"kind": "scale_factor", "n_steps": args.steps},
            "params": {"seed": args.seed},
        },
        "sweep": {"params.m_nu": [1e-4, 0.2, 0.4]},
        "executor": "threads", "concurrency": 1,
        "limits": {"stall_seconds": 3600.0},
    })
    spectra = {}
    with tempfile.TemporaryDirectory() as tmp:
        campaign = Campaign.create(spec, tmp)
        if campaign.run() != 0:
            raise SystemExit("a run of the mass sweep did not complete")
        for point in spec.points():
            m_nu = point.overrides["params.m_nu"]
            rho = final_cdm_density(campaign.manifest.run_dir(point.run_id))
            delta = rho / rho.mean() - 1.0
            k, p, _ = measure_power(delta, args.box, n_bins=6)
            spectra[m_nu] = (k, p)
            print(f"M_nu = {m_nu:5.4f} eV: z=0 CDM power measured "
                  f"({len(k)} k-bins, sigma_delta = {delta.std():.3f})")

    k0, p0 = spectra[1e-4]
    print(f"\n{'k [h/Mpc]':>10} {'P(0.2)/P(0)':>12} {'P(0.4)/P(0)':>12} "
          f"{'linear theory 0.4':>18}")
    for i, k in enumerate(k0):
        r2 = spectra[0.2][1][i] / p0[i]
        r4 = spectra[0.4][1][i] / p0[i]
        lin = float(
            growth_suppression_factor(Cosmology(m_nu_total_ev=0.4), k)
        )
        print(f"{k:10.3f} {r2:12.3f} {r4:12.3f} {lin:18.3f}")

    mean_r4 = np.mean(spectra[0.4][1] / p0)
    mean_r2 = np.mean(spectra[0.2][1] / p0)
    print(f"\nmean suppression: {1 - mean_r2:.1%} (0.2 eV), "
          f"{1 - mean_r4:.1%} (0.4 eV)")
    print("heavier neutrinos suppress more - the mass is measurable from "
          "the spectrum shape.")


if __name__ == "__main__":
    main()
