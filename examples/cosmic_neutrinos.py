"""The paper's headline workload at laptop scale: a hybrid Vlasov/N-body
simulation of cosmic relic neutrinos and cold dark matter.

Builds a ``scenario = "hybrid"`` run config — Planck cosmology with
massive neutrinos, one Gaussian realization, Zel'dovich CDM particles, a
free-streaming-suppressed Fermi-Dirac neutrino distribution function —
and runs it from z = 10 to z = 0 through the production runner
(:class:`repro.runtime.SimulationRunner`), the same path as ``repro
run``: the config takes an ``[engine]`` section, the run checkpoints,
guards its neutrino mass, and ``python -m repro resume <run dir>``
re-enters it.  The background diagnostics tier stores the neutrino and
CDM density meshes after every step; the Fig. 4-style statistics
printed at the end (density contrasts and their cross-correlation, per
step) are read back from those stored products.

Run:  python examples/cosmic_neutrinos.py [--nx 8] [--nu 8] [--steps 6]
          [--tree] [--run-dir cosmic_neutrinos.run]

``--tree`` adds the short-range tree force, which needs ``--nx 12`` or
more (its cutoff, 4.5 x 1.25 cells, must fit in half the box).
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from repro.io.snapshot import read_snapshot
from repro.nbody.treepm import min_tree_mesh
from repro.runtime import RunConfig, SimulationRunner, summarize
from repro.serve import read_products


def build_config(args: argparse.Namespace) -> RunConfig:
    """The hybrid run as a config: z = 10 → 0 in ``args.steps`` steps."""
    return RunConfig.from_dict({
        "scenario": "hybrid",
        "name": "cosmic-neutrinos",
        "grid": {"nx": [args.nx] * 3, "nu": [args.nu] * 3,
                 "box_size": args.box, "dtype": "float32"},
        "schedule": {"kind": "scale_factor", "n_steps": args.steps,
                     "a_start": 1.0 / 11.0, "a_end": 1.0},
        "params": {"m_nu": args.m_nu, "seed": args.seed,
                   "use_tree": args.tree},
        "guards": {"max_mass_drift": 1e-3},
        "diagnostics": {"every_steps": 1},
    })


def contrast(rho: np.ndarray) -> np.ndarray:
    return rho / rho.mean() - 1.0


def main(argv: list[str] | None = None) -> int:
    """Run (or re-enter) the hybrid run and print its per-step statistics."""
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--nx", type=int, default=8, help="spatial cells per axis")
    ap.add_argument("--nu", type=int, default=8, help="velocity cells per axis")
    ap.add_argument("--box", type=float, default=200.0, help="box size [Mpc/h]")
    ap.add_argument("--steps", type=int, default=6, help="leapfrog steps z=10 -> 0")
    ap.add_argument("--m-nu", type=float, default=0.4, help="total nu mass [eV]")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--tree", action="store_true", help="enable the tree force")
    ap.add_argument("--run-dir", default="cosmic_neutrinos.run",
                    help="run directory; an existing one is re-entered "
                         "(resumed), so change parameters in a new one")
    args = ap.parse_args(argv)
    if args.tree and args.nx < min_tree_mesh():
        ap.error(f"--tree needs --nx {min_tree_mesh()} or more: at --nx "
                 f"{args.nx} the short-range cutoff exceeds half the box")

    run_dir = Path(args.run_dir)
    runner = SimulationRunner.create(build_config(args), run_dir)
    code = runner.run()
    print(f"run {run_dir}: exit {code} ({runner.manifest()['status']})")

    diagnostics = run_dir / "diagnostics"
    print(f"\n{'step':>4} {'a':>6} {'z':>6} {'sigma_cdm':>10} "
          f"{'sigma_nu':>9} {'cross':>6}")
    for record in read_products(diagnostics):
        snap = read_snapshot(diagnostics / record["snapshot"])
        d_cdm = contrast(snap["cdm_density"].astype(np.float64))
        d_nu = contrast(snap["density"].astype(np.float64))
        cc = np.corrcoef(d_cdm.ravel(), d_nu.ravel())[0, 1]
        a = record["coord"]["a"]
        print(f"{record['step']:4d} {a:6.3f} {1.0 / a - 1.0:6.2f} "
              f"{d_cdm.std():10.4f} {d_nu.std():9.4f} {cc:6.3f}")

    summary = summarize(run_dir / "telemetry.jsonl")
    print(f"\nneutrino mass drift over the run: "
          f"{summary['max_drifts']['nu_mass']:.2e} "
          f"(guard {runner.config.guards.max_mass_drift:g}); "
          f"median step {summary['wall_s_median']:.2f} s")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
