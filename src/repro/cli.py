"""Command-line interface: ``python -m repro <command>``.

Small operational surface over the library — the things a user wants
without writing a script:

* ``info``     — version, subsystem inventory, paper reference;
* ``landau``   — run the Landau-damping validation and report the rate;
* ``run``      — start a production run from a config file;
* ``resume``   — continue an interrupted run from its run directory;
* ``campaign`` — run/resume/watch a parameter-sweep campaign from a
  spec;
* ``verify``   — check the integrity of a run's checkpoints;
* ``scaling``  — print Tables 2-4 + the time-to-solution report;
* ``memory``   — per-node memory audit of the Table 2 runs;
* ``schemes``  — list the advection schemes and their properties.

``run``/``resume`` return the runtime subsystem's exit-code contract
(0 complete, 75 resumable, 70 guard abort — see ``docs/RUNTIME.md``);
a chaos drill is a config with a ``[faults]`` section.  ``campaign``
rolls the same contract up over a whole sweep (0 all done, 70 any guard
abort, else 75 — resume until 0; see ``docs/CAMPAIGN.md``).  A config
or spec path that names no file, a config, spec or manifest that fails
validation, a spec whose points differ from an existing campaign's
manifest, and a run or campaign directory another live process holds,
is a usage error (exit 2) reported in one line, before anything runs or
is written.  The
hybrid Vlasov + N-body workload has no command of its own: it is a
``scenario = "hybrid"`` config for ``run`` (``examples/cosmic_neutrinos.py``
builds one).
"""

from __future__ import annotations

import argparse
from pathlib import Path


def _no_config_file(command: str, path: str) -> bool:
    """Report a config path that names no file; ``True`` when missing."""
    if Path(path).is_file():
        return False
    print(f"{command}: no such config file: {path}")
    return True


def _refused(command: str, path, load):
    """``load()``, or ``None`` once its refusal has been reported in one
    line (the command exits 2): a ``ValueError`` as an invalid config, a
    ``FileNotFoundError`` (a directory without its manifest) and a
    directory another live process holds as themselves."""
    from repro.io.atomic import DirectoryLocked

    try:
        return load()
    except ValueError as exc:
        print(f"{command}: invalid config {path}: {exc}")
    except (FileNotFoundError, DirectoryLocked) as exc:
        print(f"{command}: {exc}")
    return None


def _locked(command: str, run) -> int:
    """``run()``, or 2 once a directory held by another live process has
    been reported in one line (nothing in it touched)."""
    from repro.io.atomic import DirectoryLocked

    try:
        return run()
    except DirectoryLocked as exc:
        print(f"{command}: {exc}")
        return 2


def cmd_info(_: argparse.Namespace) -> int:
    """Print library and paper information."""
    import repro
    from repro.core.advection import SCHEMES

    print(f"repro {repro.__version__}")
    print(
        "Reproduction of: Yoshikawa, Tanaka & Yoshida, 'A 400 Trillion-Grid "
        "Vlasov\nSimulation on Fugaku Supercomputer' (SC '21)."
    )
    print(f"advection schemes: {', '.join(sorted(SCHEMES))}")
    print("subsystems: core gravity nbody cosmology ic parallel simd machine")
    print("            scaling io analysis diagnostics runtime campaign")
    print("see README.md / DESIGN.md / EXPERIMENTS.md")
    return 0


def cmd_landau(args: argparse.Namespace) -> int:
    """Landau-damping validation (the quickstart, parameterized)."""
    import numpy as np
    from scipy.signal import argrelmax

    from repro.core import PhaseSpaceGrid, PlasmaVlasovPoisson

    grid = PhaseSpaceGrid(
        nx=(args.nx,), nu=(args.nu,), box_size=2 * np.pi / args.k,
        v_max=6.0, dtype=np.float64,
    )
    vp = PlasmaVlasovPoisson(grid, scheme=args.scheme)
    x = grid.x_centers(0)[:, None]
    v = grid.u_centers(0)[None, :]
    vp.f = (1 + 0.01 * np.cos(args.k * x)) * np.exp(-v**2 / 2) / np.sqrt(2 * np.pi)
    times, energies = [], []
    for _ in range(args.steps):
        vp.step(0.1)
        times.append(vp.time)
        energies.append(vp.field_energy())
    t, e = np.array(times), np.array(energies)
    log_amp = 0.5 * np.log(e)
    peaks = argrelmax(log_amp)[0]
    peaks = peaks[(t[peaks] > 2) & (t[peaks] < 15)]
    if len(peaks) < 3:
        print("not enough oscillation peaks to fit — increase --steps")
        return 1
    gamma = np.polyfit(t[peaks], log_amp[peaks], 1)[0]
    print(f"scheme={args.scheme} k={args.k}: gamma = {gamma:+.4f} "
          "(theory -0.1533 at k=0.5)")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    """Start (or re-enter) a production run from a config file."""
    if _no_config_file("run", args.config):
        return 2
    from repro.runtime import RunConfig, SimulationRunner

    config = _refused("run", args.config, lambda: RunConfig.load(args.config))
    if config is None:
        return 2
    run_dir = args.run_dir if args.run_dir else f"{config.name}.run"
    runner = SimulationRunner.create(config, run_dir)
    return _locked("run", lambda: runner.run(max_steps=args.max_steps))


def cmd_resume(args: argparse.Namespace) -> int:
    """Continue an interrupted run from its run directory."""
    from repro.runtime import SimulationRunner

    runner = _refused("resume", args.run_dir,
                      lambda: SimulationRunner.resume(args.run_dir))
    if runner is None:
        return 2
    return _locked("resume", lambda: runner.run(max_steps=args.max_steps))


def _campaign_status(campaign, watch: bool) -> int:
    """Print the aggregate table (once, or refreshed until interrupted).

    The watch loop reloads the manifest each tick, so it tracks a
    campaign another process is executing — attempts and retries show
    up live.
    """
    import time

    from repro.campaign import Campaign, format_table

    if not watch:
        print(format_table(campaign.aggregate()))
        return 0
    try:
        while True:
            campaign = Campaign.resume(campaign.campaign_dir)
            table = format_table(campaign.aggregate())
            print(f"\x1b[2J\x1b[H{campaign.config.name} "
                  f"[{campaign.manifest.status}]")
            print(table, flush=True)
            if campaign.manifest.status in ("complete", "failed"):
                return 0
            time.sleep(2.0)
    except KeyboardInterrupt:
        return 0


def cmd_campaign(args: argparse.Namespace) -> int:
    """Run, resume or inspect a parameter-sweep campaign.

    ``repro campaign <spec>`` materializes and runs a sweep (re-running
    an existing directory naturally resumes it); ``repro campaign
    resume <dir>`` re-enters a campaign from its manifest alone;
    ``repro campaign status <dir>`` prints the aggregate table without
    executing anything (``--watch`` keeps refreshing it).
    """
    from repro.campaign import Campaign, CampaignConfig, format_table

    if args.target in ("resume", "status"):
        if args.arg is None:
            print(f"campaign {args.target}: campaign directory required")
            return 2
        campaign = _refused(f"campaign {args.target}", args.arg,
                            lambda: Campaign.resume(args.arg))
        if campaign is None:
            return 2
        if args.target == "status":
            return _campaign_status(campaign, args.watch)
    else:
        if _no_config_file("campaign", args.target):
            return 2

        def load():
            config = CampaignConfig.load(args.target)
            if args.concurrency is not None:
                config.concurrency = args.concurrency
            if args.executor is not None:
                config.executor = args.executor
            config.validate()
            return Campaign.create(
                config, args.dir or args.arg or f"{config.name}.campaign")

        campaign = _refused("campaign", args.target, load)
        if campaign is None:
            return 2
    command = "campaign resume" if args.target == "resume" else "campaign"
    code = _locked(command, lambda: campaign.run(max_steps=args.max_steps))
    if code == 2:
        return code
    print(format_table(campaign.aggregate()))
    return code


def cmd_verify(args: argparse.Namespace) -> int:
    """Verify every checkpoint of a run directory against its checksums.

    Exits 0 when all checkpoints load and verify, 1 when any fails;
    ``--quarantine`` additionally renames failing files to ``*.corrupt``
    so the restart chain skips them without re-reading.
    """
    from repro.io.snapshot import quarantine, read_checkpoint

    ck_dir = Path(args.run_dir) / "checkpoints"
    if not ck_dir.is_dir():
        ck_dir = Path(args.run_dir)  # allow pointing at checkpoints/ itself
    paths = sorted(ck_dir.glob("ck_*.npz"))
    if not paths:
        print(f"verify: no checkpoints under {ck_dir}")
        return 1
    bad = 0
    for path in paths:
        try:
            _, _, _, header = read_checkpoint(path)
        except Exception as exc:
            bad += 1
            note = f"{type(exc).__name__}: {exc}"
            if args.quarantine:
                note += f" -> {quarantine(path).name}"
            print(f"FAIL  {path.name}  {note}")
            continue
        print(f"ok    {path.name}  step={header['step']}")
    print(f"verify: {len(paths) - bad}/{len(paths)} checkpoints valid")
    return 1 if bad else 0


def cmd_scaling(_: argparse.Namespace) -> int:
    """Tables 2-4 and the time-to-solution report."""
    from repro.scaling import (
        PAPER_TABLE3,
        PAPER_TABLE4,
        format_efficiency_table,
        format_tts_report,
        run_config_table,
        strong_scaling_table,
        weak_scaling_table,
    )

    print(run_config_table())
    print("\nTable 3 (weak scaling, model vs paper):")
    print(format_efficiency_table(weak_scaling_table(), PAPER_TABLE3))
    print("\nTable 4 (strong scaling, model vs paper):")
    print(format_efficiency_table(strong_scaling_table(), PAPER_TABLE4))
    print()
    print(format_tts_report())
    return 0


def cmd_memory(_: argparse.Namespace) -> int:
    """Per-node memory audit of every Table 2 run."""
    from repro.scaling.memory import global_f_bytes, memory_report
    from repro.scaling.runs import TABLE2, by_id

    print(memory_report(TABLE2))
    print(
        f"\nU1024 distribution function, system-wide: "
        f"{global_f_bytes(by_id('U1024')) / 1e15:.2f} PB"
    )
    return 0


def cmd_schemes(_: argparse.Namespace) -> int:
    """List the advection schemes and their guarantees."""
    from repro.core.advection import SCHEMES

    print(f"{'name':>10} {'order':>5} {'MP':>4} {'positive':>8}")
    for name, spec in sorted(SCHEMES.items()):
        print(
            f"{name:>10} {spec.order:>5} {'yes' if spec.use_mp else '-':>4} "
            f"{'yes' if spec.use_pos else '-':>8}"
        )
    print("\nslmpp5 is the paper's production scheme.")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro", description="hybrid Vlasov/N-body simulation library"
    )
    sub = parser.add_subparsers(dest="command")

    sub.add_parser("info", help="library and paper information")

    p = sub.add_parser("landau", help="Landau-damping validation")
    p.add_argument("--nx", type=int, default=64)
    p.add_argument("--nu", type=int, default=128)
    p.add_argument("--k", type=float, default=0.5)
    p.add_argument("--steps", type=int, default=160)
    p.add_argument("--scheme", default="slmpp5")

    p = sub.add_parser("run", help="production run from a config file")
    p.add_argument("config", help="RunConfig file (.json or .toml)")
    p.add_argument("--run-dir", default=None,
                   help="run directory (default: <config name>.run)")
    p.add_argument("--max-steps", type=int, default=None,
                   help="cap steps this invocation (exits resumable)")

    p = sub.add_parser("resume", help="continue an interrupted run")
    p.add_argument("run_dir", help="run directory holding run.json")
    p.add_argument("--max-steps", type=int, default=None,
                   help="cap steps this invocation (exits resumable)")

    p = sub.add_parser("campaign", help="parameter-sweep campaign over runs")
    p.add_argument("target",
                   help="campaign spec (.json/.toml), or 'resume'/'status'")
    p.add_argument("arg", nargs="?", default=None,
                   help="campaign directory (for resume/status)")
    p.add_argument("--dir", default=None,
                   help="campaign directory (default: <name>.campaign)")
    p.add_argument("-k", "--concurrency", type=int, default=None,
                   help="override the spec's runs-in-flight count")
    p.add_argument("--executor", default=None,
                   choices=("processes", "threads"),
                   help="override the spec's executor backend")
    p.add_argument("--max-steps", type=int, default=None,
                   help="cap steps per run this invocation (runs exit 75)")
    p.add_argument("--watch", action="store_true",
                   help="status: refresh the table until done/interrupted")

    p = sub.add_parser("verify", help="checkpoint integrity audit")
    p.add_argument("run_dir", help="run directory (or its checkpoints/)")
    p.add_argument("--quarantine", action="store_true",
                   help="rename failing checkpoints to *.corrupt")

    sub.add_parser("scaling", help="Tables 2-4 + time-to-solution")
    sub.add_parser("memory", help="per-node memory audit")
    sub.add_parser("schemes", help="list advection schemes")

    return parser


_COMMANDS = {
    "info": cmd_info,
    "landau": cmd_landau,
    "run": cmd_run,
    "resume": cmd_resume,
    "campaign": cmd_campaign,
    "verify": cmd_verify,
    "scaling": cmd_scaling,
    "memory": cmd_memory,
    "schemes": cmd_schemes,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 1
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
