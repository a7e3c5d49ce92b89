"""Launch workloads through the CLI a user types, and judge what they wrote.

Every run is ``python -m repro run <cfg> --run-dir <dir>`` (or ``repro
resume <dir>``) as a subprocess timed spawn-to-exit with ``os.wait4``,
which also returns the child's ``ru_maxrss``.  The layers are measured
from outside: telemetry the program already writes, checkpoints it
already leaves, and its own ``repro verify``.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import e2e_stats as stats
import e2e_workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"

#: Worst tolerated conservation drift per ledger key (``summarize()``'s
#: ``max_drifts``).  Mass is machine-epsilon conserved on periodic
#: drifts; the hybrid kicks lose the Fermi-Dirac tail through the zero
#: velocity BC; the largest energy drift is plasma_long's 6000 steps
#: (3.8e-3 at the top of the seeded amplitude range).
DRIFT_LIMITS = {"mass": 1.0e-6, "energy": 5.0e-3, "nu_mass": 1.0e-3}

#: One-step launches per workload; ``setup_s`` is their median.
SETUP_LAUNCHES = 3

#: Telemetry events that mean a run silently left its production path.
FORBIDDEN_EVENTS = ("domain_cfl_fallback", "domain_degraded", "engine_degraded")


def program_env() -> dict:
    """The environment a launch runs in: the checkout's ``src`` importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


@dataclass
class Launch:
    """One finished process: spawn-to-exit wall-clock, exit code, peak RSS."""

    wall_s: float
    exit_code: int
    maxrss_mb: float
    t_spawn: float
    t_exit: float


def launch(argv: list, log: Path) -> Launch:
    """Run ``argv`` to completion, timed spawn-to-exit with ``os.wait4``.

    The spawn happens in ``e2e_spawn.py``, a ~10 MB process: a child's
    ``ru_maxrss`` is floored by its parent's RSS at spawn time, and this
    process (numpy, parsed telemetry) outgrows the small workloads.
    stdout/stderr go to ``log`` (appended), so a failed gate can be
    diagnosed without the benchmark echoing every runner line.
    """
    spawned = subprocess.run(
        [sys.executable, str(HERE / "e2e_spawn.py"), str(log), *map(str, argv)],
        env=program_env(), capture_output=True, text=True, check=True,
    )
    return Launch(**json.loads(spawned.stdout))


def repro_argv(*args) -> list:
    return [sys.executable, "-m", "repro", *map(str, args)]


def launch_plan(workload: wl.Workload, config_path: Path, run_dir: Path,
                smoke: bool = False) -> list[tuple[list, int]]:
    """``(cli arguments, expected exit code)`` for each launch of one run."""
    split = wl.split_step(workload, smoke)
    if split is None:
        return [(["run", config_path, "--run-dir", run_dir], 0)]
    return [
        (["run", config_path, "--run-dir", run_dir, "--max-steps", split], 75),
        (["resume", run_dir], 0),
    ]


# ----------------------------------------------------------------------
# reading what a run left behind
# ----------------------------------------------------------------------


@dataclass
class RunRecord:
    """The telemetry of one run directory, split per launch."""

    steps: list = field(default_factory=list)   # every step record, in order
    launches: list = field(default_factory=list)  # step records per launch
    pipeline_closed: list = field(default_factory=list)  # diagnostics_closed events
    summary: dict = field(default_factory=dict)
    telemetry_bytes: int = 0


def read_run(run_dir: Path, split: int | None = None) -> RunRecord:
    """Parse ``telemetry.jsonl``; ``split`` is the last step of the first
    launch of a restart chain (its ``--max-steps``)."""
    from repro.runtime.telemetry import iter_records, summarize

    path = run_dir / "telemetry.jsonl"
    rec = RunRecord(summary=summarize(path), telemetry_bytes=path.stat().st_size)
    for r in iter_records(path):
        if "event" in r:
            if r["event"] == "diagnostics_closed":
                rec.pipeline_closed.append(r)
            continue
        if not rec.steps or rec.steps[-1]["step"] == split:
            rec.launches.append([])
        rec.steps.append(r)
        rec.launches[-1].append(r)
    return rec


def steady_steps(record: RunRecord) -> list[dict]:
    """Every step record except each launch's first (paper §6: the first
    step pays allocation, plan and worker warm-up)."""
    return [r for steps in record.launches for r in steps[1:]]


def steady_walls(record: RunRecord) -> list[float]:
    """``wall_s`` of the steady steps — the samples behind ``step_s``."""
    return [r["wall_s"] for r in steady_steps(record)]


def final_f_sha256(run_dir: Path, step: int | None = None) -> str:
    """sha256 of f in the run's final (or the given step's) checkpoint."""
    from repro.io.snapshot import read_checkpoint

    ck_dir = run_dir / "checkpoints"
    if step is None:
        path = sorted(ck_dir.glob("ck_*.npz"))[-1]
    else:
        path = ck_dir / f"ck_{step:08d}.npz"
    _, f, _, _ = read_checkpoint(path)
    return hashlib.sha256(f.tobytes()).hexdigest()


# ----------------------------------------------------------------------
# correctness gates
# ----------------------------------------------------------------------


@dataclass
class Gates:
    """Counted checks: every launch and every gate is one attempted op."""

    attempted: int = 0
    failures: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)


def check_run(gates: Gates, workload: wl.Workload, config: dict,
              run_dir: Path, record: RunRecord, log: Path) -> None:
    """The output gates of one completed run directory."""
    name = workload.name
    n_steps = config["schedule"]["n_steps"]
    got = [r["step"] for r in record.steps]
    gates.check(got == list(range(1, n_steps + 1)),
                f"{name}: telemetry steps {got[:3]}..{got[-3:]} are not 1..{n_steps}")
    verify = launch(repro_argv("verify", run_dir), log)
    gates.check(verify.exit_code == 0,
                f"{name}: repro verify exited {verify.exit_code}")
    for key, drift in record.summary.get("max_drifts", {}).items():
        gates.check(drift <= DRIFT_LIMITS[key],
                    f"{name}: {key} drift {drift:.3e} > {DRIFT_LIMITS[key]:.0e}")
    gates.check(record.summary.get("guard_events", 0) == 0,
                f"{name}: {record.summary.get('guard_events')} guard events")
    events = record.summary.get("events", {})
    bad = {k: events[k] for k in FORBIDDEN_EVENTS if events.get(k)}
    gates.check(not bad, f"{name}: left the production path: {bad}")
    dropped = sum(e.get("dropped", 0) for e in record.pipeline_closed)
    gates.check(dropped == 0, f"{name}: diagnostics pipeline dropped {dropped}")


# ----------------------------------------------------------------------
# the end-to-end measurement of one workload
# ----------------------------------------------------------------------


def run_once(workload: wl.Workload, config: dict, workdir: Path, tag: str,
             gates: Gates, smoke: bool = False,
             check: bool = True) -> tuple[list[Launch], Path, RunRecord]:
    """One full run of ``config`` in a fresh run directory under ``workdir``."""
    config_path = workdir / f"{tag}.json"
    config_path.write_text(json.dumps(config))
    run_dir = workdir / f"{tag}.run"
    log = workdir / f"{tag}.log"
    launches = []
    for args, expected in launch_plan(workload, config_path, run_dir, smoke):
        result = launch(repro_argv(*args), log)
        launches.append(result)
        gates.check(result.exit_code == expected,
                    f"{workload.name}: `repro {args[0]}` exited "
                    f"{result.exit_code}, expected {expected} (see {log.name})")
    record = read_run(run_dir, wl.split_step(workload, smoke))
    if check:
        check_run(gates, workload, config, run_dir, record, log)
    return launches, run_dir, record


def run_setup(workload: wl.Workload, config: dict, workdir: Path, tag: str,
              gates: Gates) -> tuple[Launch, str]:
    """One fixed-cost launch (one step, no cadence); returns it and its
    final-f hash."""
    setup = wl.setup_config(config)
    config_path = workdir / f"{tag}.json"
    config_path.write_text(json.dumps(setup))
    run_dir = workdir / f"{tag}.run"
    result = launch(repro_argv("run", config_path, "--run-dir", run_dir),
                    workdir / f"{tag}.log")
    gates.check(result.exit_code == 0,
                f"{workload.name}: one-step launch exited {result.exit_code}")
    return result, final_f_sha256(run_dir)


def measure_e2e(workload: wl.Workload, seed: int, workdir: Path,
                repeats: int = 1, smoke: bool = False) -> dict:
    """The four end-to-end metrics of one workload, with its gates.

    Order: ``SETUP_LAUNCHES`` timed one-step launches, then ``repeats``
    full runs back to back.  The first one-step launch is the group's
    cold launch — after a different workload it pays ~900 MB of fresh
    page faults on the 6-D grids (4.5-6.0 s against 2.6 s) — and the
    median over the three drops it; the full runs start warm.
    """
    gates = Gates()
    config = wl.build_config(workload, seed, smoke)
    setups, hashes = [], set()
    # CI checks the plumbing, not the timings: one launch there
    for i in range(1 if smoke else SETUP_LAUNCHES):
        result, sha = run_setup(workload, config, workdir, f"setup{i}", gates)
        setups.append(result.wall_s)
        hashes.add(sha)
    gates.check(len(hashes) == 1,
                f"{workload.name}: one-step launches disagree on f: {hashes}")

    runs = []
    for i in range(repeats):
        launches, run_dir, record = run_once(
            workload, config, workdir, f"run{i}", gates, smoke)
        walls = steady_walls(record)
        runs.append({
            "tts_s": sum(l.wall_s for l in launches),
            "step_s": stats.median(walls),
            "peak_rss_mb": max(l.maxrss_mb for l in launches),
            "first_wall_s": record.steps[0]["wall_s"],
            "walls": walls,
            "f_sha256": final_f_sha256(run_dir),
        })
    gates.check(len({r["f_sha256"] for r in runs}) == 1,
                f"{workload.name}: repeats disagree on the final f")

    pooled = [w for r in runs for w in r["walls"]]
    out = {
        "workload": workload.name,
        "seed": seed,
        "repeats": repeats,
        "metrics": {
            "tts_s": stats.median([r["tts_s"] for r in runs]),
            "step_s": stats.median([r["step_s"] for r in runs]),
            "setup_s": stats.median(setups),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
        },
        "per_run": [{k: r[k] for k in ("tts_s", "step_s", "peak_rss_mb")}
                    for r in runs],
        "setup_launches_s": setups,
        "step_s_min": min(r["step_s"] for r in runs),
        "step_s_max": max(r["step_s"] for r in runs),
        "step_samples": len(pooled),
        "step_tail": stats.tail_percentile(pooled),
        "first_step_s": runs[0]["first_wall_s"],
        "f_sha256": runs[0]["f_sha256"],
        "ops_attempted": gates.attempted,
        "ops_failed": gates.failed,
        "failures": gates.failures,
    }
    return out
