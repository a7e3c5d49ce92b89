#!/usr/bin/env python3
"""The repository's benchmark: five workloads through ``repro run``.

::

    python benchmarks/e2e/run.py --seed S                 # one full set
    python benchmarks/e2e/run.py --seed S --workload W    # one workload
    python benchmarks/e2e/run.py --seed S --trace         # traced runs only
    python benchmarks/e2e/run.py --seed S --selfcheck     # two sets, compared
    python benchmarks/e2e/run.py --seed S --record        # append to history

Every metric is printed by name with its unit, every output is checked,
and the exit code is non-zero when any check fails.  The driver's form,

    run.py --workload W --seed S --seconds T --trace 0|1

prints as its last line one JSON object: with ``--trace 0`` the
end-to-end metrics of ``BENCHMARK.json`` (tracing off), with ``--trace
1`` its per-layer metrics (one traced run, references and probes).

Nothing outside the checkout is touched; run directories live under
``benchmarks/e2e/.work/`` and are removed when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import socket
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

if not (ROOT / "src" / "repro" / "cli.py").is_file():
    sys.exit(f"run.py: no program to benchmark: {ROOT / 'src' / 'repro'} is missing")
sys.path.insert(0, str(ROOT / "src"))

import e2e_layers as layers  # noqa: E402
import e2e_measure as ms  # noqa: E402
import e2e_stats as stats  # noqa: E402
import e2e_workloads as wl  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = {m["name"]: m for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m for m in BENCHMARK["per_layer"]}
HISTORY = HERE / "results" / "history.jsonl"

#: One full run of any workload is sized to at most this many seconds,
#: so ``--seconds`` buys ``seconds // NOMINAL_RUN_S`` back-to-back repeats.
NOMINAL_RUN_S = 20


def available_cores() -> int:
    return len(os.sched_getaffinity(0))


def fingerprint(seed: int) -> dict:
    """Where and on what a record was measured."""
    import numpy
    import scipy

    def git(*args) -> str | None:
        try:
            out = subprocess.run(["git", *args], cwd=ROOT, text=True,
                                 capture_output=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    status = git("status", "--porcelain")
    return {
        "hostname": socket.gethostname(),
        "cpu_model": cpu or platform.processor(),
        "cores_available": available_cores(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git("rev-parse", "HEAD"),
        "dirty": bool(status) if status is not None else None,
        "env": {k: v for k, v in sorted(os.environ.items())
                if k.startswith("REPRO_")},
        "seed": seed,
        "when": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


# ----------------------------------------------------------------------
# one workload
# ----------------------------------------------------------------------


class Workdir:
    """A scratch directory inside the checkout, removed unless kept."""

    def __init__(self) -> None:
        self.path = HERE / ".work" / f"{os.getpid()}"
        self.keep = False

    def __enter__(self) -> "Workdir":
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)
        return self

    def sub(self, name: str) -> Path:
        path = self.path / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir()
        return path

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.keep and exc_type is None:
            print(f"run.py: checks failed; logs kept in {self.path}",
                  file=sys.stderr)
            return
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.path.parent.rmdir()
        except OSError:
            pass  # another run.py is using .work/


def measure(workload: wl.Workload, args, work: Workdir, want_e2e: bool,
            want_trace: bool) -> dict:
    """Everything asked of one workload: ``{"e2e": ..., "layers": ...}``."""
    if available_cores() < workload.min_cores:
        return {"skipped": "cores"}
    out = {}
    if want_e2e:
        out["e2e"] = ms.measure_e2e(
            workload, args.seed, work.sub(f"{workload.name}.e2e"),
            repeats=args.repeats, smoke=args.smoke)
    if want_trace:
        out["layers"] = layers.measure_layers(
            workload, args.seed, work.sub(f"{workload.name}.trace"),
            smoke=args.smoke)
    return out


def ops(result: dict) -> tuple[int, int, list]:
    attempted = failed = 0
    failures = []
    for part in ("e2e", "layers"):
        if part in result:
            attempted += result[part]["ops_attempted"]
            failed += result[part]["ops_failed"]
            failures += result[part]["failures"]
    return attempted, failed, failures


# ----------------------------------------------------------------------
# printing
# ----------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def print_e2e(result: dict) -> None:
    e2e = result["e2e"]
    name = e2e["workload"]
    print(f"\n== {name}: end to end (seed {e2e['seed']}, "
          f"{e2e['repeats']} run(s), tracing off)")
    for metric, value in e2e["metrics"].items():
        print(f"{name}.{metric} = {_fmt(value)} {E2E[metric]['unit']}")
    tail = e2e["step_tail"]
    tail_txt = (f"p{tail[0]:g} {_fmt(tail[1])} s" if tail
                else "no tail percentile (fewer than 20 samples)")
    print(f"{name}.step_s over repeats: min {_fmt(e2e['step_s_min'])} "
          f"max {_fmt(e2e['step_s_max'])} s; {e2e['step_samples']} pooled "
          f"step samples, {tail_txt}")
    print(f"{name}.setup_s launches: "
          + " ".join(_fmt(s) for s in e2e["setup_launches_s"]) + " s")
    print(f"{name}.ops_attempted = {e2e['ops_attempted']} count")
    print(f"{name}.ops_failed = {e2e['ops_failed']} count")


def print_layers(result: dict) -> None:
    lay = result["layers"]
    name = lay["workload"]
    print(f"\n== {name}: per layer (seed {lay['seed']}, one traced run, "
          f"{lay['span_count']} spans)")
    for metric, value in lay["metrics"].items():
        print(f"{name}.{metric} = {_fmt(value)} {PER_LAYER[metric]['unit']}")
    tts = lay["metrics"]["trace.tts_s"]
    print(f"-- self time by span, share of traced tts_s {_fmt(tts)} s")
    attributed = {k: v for k, v in lay["self_time_s"].items()
                  if k not in layers.tr.UNATTRIBUTED}
    for span, seconds in attributed.items():
        print(f"   {span:<30} {seconds:>10.4f} s {100 * seconds / tts:>6.2f} %")
    gap = lay["metrics"]["trace.unattributed_s"]
    print(f"   {'unattributed':<30} {gap:>10.4f} s {100 * gap / tts:>6.2f} %"
          "   (runner glue + gaps between spans)")
    print(f"{name}.ops_attempted = {lay['ops_attempted']} count")
    print(f"{name}.ops_failed = {lay['ops_failed']} count")


def contract_line(result: dict, trace: bool) -> str:
    """The driver's last line for one workload."""
    attempted, failed, _ = ops(result)
    if trace:
        values = result["layers"]["metrics"]
        spec = PER_LAYER
    else:
        values = result["e2e"]["metrics"]
        spec = E2E
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": spec[name]["unit"]}
                    for name in spec},
    })


# ----------------------------------------------------------------------
# a set: every workload, plus what only a set can say
# ----------------------------------------------------------------------


def cross_checks(results: dict) -> dict:
    """Checks and ratios that need more than one workload of the set."""
    gates = ms.Gates()
    derived: dict = {}
    e2e = {n: r["e2e"] for n, r in results.items() if "e2e" in r}
    grav = {n: r["f_sha256"] for n, r in e2e.items() if n.startswith("grav6d_")}
    if len(grav) > 1:
        gates.check(len(set(grav.values())) == 1,
                    f"final f differs bitwise across engines: {grav}")
    step = {n: r["metrics"]["step_s"] for n, r in e2e.items()}
    if {"grav6d_serial", "grav6d_pencil"} <= step.keys():
        derived["perf.pencil.speedup"] = (
            step["grav6d_serial"] / step["grav6d_pencil"])
    if {"grav6d_serial", "grav6d_domain"} <= step.keys():
        derived["parallel.domain.speedup"] = (
            step["grav6d_serial"] / step["grav6d_domain"])
    if {"grav6d_pencil", "grav6d_domain"} <= step.keys():
        derived["parallel.domain.vs_pencil"] = (
            step["grav6d_pencil"] / step["grav6d_domain"])
    for name, result in results.items():
        if "e2e" in result and "layers" in result:
            derived[f"trace.overhead_frac.{name}"] = (
                result["layers"]["metrics"]["trace.tts_s"]
                / result["e2e"]["metrics"]["tts_s"] - 1.0)
    return {"derived": derived, "ops_attempted": gates.attempted,
            "ops_failed": gates.failed, "failures": gates.failures}


def run_set(selected: list, args, work: Workdir, want_e2e: bool,
            want_trace: bool) -> dict:
    """Workloads grouped, repeats back to back; returns the set record."""
    results = {}
    for workload in selected:
        result = measure(workload, args, work, want_e2e, want_trace)
        results[workload.name] = result
        if "skipped" in result:
            print(f"\n== {workload.name}: skipped: {result['skipped']} "
                  f"(needs {workload.min_cores}, have {available_cores()})")
            continue
        if "e2e" in result:
            print_e2e(result)
        if "layers" in result:
            print_layers(result)
    cross = cross_checks(results)
    if cross["derived"]:
        print("\n== set: ratios of full untraced runs")
        for name, value in cross["derived"].items():
            print(f"{name} = {_fmt(value)} ratio")
    return {"fingerprint": fingerprint(args.seed), "repeats": args.repeats,
            "smoke": args.smoke, "workloads": results, "cross": cross}


def set_ops(record: dict) -> tuple[int, int, list]:
    attempted = record["cross"]["ops_attempted"]
    failed = record["cross"]["ops_failed"]
    failures = list(record["cross"]["failures"])
    for result in record["workloads"].values():
        a, f, why = ops(result)
        attempted, failed, failures = attempted + a, failed + f, failures + why
    return attempted, failed, failures


def selfcheck(selected: list, args, work: Workdir) -> int:
    """Two sets of the same code back to back; must agree within bounds."""
    sets = [run_set(selected, args, work, True, False) for _ in range(2)]
    print("\n== selfcheck: set A vs set B "
          "(relative difference must stay within the bound)")
    print(f"{'workload':<15} {'metric':<12} {'A':>11} {'B':>11} "
          f"{'diff':>8} {'bound':>7}")
    exceeded = []
    for workload in selected:
        a, b = (s["workloads"][workload.name] for s in sets)
        if "e2e" not in a or "e2e" not in b:
            continue
        for metric, spec in E2E.items():
            va, vb = a["e2e"]["metrics"][metric], b["e2e"]["metrics"][metric]
            diff = abs(stats.worsening(va, vb, spec["better"]))
            flag = ""
            if diff > spec["bound"]:
                exceeded.append((workload.name, metric))
                flag = "  EXCEEDED"
            print(f"{workload.name:<15} {metric:<12} {va:>11.5g} {vb:>11.5g} "
                  f"{100 * diff:>7.2f}% {100 * spec['bound']:>6.1f}%{flag}")
    failed = sum(set_ops(s)[1] for s in sets)
    if exceeded:
        print(f"selfcheck: {len(exceeded)} pair(s) outside their bound: "
              f"{exceeded}", file=sys.stderr)
    return 1 if exceeded or failed else 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, required=True,
                    help="workload seed: the same seed gives the same inputs")
    ap.add_argument("--workload", action="append", choices=sorted(wl.BY_NAME),
                    help="run only this workload (repeatable; default: all)")
    ap.add_argument("--seconds", type=float, default=float(NOMINAL_RUN_S),
                    help="measuring budget per workload; buys "
                         f"seconds // {NOMINAL_RUN_S} repeats (at least one)")
    ap.add_argument("--repeats", type=int, default=None,
                    help="full runs per workload (overrides --seconds)")
    ap.add_argument("--trace", nargs="?", const="1", default=None,
                    choices=("0", "1"),
                    help="1: traced runs only; 0: end-to-end only; "
                         "omitted: both")
    ap.add_argument("--selfcheck", action="store_true",
                    help="two end-to-end sets, compared against the bounds")
    ap.add_argument("--record", action="store_true",
                    help=f"append the set to {HISTORY.relative_to(ROOT)}")
    ap.add_argument("--out", type=Path, default=None,
                    help="also write the set record as JSON here")
    ap.add_argument("--smoke", action="store_true",
                    help="few-step variants of every workload (CI)")
    args = ap.parse_args(argv)
    if args.repeats is None:
        args.repeats = max(1, int(args.seconds // NOMINAL_RUN_S))

    selected = [w for w in wl.WORKLOADS
                if not args.workload or w.name in args.workload]
    want_e2e = args.trace != "1"
    want_trace = args.trace != "0"
    contract = len(selected) == 1 and args.trace is not None

    with Workdir() as work:
        if args.selfcheck:
            code = selfcheck(selected, args, work)
            work.keep = code != 0
            return code
        record = run_set(selected, args, work, want_e2e, want_trace)
        attempted, failed, failures = set_ops(record)
        print(f"\nops_attempted = {attempted} count\nops_failed = {failed} count")
        for why in failures:
            print(f"FAILED: {why}", file=sys.stderr)
        work.keep = failed != 0
        if args.out is not None:
            args.out.write_text(json.dumps(record, indent=1) + "\n")
        if args.record:
            HISTORY.parent.mkdir(exist_ok=True)
            with open(HISTORY, "a") as fh:
                fh.write(json.dumps(record) + "\n")
        if contract:
            result = record["workloads"][selected[0].name]
            if "skipped" in result:
                print(f"run.py: {selected[0].name} needs "
                      f"{selected[0].min_cores} cores", file=sys.stderr)
                return 3
            print(contract_line(result, trace=args.trace == "1"))
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
