"""The traced run of one workload and the per-layer metrics read off it.

Sources, per metric: *spans* (the traced child's wrappers, see
``e2e_trace``), *sections* (the ``sections`` dict the program already
writes per step into ``telemetry.jsonl``), *counters* (telemetry ``io`` /
``fft`` fields and ``summarize()``'s event roll-ups), *probes* (direct
timed calls, ``e2e_probes``) and *references* (short untraced runs of the
serial / pencil workload, for the speed-up ratios).  Per-step values are
medians over all steps except each launch's first.

Every metric is reported on every workload; a layer the workload does
not execute (or a probe attached to another workload) reads 0.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import e2e_measure as ms
import e2e_stats as stats
import e2e_trace as tr
import e2e_workloads as wl

#: Probes ride on the workload whose end-to-end metric they explain
#: (and whose traced run leaves room in the time budget).
PROBES_FOR = {
    "grav6d_serial": ("advection6d",),
    "grav6d_pencil": ("pack_gain",),
    "hybrid_pm": ("treepm",),
    "plasma_long": ("small_call",),
}

#: Untraced reference runs a workload's speed-up ratios divide by.
REFERENCES_FOR = {
    "grav6d_pencil": ("grav6d_serial",),
    "grav6d_domain": ("grav6d_serial", "grav6d_pencil"),
}

#: Steps of a reference run: enough for a 3-step median, and its final
#: checkpoint lands on the traced run's first cadence checkpoint, so the
#: two f can be compared bitwise.
REFERENCE_STEPS = 4

#: The closure check: layer spans must cover this share of a traced run.
MIN_ACCOUNTED = 0.95


def run_traced(workload: wl.Workload, config: dict, workdir: Path,
               gates: ms.Gates, smoke: bool = False):
    """One traced run: every launch in-process in a wrapped child."""
    config_path = workdir / "traced.json"
    config_path.write_text(json.dumps(config))
    run_dir = workdir / "traced.run"
    log = workdir / "traced.log"
    spans: list[dict] = []
    launches, payloads = [], []
    plan = ms.launch_plan(workload, config_path, run_dir, smoke)
    for i, (args, expected) in enumerate(plan):
        spans_path = workdir / f"traced.spans{i}.json"
        result = ms.launch(tr.traced_argv(spans_path, args), log)
        gates.check(result.exit_code == expected,
                    f"{workload.name}: traced `repro {args[0]}` exited "
                    f"{result.exit_code}, expected {expected} (see {log.name})")
        launch_spans, payload = tr.load_spans(
            spans_path, result, f"{workload.name}/{i}")
        # indices are per launch; concatenating needs an offset
        offset = len(spans)
        for span in launch_spans:
            if span["parent"] is not None:
                span["parent"] += offset
        spans.extend(launch_spans)
        launches.append(result)
        payloads.append(payload)
    record = ms.read_run(run_dir, wl.split_step(workload, smoke))
    ms.check_run(gates, workload, config, run_dir, record, log)
    return launches, spans, payloads, run_dir, record


def run_reference(name: str, seed: int, workdir: Path, gates: ms.Gates,
                  smoke: bool) -> tuple[float, str]:
    """``(step_s, sha256 of f at the last step)`` of a short untraced run."""
    workload = wl.BY_NAME[name]
    config = wl.setup_config(wl.build_config(workload, seed, smoke))
    steps = 2 if smoke else REFERENCE_STEPS
    config["schedule"]["n_steps"] = steps
    _, run_dir, record = ms.run_once(
        workload, config, workdir, f"ref_{name}", gates, check=False)
    return (stats.median(ms.steady_walls(record)),
            ms.final_f_sha256(run_dir, steps))


def run_probes(names: tuple, seed: int, gates: ms.Gates) -> dict:
    """Run the named probes in one child process; ``{metric: value}``."""
    if not names:
        return {}
    proc = subprocess.run(
        [sys.executable, str(ms.HERE / "e2e_probes.py"), str(seed), *names],
        env=ms.program_env(), capture_output=True, text=True,
    )
    if not gates.check(proc.returncode == 0,
                       f"probes {names} exited {proc.returncode}: "
                       f"{proc.stderr[-400:]}"):
        return {}
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# reading layers off sections / counters / spans
# ----------------------------------------------------------------------


def section_median(record: ms.RunRecord, name: str) -> float:
    """Median per step of one telemetry section; 0 when it never fired."""
    fired = [r["sections"][name] for r in ms.steady_steps(record)
             if name in r["sections"]]
    return stats.median(fired) if fired else 0.0


def timer_closure(record: ms.RunRecord) -> float:
    """Median per step of (sum of leaf sections under ``step``) / ``step``."""
    fractions = []
    for r in ms.steady_steps(record):
        sections = r["sections"]
        under = [k for k in sections if k.startswith("step/")]
        leaves = [k for k in under
                  if not any(o.startswith(k + "/") for o in under)]
        if sections.get("step"):
            fractions.append(sum(sections[k] for k in leaves) / sections["step"])
    return stats.median(fractions) if fractions else 0.0


def checkpoint_writes(record: ms.RunRecord) -> tuple[float, float]:
    """``(seconds, bytes)`` per cadence checkpoint: the median jump of
    the cumulative ``io`` write counters between consecutive records."""
    seconds, nbytes = [], []
    for steps in record.launches:
        for prev, cur in zip(steps, steps[1:]):
            grown = cur["io"]["bytes_written"] - prev["io"]["bytes_written"]
            if grown > 0:
                nbytes.append(grown)
                seconds.append(cur["io"]["write_seconds"]
                               - prev["io"]["write_seconds"])
    if not nbytes:
        return 0.0, 0.0
    return stats.median(seconds), stats.median(nbytes)


def _median_or_zero(values) -> float:
    values = list(values)
    return stats.median(values) if values else 0.0


def _span_median(spans: list[dict], name: str) -> float:
    return _median_or_zero(tr.per_step_seconds(spans, name))


def _first_duration(spans: list[dict], name: str) -> float:
    found = tr.durations(spans, name)
    return found[0] if found else 0.0


def runtime_tax(spans: list[dict], record: ms.RunRecord) -> tuple[float, float]:
    """``(tax ms/step, growth)``: the runner's loop period minus the step.

    The loop period is the distance between consecutive
    ``telemetry.append`` calls; what it exceeds ``wall_s`` by is
    everything the runner does around a step (ledger, guards, record,
    telemetry, cadence I/O).  Growth is the median tax of the last tenth
    of the steps over the first tenth's — above 1 means per-step cost
    rises with run length.
    """
    stamps = [s["start"] for s in spans if s["name"] == "telemetry.append"]
    taxes, k = [], 0
    for steps in record.launches:
        for j, r in enumerate(steps):
            if j and k < len(stamps):
                taxes.append(stamps[k] - stamps[k - 1] - r["wall_s"])
            k += 1
    if not taxes:
        return 0.0, 0.0
    tenth = max(1, len(taxes) // 10)
    head = stats.median(taxes[:tenth])
    growth = stats.median(taxes[-tenth:]) / head if head > 0.0 else 0.0
    return stats.median(taxes) * 1e3, growth


def measure_layers(workload: wl.Workload, seed: int, workdir: Path,
                   smoke: bool = False) -> dict:
    """The traced run, its references and probes; every per-layer metric."""
    gates = ms.Gates()
    config = wl.build_config(workload, seed, smoke)
    launches, spans, payloads, run_dir, record = run_traced(
        workload, config, workdir, gates, smoke)
    summary = record.summary
    events = summary.get("events", {})
    step_s = stats.median(ms.steady_walls(record))
    n_steps = len(record.steps)

    references = {}
    first_ck = 2 if smoke else REFERENCE_STEPS
    for name in REFERENCES_FOR.get(workload.name, ()):
        ref_step_s, sha = run_reference(name, seed, workdir, gates, smoke)
        references[name] = ref_step_s
        gates.check(sha == ms.final_f_sha256(run_dir, first_ck),
                    f"{workload.name}: f at step {first_ck} differs bitwise "
                    f"from {name}")
    probes = run_probes(() if smoke else PROBES_FOR.get(workload.name, ()),
                        seed, gates)

    domain = summary.get("domain") or {}
    poisson_s = section_median(record, "step/poisson")
    domain_s = {k: section_median(record, f"domain/{k}")
                for k in ("interior", "boundary", "halo", "fft")}
    is_domain = bool(domain)

    def speedup(reference: str) -> float:
        return references[reference] / step_s if reference in references else 0.0

    write_s, write_bytes = checkpoint_writes(record)
    closed = record.pipeline_closed
    fft_per_step = [cur["fft"]["n_forward"] - prev["fft"]["n_forward"]
                    for steps in record.launches
                    for prev, cur in zip(steps, steps[1:])]
    tax_ms, tax_growth = runtime_tax(spans, record)
    accounted, unattributed_s = stats.closure(spans, tr.UNATTRIBUTED)
    gates.check(accounted >= MIN_ACCOUNTED,
                f"{workload.name}: spans account for {accounted:.1%} of the "
                f"traced run, below {MIN_ACCOUNTED:.0%}")
    tts_s = sum(l.wall_s for l in launches)
    resume_spans = [s for s in spans if s["run_id"].endswith("/1")]

    metrics = {
        "core.vlasov.kick_s": _span_median(spans, "solver.kick"),
        "core.vlasov.drift_s": _span_median(spans, "solver.drift"),
        "core.advection.uniform_ax0_ns": 0.0,
        "core.advection.uniform_ax5_ns": 0.0,
        "core.advection.field_ax3_ns": 0.0,
        "core.advection.cfl2_ax0_ns": 0.0,
        "core.advection.small_call_us": 0.0,
        "core.moments.density_s": _span_median(spans, "moments.density"),
        "gravity.poisson.solve_s": _span_median(spans, "gravity.poisson"),
        "perf.fft.transforms_per_step": _median_or_zero(fft_per_step),
        "perf.arena.nbytes": payloads[-1]["arena_nbytes"],
        "runtime.first_step_excess_s": record.steps[0]["wall_s"] - step_s,
        "perf.layout.packed_frac": (summary.get("layout") or {}).get("packed_fraction", 0.0),
        "perf.layout.pack_gain_ax0": 0.0,
        "perf.pencil.speedup": 0.0 if is_domain else speedup("grav6d_serial"),
        "perf.pencil.degradations": events.get("engine_degraded", 0),
        "parallel.domain.interior_s": domain_s["interior"],
        "parallel.domain.boundary_s": domain_s["boundary"],
        "parallel.domain.halo_s": domain_s["halo"],
        "parallel.domain.fft_s": domain_s["fft"],
        "parallel.domain.unattributed_s": (
            step_s - (domain_s["interior"] + domain_s["boundary"]
                      + domain_s["fft"] + poisson_s) if is_domain else 0.0),
        "parallel.domain.halo_bytes_per_step": domain.get("halo_bytes", 0) / n_steps,
        "parallel.domain.halo_exchanges_per_step": domain.get("halo_exchanges", 0) / n_steps,
        "parallel.domain.gathers": domain.get("gathers", 0),
        "parallel.domain.scatters": domain.get("scatters", 0),
        "parallel.domain.cfl_fallbacks": domain.get("cfl_fallbacks", 0),
        "parallel.domain.fft_fallbacks": domain.get("fft_fallbacks", 0),
        "parallel.domain.worker_failures": domain.get("worker_failures", 0),
        "parallel.domain.degradations": domain.get("degradations", 0),
        "parallel.domain.speedup": speedup("grav6d_serial") if is_domain else 0.0,
        "parallel.domain.vs_pencil": speedup("grav6d_pencil"),
        "core.hybrid.mesh_accel_s": _span_median(spans, "hybrid.mesh_acceleration"),
        "nbody.pm.particle_accel_s": _span_median(spans, "hybrid.particle_acceleration"),
        "nbody.treepm.accel_s": 0.0,
        "nbody.treepm.interactions": 0,
        "io.snapshot.write_s_per_ckpt": write_s,
        "io.snapshot.bytes_per_ckpt": write_bytes,
        "io.snapshot.read_s": max(
            steps[0]["io"]["read_seconds"] for steps in record.launches),
        "serve.pipeline.submit_s": section_median(record, "diagnostics_submit"),
        "serve.pipeline.close_wait_s": sum(tr.durations(spans, "pipeline.close")),
        "serve.pipeline.written": sum(e.get("written", 0) for e in closed),
        "serve.pipeline.dropped": sum(e.get("dropped", 0) for e in closed),
        "runtime.import_s": _first_duration(spans, "import"),
        "runtime.build_engine_s": _first_duration(spans, "runtime.build_engine"),
        "runtime.build_stepper_s": _first_duration(spans, "runtime.build_stepper"),
        "runtime.resume_s": (
            sum(tr.durations(resume_spans, "runtime.resume_scan"))
            + sum(tr.durations(resume_spans, "stepper.restore"))),
        "runtime.tax_ms_per_step": tax_ms,
        "runtime.tax_growth": tax_growth,
        "runtime.telemetry.bytes_per_step": record.telemetry_bytes / n_steps,
        "diagnostics.timers.closure_frac": timer_closure(record),
        "trace.accounted_frac": accounted,
        "trace.unattributed_s": unattributed_s,
        "trace.tts_s": tts_s,
    }
    metrics.update(probes)

    self_times = stats.self_time_by_name(spans)
    return {
        "workload": workload.name,
        "seed": seed,
        "metrics": metrics,
        "step_s": step_s,
        "references": references,
        "span_count": len(spans),
        "self_time_s": dict(sorted(self_times.items(), key=lambda kv: -kv[1])),
        "ops_attempted": gates.attempted,
        "ops_failed": gates.failed,
        "failures": gates.failures,
    }
