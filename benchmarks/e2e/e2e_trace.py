"""The traced run: spans recorded around the calls into each layer.

The program is not edited.  A child process imports it, wraps the public
seams between its layers from outside (module attributes the runner
looks up at call time, and methods of the stepper/driver objects the
runner builds), then calls ``repro.cli.main`` in-process — the same code
path ``python -m repro`` takes.  Spans are kept in memory and written
once, after the run::

    launch                       (parent: spawn -> exit, os.wait4)
      python.start               interpreter start, to the child's first line
      import                     import repro.cli and what `run` imports lazily
      cli.main                   the rest is the runner (self time = its glue)
        runtime.build_engine / runtime.build_stepper / runtime.resume_scan
        stepper.restore
        stepper.advance          one per step
          solver.kick / solver.drift
          gravity.poisson | hybrid.mesh_acceleration / hybrid.particle_acceleration
            moments.density
        stepper.conserved / guards.check / runner.record / telemetry.append
        pipeline.submit / stepper.save / pipeline.close / engine.close
      process.exit               (parent: the child's last stamp -> exit;
                                  includes writing the span file)

``time.monotonic`` is CLOCK_MONOTONIC on Linux — one clock for parent
and child, so the parent's spawn/exit stamps and the child's spans share
a timeline.

``runner.record`` wraps ``SimulationRunner._record``, the one private
seam: its O(steps) section re-sum is a named suspect of the runtime tax
and has no public entry point.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from pathlib import Path

#: Span names whose *self* time names no layer: the root (gaps between
#: its children) and the runner's own glue.  Everything else is
#: attributed; the closure check is 1 - (their self time / traced tts).
UNATTRIBUTED = ("launch", "cli.main")


class SpanRecorder:
    """In-memory span log: ``(name, start, end, parent index)`` rows.

    Only the thread that created the recorder records; calls from other
    threads (the diagnostics worker, pencil threads) pass through
    untimed, so the parent stack is never torn.
    """

    def __init__(self) -> None:
        self.rows: list[list] = []
        self._stack: list[int] = []
        self._thread = threading.get_ident()

    def add(self, name: str, start: float, end: float) -> None:
        """Record an already-measured span under the current parent."""
        parent = self._stack[-1] if self._stack else None
        self.rows.append([name, start, end, parent])

    def wrap(self, fn, name: str):
        """``fn`` with a span around every call."""
        rows, stack, owner = self.rows, self._stack, self._thread
        clock = time.monotonic

        def traced(*args, **kwargs):
            if threading.get_ident() != owner:
                return fn(*args, **kwargs)
            row = [name, 0.0, 0.0, stack[-1] if stack else None]
            stack.append(len(rows))
            rows.append(row)
            row[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                row[2] = clock()
                stack.pop()

        return traced

    def wrap_attr(self, obj, attr: str, name: str) -> None:
        """Replace ``obj.attr`` by its traced form (no-op if absent)."""
        fn = getattr(obj, attr, None)
        if fn is not None:
            setattr(obj, attr, self.wrap(fn, name))


def _instrument_stepper(rec: SpanRecorder, stepper) -> None:
    """Wrap the layer boundaries below one freshly built stepper."""
    for attr in ("advance", "conserved", "save", "restore"):
        rec.wrap_attr(stepper, attr, f"stepper.{attr}")
    sim = getattr(stepper, "sim", None)
    if sim is not None:  # hybrid: the driver is never handed the timer
        rec.wrap_attr(sim.neutrinos, "kick", "solver.kick")
        rec.wrap_attr(sim.neutrinos, "drift", "solver.drift")
        rec.wrap_attr(sim, "mesh_acceleration", "hybrid.mesh_acceleration")
        rec.wrap_attr(sim, "particle_acceleration",
                      "hybrid.particle_acceleration")
        rec.wrap_attr(sim, "neutrino_density", "moments.density")
        return
    driver = stepper.driver
    rec.wrap_attr(driver.solver, "kick", "solver.kick")
    rec.wrap_attr(driver.solver, "drift", "solver.drift")
    rec.wrap_attr(driver.solver, "density", "moments.density")
    rec.wrap_attr(driver, "acceleration", "gravity.poisson")


def _arena_nbytes(stepper) -> int:
    """Bytes pinned by the host-side solver's scratch arena."""
    sim = getattr(stepper, "sim", None)
    solver = sim.neutrinos if sim is not None else stepper.driver.solver
    solver = getattr(solver, "solver", solver)  # the domain adapter's mirror
    arena = getattr(solver, "arena", None)
    return int(arena.nbytes) if arena is not None else 0


def child_main(argv: list[str]) -> int:
    """``e2e_trace.py <spans.json> <repro cli args...>``."""
    t_first = time.monotonic()
    out_path, cli_args = argv[0], argv[1:]
    rec = SpanRecorder()

    t0 = time.monotonic()
    import repro.cli
    import repro.runtime.runner as runner
    import repro.serve.pipeline as pipeline
    rec.add("import", t0, time.monotonic())

    built = []

    def build_stepper(config, timer=None, engine=None):
        stepper = traced_build(config, timer=timer, engine=engine)
        _instrument_stepper(rec, stepper)
        built.append(stepper)
        return stepper

    def build_engine(config):
        engine = traced_engine(config)
        if engine is not None:
            rec.wrap_attr(engine, "close", "engine.close")
        return engine

    traced_build = rec.wrap(runner.build_stepper, "runtime.build_stepper")
    traced_engine = rec.wrap(runner.build_engine, "runtime.build_engine")
    runner.build_stepper = build_stepper
    runner.build_engine = build_engine
    rec.wrap_attr(runner, "find_latest_valid_checkpoint", "runtime.resume_scan")
    rec.wrap_attr(runner.TelemetryWriter, "append", "telemetry.append")
    rec.wrap_attr(runner.GuardSuite, "check_step", "guards.check")
    rec.wrap_attr(runner.SimulationRunner, "_record", "runner.record")
    rec.wrap_attr(pipeline.DiagnosticsPipeline, "submit", "pipeline.submit")
    rec.wrap_attr(pipeline.DiagnosticsPipeline, "close", "pipeline.close")

    code = rec.wrap(repro.cli.main, "cli.main")(cli_args)

    payload = {
        "run_id": os.path.basename(out_path),
        "exit_code": code,
        "arena_nbytes": _arena_nbytes(built[-1]) if built else 0,
        "spans": rec.rows,
        "t_first": t_first,
        "t_end": time.monotonic(),
    }
    with open(out_path, "w") as fh:
        json.dump(payload, fh)
    return code


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------


def traced_argv(spans_path: Path, cli_args: list) -> list:
    """The command line of one traced launch."""
    return [sys.executable, str(Path(__file__).resolve()), str(spans_path),
            *map(str, cli_args)]


def load_spans(spans_path: Path, launch, run_id: str) -> tuple[list[dict], dict]:
    """One launch's span tree as dicts, rooted at the parent's ``launch``.

    Child rows index each other; they are shifted by two to make room
    for the root and ``python.start`` (spawn to the child's first line),
    and rows without a parent hang off the root.  ``process.exit`` runs
    from the child's last stamp to the exit the spawner saw.
    """
    payload = json.loads(spans_path.read_text())

    def span(name, start, end, parent):
        return {"name": name, "start": start, "end": end, "parent": parent,
                "run_id": run_id}

    spans = [span("launch", launch.t_spawn, launch.t_exit, None),
             span("python.start", launch.t_spawn, payload["t_first"], 0)]
    for name, start, end, parent in payload["spans"]:
        spans.append(span(name, start, end, 0 if parent is None else parent + 2))
    spans.append(span("process.exit", payload["t_end"], launch.t_exit, 0))
    return spans, payload


def children_of(spans: list[dict], name: str) -> dict[int, list[dict]]:
    """Spans grouped under each span called ``name`` (direct and nested)."""
    groups: dict[int, list[dict]] = {
        i: [] for i, s in enumerate(spans) if s["name"] == name
    }
    owner: list[int | None] = [None] * len(spans)
    for i, span in enumerate(spans):
        if i in groups:
            owner[i] = i
        elif span["parent"] is not None:
            owner[i] = owner[span["parent"]]
        if owner[i] is not None and owner[i] != i:
            groups[owner[i]].append(span)
    return groups


def per_step_seconds(spans: list[dict], name: str) -> list[float]:
    """Seconds spent under spans called ``name`` inside each
    ``stepper.advance`` except each launch's first, in step order."""
    out, seen = [], set()
    for advance, inside in children_of(spans, "stepper.advance").items():
        run_id = spans[advance]["run_id"]
        if run_id not in seen:  # the launch's cold first step
            seen.add(run_id)
            continue
        out.append(sum(s["end"] - s["start"] for s in inside
                       if s["name"] == name))
    return out


def durations(spans: list[dict], name: str) -> list[float]:
    return [s["end"] - s["start"] for s in spans if s["name"] == name]


if __name__ == "__main__":
    raise SystemExit(child_main(sys.argv[1:]))
