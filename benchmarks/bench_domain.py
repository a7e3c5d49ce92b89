"""Domain-engine scaling — weak and strong curves vs the machine model.

Runs full plasma Vlasov-Poisson steps (KDK: drift + 2 kicks + Poisson
on the parent's default FFT backend) on the real-transport
:class:`~repro.parallel.domain.DomainEngine` at 1/2/4 persistent
shared-memory workers, and writes ``benchmarks/results/BENCH_domain.json``
with:

* a **strong** curve (fixed global grid, growing worker count) and the
  speedup over the serial solver;
* a **weak** curve (fixed per-worker block, growing global grid), with
  per-step times and weak efficiency T(1)/T(P);
* the paper-calibrated machine-model predictions for Tables 3-4
  (:mod:`repro.scaling.experiments`) alongside, so measured curvature can
  be compared against the Tofu/A64FX cost model's.

Every measured configuration is cross-checked bitwise against the serial
solver, and residency is asserted: after the steps, ``engine.f`` is one
of the engine's two shared buffers (f is never gathered to the host).

Opt-in job: skipped unless ``REPRO_BENCH=1`` (keeps tier-1 fast).
``REPRO_BENCH_SMOKE=1`` shrinks the grids and disables the timing gates
(CI keeps every entry point executable; bitwise + residency still gate).
The JSON artifact is written in full mode only; a smoke run prints it
(flagged with ``"smoke"``) and leaves ``results/`` alone.

Run standalone with ``REPRO_BENCH=1 python benchmarks/bench_domain.py``
or via ``REPRO_BENCH=1 pytest benchmarks/bench_domain.py -s``.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.mesh import PhaseSpaceGrid
from repro.core.vlasov_poisson import PlasmaVlasovPoisson
from repro.parallel import DomainEngine
from repro.perf.substrate import available_cores
from repro.scaling.experiments import strong_scaling_table, weak_scaling_table

RESULTS_DIR = Path(__file__).parent / "results"
BENCH_ENABLED = os.environ.get("REPRO_BENCH", "") == "1"
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") == "1"

pytestmark = [
    pytest.mark.bench,
    pytest.mark.skipif(
        not BENCH_ENABLED, reason="benchmark job: set REPRO_BENCH=1 to run"
    ),
]

#: worker count -> 3-D process grid (paper §5: spatial axes only)
TOPOLOGIES = {1: (1, 1, 1), 2: (2, 1, 1), 4: (2, 2, 1)}


def _grid(nx: tuple[int, int, int]) -> PhaseSpaceGrid:
    nu = (6, 6, 6) if SMOKE else (8, 8, 8)
    return PhaseSpaceGrid(nx=nx, nu=nu, box_size=1.0, v_max=3.0)


def _dt(grid: PhaseSpaceGrid) -> float:
    """Drift CFL 0.25: no whole cell crossed, so every partitioned sweep
    lands the narrowest halo (``ghost_width`` 3 for slmpp5) whatever the
    topology's block widths."""
    return 0.25 * float(min(grid.dx)) / grid.v_max


def _initial(grid: PhaseSpaceGrid) -> np.ndarray:
    shape = tuple(grid.nx) + tuple(grid.nu)
    idx = np.arange(int(np.prod(shape)), dtype=np.float64).reshape(shape)
    return 1.0 + 0.5 * np.cos(0.13 * idx) + 0.25 * np.sin(0.041 * idx)


def _measure(nx, workers: int | None, steps: int, repeats: int) -> dict:
    """Median per-step wall time for one configuration.

    ``workers=None`` runs the plain serial solver (the strong-scaling
    denominator); otherwise a DomainEngine at TOPOLOGIES[workers].
    Returns the timing plus the final state's bytes for bitwise gating.
    """
    grid = _grid(nx)
    dt = _dt(grid)
    engine = DomainEngine(topology=TOPOLOGIES[workers]) if workers else None
    vp = PlasmaVlasovPoisson(grid, engine=engine)
    vp.f = _initial(grid)
    vp.step(dt)  # warm: spawn workers, build FFT plans

    laps = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(steps):
            vp.step(dt)
        laps.append((time.perf_counter() - t0) / steps)

    resident = None
    if engine is not None:
        # acceptance: f is still one of the two shared buffers
        resident = any(np.shares_memory(engine.f, buf)
                       for buf in engine._bufs)
        assert resident, (
            f"residency violated: f left the shared buffers during "
            f"{workers}-worker steps"
        )
    digest = np.asarray(vp.f).tobytes()
    if engine is not None:
        engine.close()
    return {
        "nx": list(nx),
        "workers": workers or 0,
        "step_s": float(np.median(laps)),
        "resident": resident,
        "_digest": digest,
    }


def run_domain_bench(steps: int | None = None, repeats: int | None = None) -> dict:
    cores = available_cores()
    steps = steps or (1 if SMOKE else 2)
    repeats = repeats or (1 if SMOKE else 2)

    strong_nx = (8, 8, 6) if SMOKE else (16, 16, 8)
    # weak: per-worker block fixed at the 1-worker grid
    weak_nx = {
        1: (8, 8, 6) if SMOKE else (12, 12, 8),
        2: (16, 8, 6) if SMOKE else (24, 12, 8),
        4: (16, 16, 6) if SMOKE else (24, 24, 8),
    }

    # -- strong scaling: fixed grid, growing fleet ----------------------
    serial = _measure(strong_nx, None, steps, repeats)
    strong = []
    for w in (1, 2, 4):
        rec = _measure(strong_nx, w, steps, repeats)
        assert rec.pop("_digest") == serial["_digest"], (
            f"domain engine at {w} workers diverged from serial"
        )
        rec["speedup_vs_serial"] = serial["step_s"] / rec["step_s"]
        strong.append(rec)
    serial.pop("_digest")

    # -- weak scaling: fixed per-worker block ---------------------------
    weak = []
    for w in (1, 2, 4):
        rec = _measure(weak_nx[w], w, steps, repeats)
        # serial reference over the same trajectory length for the
        # bitwise gate (the timing of interest is the domain run's)
        ref = _measure(weak_nx[w], None, steps, repeats)
        assert rec.pop("_digest") == ref.pop("_digest"), (
            f"weak-scaling point at {w} workers diverged from serial"
        )
        weak.append(rec)
    for rec in weak:
        rec["weak_efficiency"] = weak[0]["step_s"] / rec["step_s"]

    result = {
        "smoke": SMOKE,
        "cores_available": cores,
        "steps_per_repeat": steps,
        "repeats": repeats,
        "serial": serial,
        "strong": strong,
        "weak": weak,
        "machine_model": {
            "weak_table3": [
                {"label": r.label, **r.as_dict()} for r in weak_scaling_table()
            ],
            "strong_table4": [
                {"label": r.label, **r.as_dict()} for r in strong_scaling_table()
            ],
        },
    }
    return result


def _write(result: dict) -> str:
    """The result as JSON, kept under results/ unless this is a smoke run."""
    text = json.dumps(result, indent=2)
    if not SMOKE:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / "BENCH_domain.json").write_text(text + "\n")
    return text


def test_domain_scaling_curves():
    result = run_domain_bench()
    print(f"\n===== BENCH_domain =====\n{_write(result)}")

    assert all(r["resident"] for r in result["strong"] + result["weak"])
    if SMOKE:
        print("smoke mode: timing gates skipped")
    elif result["cores_available"] >= 4:
        s4 = result["strong"][-1]["speedup_vs_serial"]
        assert s4 >= 1.5, (
            f"strong scaling at 4 workers only {s4:.2f}x over serial "
            f"(acceptance: >= 1.5x with {result['cores_available']} cores)"
        )
    else:
        print("fewer than 4 cores: speedup recorded, not asserted")


if __name__ == "__main__":
    os.environ.setdefault("REPRO_BENCH", "1")
    rec = run_domain_bench()
    print(_write(rec))
    assert all(r["resident"] for r in rec["strong"] + rec["weak"])
