"""Serial vs pencil-sharded sweeps — the PencilEngine acceptance gate.

Measures one full float32 Strang step (3 drifts + 2x3 kicks) and the
individual directional sweeps, serial vs :class:`repro.perf.PencilEngine`,
on 6-D phase-space workloads.  Results go to stdout and to
``benchmarks/results/BENCH_pencil.json`` so the trajectory of the
serial/sharded timings is a stable artifact.

Opt-in job: skipped unless ``REPRO_BENCH=1`` (keeps tier-1 fast).
Sizes:

* default: 16^3 x 8^3 (2M cells, laptop-friendly);
* ``REPRO_BENCH_FULL=1``: the acceptance workload 32^3 x 16^3
  (134M cells, ~0.5 GiB per f copy);
* ``REPRO_BENCH_SMOKE=1``: 8^3 x 6^3 in seconds, timing gates and the
  result-file write disabled — the CI smoke job that keeps every entry
  point executable (the bitwise check still gates).

Acceptance (ISSUE 1): with >= 2 available cores, the sharded Strang
step must run >= 1.5x faster than serial and be bitwise identical.  On
single-core hosts the bitwise check still gates; the speedup line is
recorded but not asserted (there is nothing to overlap).

Run standalone with ``python benchmarks/bench_pencil_engine.py`` or via
``REPRO_BENCH=1 pytest benchmarks/bench_pencil_engine.py -s``.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import PhaseSpaceGrid, VlasovSolver
from repro.perf import PencilEngine
from repro.perf.substrate import available_cores

RESULTS_DIR = Path(__file__).parent / "results"
BENCH_ENABLED = os.environ.get("REPRO_BENCH", "") == "1"
FULL = os.environ.get("REPRO_BENCH_FULL", "") == "1"
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") == "1"

pytestmark = [
    pytest.mark.bench,
    pytest.mark.skipif(
        not BENCH_ENABLED, reason="benchmark job: set REPRO_BENCH=1 to run"
    ),
]


def _grid() -> PhaseSpaceGrid:
    if SMOKE:
        n, m = 8, 6  # velocity axes must fit the order-5 stencil
    else:
        n, m = (32, 16) if FULL else (16, 8)
    return PhaseSpaceGrid(
        nx=(n, n, n), nu=(m, m, m), box_size=100.0, v_max=3.0
    )


def _median_time(fn, repeats: int) -> float:
    laps = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        laps.append(time.perf_counter() - t0)
    return float(np.median(laps))


def _strang(solver: VlasovSolver, accel: np.ndarray) -> None:
    solver.strang_step(accel, 0.004, 0.008, lambda: accel, 0.004)


def run_pencil_bench(n_workers: int | None = None, repeats: int = 3) -> dict:
    """Measure serial vs sharded Strang steps; return the result record."""
    cores = available_cores()
    if n_workers is None:
        n_workers = max(2, cores)
    grid = _grid()
    rng = np.random.default_rng(2021)
    ic = (0.5 + rng.random(grid.shape)).astype(np.float32)
    accel = rng.standard_normal((3,) + grid.nx) * 0.5

    serial = VlasovSolver(grid)
    serial.f[...] = ic
    _strang(serial, accel)  # warm the arena
    serial.f[...] = ic
    t_serial = _median_time(lambda: _strang(serial, accel), repeats)

    engine = PencilEngine(n_workers=n_workers, backend="threads")
    sharded = VlasovSolver(grid, engine=engine)
    sharded.f[...] = ic
    _strang(sharded, accel)
    sharded.f[...] = ic
    t_sharded = _median_time(lambda: _strang(sharded, accel), repeats)

    # bitwise identity of the full multi-sweep trajectory
    serial.f[...] = ic
    sharded.f[...] = ic
    _strang(serial, accel)
    _strang(sharded, accel)
    bitwise = serial.f.tobytes() == sharded.f.tobytes()
    engine.close()

    record = {
        "workload": f"{grid.nx[0]}^3 x {grid.nu[0]}^3 float32 Strang step",
        "n_cells": grid.n_cells,
        "cores_available": cores,
        "n_workers": n_workers,
        "repeats": repeats,
        "serial_s": t_serial,
        "sharded_s": t_sharded,
        "speedup": t_serial / t_sharded,
        "bitwise_identical": bitwise,
    }
    return record


def test_pencil_engine_speedup_and_identity():
    repeats = 1 if SMOKE else (3 if FULL else 5)
    record = run_pencil_bench(repeats=repeats)
    text = json.dumps(record, indent=2)
    print(f"\n===== BENCH_pencil =====\n{text}")
    if not SMOKE:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / "BENCH_pencil.json").write_text(text + "\n")

    assert record["bitwise_identical"], "sharded step diverged from serial"
    if SMOKE:
        print("smoke mode: timing gates skipped")
    elif record["cores_available"] >= 2:
        assert record["speedup"] >= 1.5, (
            f"sharded Strang step only {record['speedup']:.2f}x faster "
            f"(acceptance: >= 1.5x with {record['cores_available']} cores)"
        )
    else:
        print(
            "single-core host: speedup "
            f"{record['speedup']:.2f}x recorded, not asserted"
        )


if __name__ == "__main__":
    os.environ.setdefault("REPRO_BENCH", "1")
    rec = run_pencil_bench(repeats=1 if SMOKE else 3)
    if not SMOKE:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / "BENCH_pencil.json").write_text(
            json.dumps(rec, indent=2) + "\n"
        )
    print(json.dumps(rec, indent=2))
    assert rec["bitwise_identical"], "sharded step diverged from serial"
