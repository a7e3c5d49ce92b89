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

Acceptance: bitwise identical always; with >= 2 available cores the
sharded Strang step must reach a parallel efficiency — speedup over
``min(n_workers, cores)`` — of >= 0.45, i.e. sharding over two threads
must not cost more than ~10 % over the serial step.  That is all the
gate can honestly ask of the thread backend today, and the history of
the number says why.  ISSUE 1's gate was "speedup >= 1.5x", calibrated
against a serial kernel that streamed full-size temporaries through
memory: pencils halved that working set, so the ratio rewarded the
serial path's cache misses (1.96x with 2 workers on *one* core; 2.14x
on two: serial 7.31 s, sharded 3.42 s).  Since ISSUE 14 ``advect``
cache-blocks every sweep itself, the serial step has that win (4.42 s,
sharded 2.80 s, 1.58x, efficiency 0.79 — the gate became >= 0.6).
ISSUE 15 then made the *baseline* three times faster again: each row is
advanced once, in its own direction, through a limiter without
``np.sign`` (serial 1.33 s).  A kernel call now works on half a block's
rows and its ufunc passes last ~4-8 us, the same order as a GIL
hand-off between two threads that both want it after every pass, so
the thread backend gains little on top: sharded 1.21-1.31 s,
1.01-1.11x, efficiency 0.51-0.56 in four of five runs (the fifth read
1.28x because its serial laps drifted to 1.64 s), while both absolute
times fell by more than half.  (``benchmarks/e2e`` sees the same: ``grav6d_pencil``
``step_s`` 0.47 -> 0.28 s, ``perf.pencil.speedup`` 1.5 -> 1.3.)  The
gate is restated from that measurement with room for the host's ~8 %
run-to-run drift; whether threads are still the right second engine is
ROADMAP item 2's question, not this bench's.  On single-core hosts the
number is recorded but not asserted (there is nothing to overlap).

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

#: acceptance threshold on speedup / min(n_workers, cores) — see above
MIN_PARALLEL_EFFICIENCY = 0.45

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

    engine = PencilEngine(n_workers=n_workers)
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
        "parallel_efficiency": t_serial / t_sharded / min(n_workers, cores),
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
        assert record["parallel_efficiency"] >= MIN_PARALLEL_EFFICIENCY, (
            f"sharded Strang step {record['speedup']:.2f}x faster with "
            f"{record['n_workers']} workers on {record['cores_available']} "
            f"cores: efficiency {record['parallel_efficiency']:.2f} "
            f"(acceptance: >= {MIN_PARALLEL_EFFICIENCY})"
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
