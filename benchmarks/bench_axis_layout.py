"""Strided vs packed/fast-path sweeps — the LayoutEngine acceptance gate.

Times one slmpp5 float32 advection along **every axis** of a 6-D
phase-space array, twice per axis:

* ``baseline`` — the seed execution path: ``layout="in_place"``, the
  uniform-shift fast paths disabled (full ``take_along_axis`` gathers
  with broadcast index arrays) and the MP limiter allocating all its
  temporaries afresh — exactly what the kernel did before the layout
  engine landed;
* ``optimized`` — the shipped defaults: ``layout="auto"`` (the engine
  packs badly-strided sweeps through cache-blocked transposes, paper
  §5.4's LAT analog), the uniform-shift roll/slice fast paths, and the
  arena-pooled limiter.

The shift field keeps the integer cell offset uniform while the
fractional departure varies along a non-advected axis — the drift-sweep
shape (``u * dt/dx`` is constant per velocity slab), and the case where
the seed path pays for full gathers that carry no information.

Both sides run cache-blocked (``advect`` blocks every sweep above
``BLOCK_CELLS`` itself since ISSUE 14, with no switch to turn it off),
so neither side's number contains the full-size working set any more and
the ratio is what the fast paths, the pooled limiter and the pack buy on
block-sized scratch.  Re-measured on that footing (2-core host): 1.92x
on the worst-strided axis, >= 1.34x everywhere.  ISSUE 15's sign-free,
curvature-once MP limiter is the same arithmetic pooled or allocating,
so both sides got faster (axis 0: baseline 3.18 -> 2.54 s, optimized
1.65 -> 1.14 s); this shift field has one sign, so the row split never
runs.  Re-measured: 2.22x on the worst-strided axis, >= 1.42x
everywhere.  The gate below holds unchanged.

Both paths must agree **bitwise** on every axis.  Acceptance (ISSUE 5):
the optimized path is >= 1.5x faster on the worst-strided axis (axis 0;
its stride is ``ny*nz*nu^3`` elements) and regresses < 5% on the
already-contiguous axis (the last velocity axis).

Results go to ``benchmarks/results/BENCH_layout.json`` — the per-axis
table quoted in docs/PERFORMANCE.md.

Opt-in job: skipped unless ``REPRO_BENCH=1`` (keeps tier-1 fast);
``REPRO_BENCH_FULL=1`` grows the workload, ``REPRO_BENCH_SMOKE=1``
shrinks it to seconds and disables the timing gates (CI smoke: every
entry point still executes and the bitwise checks still gate).

Run standalone with ``python benchmarks/bench_axis_layout.py`` or via
``REPRO_BENCH=1 pytest benchmarks/bench_axis_layout.py -s``.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import advection
from repro.core.advection import advect
from repro.perf import LayoutEngine, ScratchArena

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

#: acceptance thresholds (ISSUE 5)
MIN_WORST_AXIS_SPEEDUP = 1.5
MAX_CONTIGUOUS_REGRESSION = 0.05


def _shape() -> tuple[int, ...]:
    if SMOKE:
        n, m = 8, 6  # >= 5 everywhere: slmpp5 needs an order-5 stencil
    elif FULL:
        n, m = 28, 14
    else:
        n, m = 24, 12
    return (n, n, n, m, m, m)


def _best_time(fn, repeats: int) -> float:
    """Best-of-N wall clock (the standard noise-robust estimator for a
    single-process timing gate)."""
    laps = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        laps.append(time.perf_counter() - t0)
    return float(min(laps))


def _shift(shape: tuple[int, ...], axis: int) -> np.ndarray:
    """Uniform integer offset, varying fractional part (the drift shape).

    k = floor(shift) = 1 everywhere; alpha varies along a non-advected
    axis, so the seed path cannot use its scalar-shift shortcut and runs
    the full gather machinery.
    """
    vary = (axis + 3) % len(shape)
    profile = 0.2 + 0.6 * (np.arange(shape[vary]) + 0.5) / shape[vary]
    sh = np.ones([1] * len(shape))
    sh = sh * profile.reshape(
        [-1 if d == vary else 1 for d in range(len(shape))]
    )
    return 1.0 + sh  # in (1.2, 1.8): k == 1, alpha in (0.2, 0.8)


def _run_axis(f, axis, repeats, *, layout, fast, pooled):
    arena = ScratchArena()
    out = np.empty_like(f)
    sh = _shift(f.shape, axis)
    prev_fast = advection.UNIFORM_FAST
    prev_pool = advection.POOLED_LIMITER
    advection.UNIFORM_FAST = fast
    advection.POOLED_LIMITER = pooled
    try:
        call = lambda: advect(  # noqa: E731
            f, sh, axis, scheme="slmpp5", bc="periodic",
            out=out, arena=arena, layout=layout,
        )
        call()  # warm the arena / scratch pool
        t = _best_time(call, repeats)
    finally:
        advection.UNIFORM_FAST = prev_fast
        advection.POOLED_LIMITER = prev_pool
    return t, out.copy()


def run_layout_bench(repeats: int | None = None) -> dict:
    """Per-axis baseline vs optimized sweeps; returns the result record."""
    if repeats is None:
        repeats = 1 if SMOKE else 2
    shape = _shape()
    rng = np.random.default_rng(2021)
    f = (0.5 + rng.random(shape)).astype(np.float32)

    engine = LayoutEngine()  # the shipped "auto" policy
    axes = []
    for axis in range(len(shape)):
        t_base, out_base = _run_axis(
            f, axis, repeats, layout="in_place", fast=False, pooled=False
        )
        t_opt, out_opt = _run_axis(
            f, axis, repeats, layout=engine, fast=True, pooled=True
        )
        axes.append({
            "axis": axis,
            "stride_bytes": int(abs(f.strides[axis])),
            "layout_mode": engine.last_decision.mode,
            "baseline_s": t_base,
            "optimized_s": t_opt,
            "speedup": t_base / t_opt,
            "bitwise_identical": out_base.tobytes() == out_opt.tobytes(),
        })
    worst = axes[0]           # largest stride by construction
    contiguous = axes[-1]     # innermost axis, stride == itemsize
    return {
        "workload": (
            f"{'x'.join(map(str, shape))} float32 slmpp5 sweep, "
            f"uniform k=1, varying alpha"
        ),
        "n_cells": int(np.prod(shape)),
        "nbytes": int(f.nbytes),
        "repeats": repeats,
        "engine": engine.stats(),
        "axes": axes,
        "worst_axis_speedup": worst["speedup"],
        "contiguous_axis_speedup": contiguous["speedup"],
    }


def test_layout_engine_speedup_and_identity():
    record = run_layout_bench()
    text = json.dumps(record, indent=2)
    print(f"\n===== BENCH_layout =====\n{text}")
    if not SMOKE:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / "BENCH_layout.json").write_text(text + "\n")

    for ax in record["axes"]:
        assert ax["bitwise_identical"], (
            f"axis {ax['axis']}: optimized sweep diverged from baseline"
        )
    if SMOKE:
        print("smoke mode: timing gates skipped")
        return
    assert record["worst_axis_speedup"] >= MIN_WORST_AXIS_SPEEDUP, (
        f"worst-strided axis only {record['worst_axis_speedup']:.2f}x "
        f"faster (acceptance: >= {MIN_WORST_AXIS_SPEEDUP}x)"
    )
    assert record["contiguous_axis_speedup"] >= 1.0 - MAX_CONTIGUOUS_REGRESSION, (
        f"contiguous axis regressed to "
        f"{record['contiguous_axis_speedup']:.2f}x "
        f"(acceptance: > {1.0 - MAX_CONTIGUOUS_REGRESSION:.2f}x)"
    )


if __name__ == "__main__":
    os.environ.setdefault("REPRO_BENCH", "1")
    rec = run_layout_bench()
    if not SMOKE:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / "BENCH_layout.json").write_text(
            json.dumps(rec, indent=2) + "\n"
        )
    print(json.dumps(rec, indent=2))
    assert all(ax["bitwise_identical"] for ax in rec["axes"])
