"""Orchestration overhead: SimulationRunner vs a bare driver loop.

The runtime layer adds per-step work — guard checks, ledger updates,
telemetry serialization + flush, section bookkeeping — and periodic
checkpoint writes. This job measures that tax on a plasma workload
large enough for the physics to dominate, and asserts it stays small:
the whole point of the subsystem is that production discipline is
(nearly) free.

Opt-in job: skipped unless ``REPRO_BENCH=1`` (keeps tier-1 fast);
``REPRO_BENCH_SMOKE=1`` shrinks the workload to seconds and disables
the tax gates and result-file writes (the CI smoke job that keeps the
entry point executable).

Run standalone with ``python benchmarks/bench_runtime_overhead.py`` or
via ``REPRO_BENCH=1 pytest benchmarks/bench_runtime_overhead.py -s``.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

RESULTS_DIR = Path(__file__).parent / "results"
BENCH_ENABLED = os.environ.get("REPRO_BENCH", "") == "1"
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") == "1"

pytestmark = [
    pytest.mark.bench,
    pytest.mark.skipif(
        not BENCH_ENABLED, reason="benchmark job: set REPRO_BENCH=1 to run"
    ),
]

NX, NU = (32, 64) if SMOKE else (128, 256)
N_STEPS = 6 if SMOKE else 40
DT = 0.1
#: Acceptance ceiling on the orchestration tax (cadenced checkpoints
#: excluded — those buy restartability and are priced separately).
MAX_OVERHEAD_FRACTION = 0.15
#: Acceptance ceiling on the fault-tolerance tax: per-array checkpoint
#: checksums + worker supervision + rollback bookkeeping, measured on a
#: cadenced run against the same run with the machinery disabled.
MAX_FAULT_TAX_FRACTION = 0.10


def _bare_loop() -> float:
    """The un-orchestrated reference: driver + perturbation, no harness."""
    from repro.core import PhaseSpaceGrid, PlasmaVlasovPoisson

    grid = PhaseSpaceGrid(nx=(NX,), nu=(NU,), box_size=4 * np.pi,
                          v_max=6.0, dtype=np.float64)
    vp = PlasmaVlasovPoisson(grid, scheme="slmpp5")
    x = grid.x_centers(0)[:, None]
    v = grid.u_centers(0)[None, :]
    vp.f = (1 + 0.01 * np.cos(0.5 * x)) * np.exp(-v**2 / 2) / np.sqrt(2 * np.pi)
    t0 = time.perf_counter()
    for _ in range(N_STEPS):
        vp.step(DT)
    return time.perf_counter() - t0


def _orchestrated(every_steps: int | None) -> float:
    """The same schedule through SimulationRunner."""
    from repro.runtime import RunConfig, SimulationRunner
    from repro.runtime.config import CheckpointConfig, GridConfig, ScheduleConfig

    config = RunConfig(
        scenario="plasma",
        name="bench",
        grid=GridConfig(nx=(NX,), nu=(NU,), box_size=4 * np.pi, v_max=6.0),
        schedule=ScheduleConfig(kind="time", dt=DT, n_steps=N_STEPS),
        checkpoint=CheckpointConfig(every_steps=every_steps, keep_last=2),
    )
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        runner = SimulationRunner.create(config, Path(tmp) / "run")
        t0 = time.perf_counter()
        code = runner.run()
        elapsed = time.perf_counter() - t0
    assert code == 0
    return elapsed


def _fault_tolerance_tax() -> tuple[float, float, float]:
    """Cadenced-run seconds with the fault-tolerance layer on vs off.

    "On" is the shipped run: CRC32 checksums on every checkpoint write,
    supervised-engine plumbing, the recovery manager in the loop.  "Off"
    is the same run minus the per-byte work, the one part of the layer
    with a cost that grows with the state: every call of
    ``repro.io.snapshot._array_checksums`` (one per checkpoint payload)
    is timed inside the run and subtracted.  The rest of the layer is
    priced on both sides, which is the honest accounting: it runs in
    production too.
    """
    from repro.io import snapshot

    real = snapshot._array_checksums
    crc_seconds = 0.0

    def timed(payload):
        nonlocal crc_seconds
        t0 = time.perf_counter()
        try:
            return real(payload)
        finally:
            crc_seconds += time.perf_counter() - t0

    runs = []
    snapshot._array_checksums = timed
    try:
        _orchestrated(every_steps=5)  # warm-up (plans, allocator, page cache)
        for _ in range(1 if SMOKE else 3):
            crc_seconds = 0.0
            elapsed = _orchestrated(every_steps=5)
            runs.append((elapsed, elapsed - crc_seconds))
    finally:
        snapshot._array_checksums = real
    with_crc, without_crc = min(runs)
    return with_crc, without_crc, with_crc / without_crc - 1.0


def report() -> tuple[str, float]:
    bare = min(_bare_loop() for _ in range(2))
    harness = min(_orchestrated(every_steps=None) for _ in range(2))
    cadenced = _orchestrated(every_steps=5)

    tax = harness / bare - 1.0
    ck_cost = (cadenced - harness) / (N_STEPS / 5)
    lines = [
        f"workload: plasma {NX}x{NU}, {N_STEPS} steps of dt={DT} (slmpp5)",
        f"bare driver loop        : {bare:8.3f} s "
        f"({bare / N_STEPS * 1e3:6.2f} ms/step)",
        f"runner (no cadence)     : {harness:8.3f} s "
        f"({harness / N_STEPS * 1e3:6.2f} ms/step)",
        f"runner (ck every 5)     : {cadenced:8.3f} s",
        f"orchestration tax       : {tax:+8.2%}  (ceiling "
        f"{MAX_OVERHEAD_FRACTION:.0%})",
        f"per-checkpoint cost     : {ck_cost * 1e3:8.2f} ms",
    ]
    return "\n".join(lines), tax


def test_runtime_overhead_small():
    text, tax = report()
    print("\n===== runtime_overhead =====\n" + text)
    if SMOKE:
        print("smoke mode: overhead gate skipped")
        return
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_runtime_overhead.txt").write_text(text + "\n")
    assert tax < MAX_OVERHEAD_FRACTION, (
        f"runner overhead {tax:.1%} exceeds {MAX_OVERHEAD_FRACTION:.0%}"
    )
    payload = {"tax": tax, "workload": f"{NX}x{NU}x{N_STEPS}"}
    (RESULTS_DIR / "BENCH_runtime_overhead.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )


def test_fault_tolerance_tax_small():
    with_crc, without_crc, tax = _fault_tolerance_tax()
    text = (
        f"cadenced run, checksums on : {with_crc:8.3f} s\n"
        f"cadenced run, checksums off: {without_crc:8.3f} s\n"
        f"fault-tolerance tax        : {tax:+8.2%}  (ceiling "
        f"{MAX_FAULT_TAX_FRACTION:.0%})"
    )
    print("\n===== fault_tolerance_tax =====\n" + text)
    if SMOKE:
        print("smoke mode: tax gate skipped")
        return
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_fault_tolerance_tax.txt").write_text(text + "\n")
    assert tax < MAX_FAULT_TAX_FRACTION, (
        f"fault-tolerance tax {tax:.1%} exceeds {MAX_FAULT_TAX_FRACTION:.0%}"
    )


if __name__ == "__main__":
    print(report()[0])
