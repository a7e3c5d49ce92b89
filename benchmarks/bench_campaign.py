"""Campaign scheduling overhead: sweep service vs a bare serial loop.

The campaign layer adds work around each run — spec expansion, run-dir
materialization, the asyncio fan-out, one atomic ``campaign.json``
rewrite per state transition, and the thread hop into the executor.
This job prices that tax on a sweep whose runs are long enough for the
physics to dominate, and gates it: a scheduler that costs more than a
few percent of the work it schedules is overhead, not infrastructure.

The comparison holds the execution substrate fixed — the supervised
campaign at K=1 with the in-process thread executor vs the same N
configs driven directly through ``SimulationRunner`` in a plain loop —
so the delta is scheduling *and* supervision cost (leases, watchdog
ticks, ``supervisor.jsonl``), not process spawning or parallel speedup.
There is one dispatch path, so there is no unsupervised campaign to
price supervision against separately.  The K>1 wall clock is reported
(not gated): on a multi-core host it shows the fan-out paying for
itself, on a 1-core box it just shows the semaphore serializing
correctly.

Opt-in job: skipped unless ``REPRO_BENCH=1`` (keeps tier-1 fast);
``REPRO_BENCH_SMOKE=1`` shrinks the workload to seconds and disables
the overhead gate and result-file writes.

Run standalone with ``python benchmarks/bench_campaign.py`` or via
``REPRO_BENCH=1 pytest benchmarks/bench_campaign.py -s``.
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

NX, NU = (32, 64) if SMOKE else (96, 192)
N_STEPS = 4 if SMOKE else 20
DT = 0.1
#: Acceptance ceiling on the scheduling and supervision tax: the
#: supervised campaign-at-K=1 wall clock over the identical configs run
#: serially by hand.
MAX_SCHED_OVERHEAD = 0.10


def _campaign_config(concurrency: int):
    from repro.campaign import CampaignConfig

    return CampaignConfig(
        name="bench",
        base={
            "scenario": "plasma",
            "grid": {"nx": [NX], "nu": [NU], "box_size": 4 * np.pi,
                     "v_max": 6.0},
            "schedule": {"kind": "time", "dt": DT, "n_steps": N_STEPS},
        },
        sweep={"params.amplitude": [0.005, 0.01],
               "params.mode": [1, 2]},
        concurrency=concurrency,
        cpu_budget=concurrency,  # the bench declares its own budget
        executor="threads",
    ).validate()


def _serial_reference(config) -> float:
    """The same sweep points, driven directly — no campaign machinery."""
    from repro.runtime import SimulationRunner

    points = config.points()
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        t0 = time.perf_counter()
        for point in points:
            runner = SimulationRunner.create(
                point.config, Path(tmp) / point.run_id
            )
            assert runner.run() == 0
        return time.perf_counter() - t0


def _campaign(concurrency: int) -> float:
    """The sweep through the supervised campaign scheduler at the given K.

    Every point runs under the supervisor — lease per attempt, watchdog
    monitor ticks, the retry policy and the ``supervisor.jsonl`` event
    stream — on a fault-free sweep.
    """
    from repro.campaign import Campaign

    config = _campaign_config(concurrency)
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        campaign = Campaign.create(config, Path(tmp) / "c")
        t0 = time.perf_counter()
        code = campaign.run()
        elapsed = time.perf_counter() - t0
    assert code == 0
    return elapsed


def report() -> tuple[str, float]:
    config = _campaign_config(1)
    n_points = len(config.points())
    reps = 1 if SMOKE else 2
    _serial_reference(config)  # warm-up (plans, allocator, page cache)
    serial = min(_serial_reference(config) for _ in range(reps))
    k1 = min(_campaign(1) for _ in range(reps))
    k3 = min(_campaign(3) for _ in range(reps))

    overhead = k1 / serial - 1.0
    lines = [
        f"workload: {n_points}-point plasma sweep, {NX}x{NU}, "
        f"{N_STEPS} steps each (slmpp5)",
        f"serial runner loop    : {serial:8.3f} s",
        f"campaign K=1 (threads) : {k1:7.3f} s",
        f"campaign K=3 (threads) : {k3:7.3f} s",
        f"scheduling overhead   : {overhead:+8.2%}  (ceiling "
        f"{MAX_SCHED_OVERHEAD:.0%})",
    ]
    return "\n".join(lines), overhead


def test_campaign_scheduling_overhead_small():
    text, overhead = report()
    print("\n===== campaign_overhead =====\n" + text)
    if SMOKE:
        print("smoke mode: overhead gates skipped")
        return
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_campaign.txt").write_text(text + "\n")
    assert overhead < MAX_SCHED_OVERHEAD, (
        f"campaign scheduling overhead {overhead:.1%} exceeds "
        f"{MAX_SCHED_OVERHEAD:.0%}"
    )
    payload = {"overhead": overhead,
               "workload": f"4x{NX}x{NU}x{N_STEPS}"}
    (RESULTS_DIR / "BENCH_campaign.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )


if __name__ == "__main__":
    print(report()[0])
