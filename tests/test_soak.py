"""The soak: a thousand tiny steps through ``repro run`` stay correct.

One 1D1V plasma run (nx = nu = 16, float64) of 1 000 steps with a
checkpoint every 250 steps and ``keep_last = 2``, in a subprocess so
that ``rss_mb`` (the process's peak RSS) is the run's own and not the
pytest process's.  On a 2-vCPU host the run takes about 0.7 s; ``rss_mb``
read 31.6-31.8 MB at step 100 and 31.8-31.9 MB at step 1 000 in four
runs, and the ledger's mass drift was 3.4e-7.  Wall time is not
asserted: it spreads too widely on a shared host to bound.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from repro.runtime import RunConfig, read_telemetry
from repro.runtime.config import CheckpointConfig, GridConfig, ScheduleConfig
from repro.runtime.runner import CHECKPOINT_DIR, TELEMETRY_NAME

N_STEPS = 1_000
KEEP_LAST = 2


def test_a_thousand_plasma_steps(tmp_path):
    config = RunConfig(
        scenario="plasma", name="t-soak",
        grid=GridConfig(nx=(16,), nu=(16,), box_size=4 * np.pi, v_max=6.0,
                        dtype="float64"),
        schedule=ScheduleConfig(kind="time", dt=0.1, n_steps=N_STEPS),
        checkpoint=CheckpointConfig(every_steps=250, keep_last=KEEP_LAST),
    ).validate()
    path = config.dump(tmp_path / "soak.json")
    run_dir = tmp_path / "run"
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-m", "repro", "run", str(path), "--run-dir", str(run_dir)],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]

    records = read_telemetry(run_dir / TELEMETRY_NAME)
    assert [r["step"] for r in records] == list(range(1, N_STEPS + 1))
    # flat memory: the peak after 1 000 steps is the peak after 100
    # (+0.1 to +0.25 MB measured); 1 MB is ~500 copies of the 2 KiB f
    assert abs(records[-1]["rss_mb"] - records[99]["rss_mb"]) <= 1.0
    # the default guards.max_mass_drift (3.4e-7 measured)
    assert records[-1]["drifts"]["mass"]["drift"] <= 1e-6
    # rotation keeps exactly keep_last checkpoints: steps 750 and 1 000
    assert len(list((run_dir / CHECKPOINT_DIR).glob("ck_*.npz"))) == KEEP_LAST
