"""A run directory checkpointed before the shared driver base resumes on
it to the uninterrupted run's final state, bit for bit.

``tests/data/parent_runs/<scenario>/`` holds one run directory per
scenario, written at commit 603518d (one stepper class per scenario, the
hybrid's own checkpoint writer) by

    PYTHONPATH=src python -m repro run <scenario>.json \\
        --run-dir <scenario> --max-steps 3

on the config its ``run.json`` manifest holds (``RunConfig.dump`` of):

* plasma: 16 x 16 float64, ``amplitude`` 0.05, dt 0.1, 6 steps;
* gravitational: 16 x 16 float64, ``g_newton`` 0.05, ``amplitude`` 0.05,
  dt 0.05, 6 steps;
* hybrid: 4^3 x 4^3 float32, ``slp3``, ``m_nu`` 0.4, seed 7, a from 1/11
  to 1 in 5 steps;

checkpoints every 4 steps (hybrid: 2), ``keep_last`` 1; the directories'
empty ``lock`` files are left out.  Step 3 is off every cadence, so each
surviving ``ck_00000003.npz`` carries the owed kick in its header.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from repro.io.snapshot import read_checkpoint
from repro.runtime import EXIT_COMPLETE, SimulationRunner
from repro.runtime.runner import CHECKPOINT_DIR, checkpoint_name

DATA = Path(__file__).resolve().parent / "data" / "parent_runs"
OWED_KEY = {"plasma": "pending_kick", "gravitational": "pending_kick",
            "hybrid": "kick_from_a"}


def final_state(run_dir: Path, n_steps: int) -> list[bytes]:
    _, f, particles, _ = read_checkpoint(
        run_dir / CHECKPOINT_DIR / checkpoint_name(n_steps))
    state = [f.tobytes()]
    if particles is not None:
        state += [particles.positions.tobytes(), particles.velocities.tobytes()]
    return state


@pytest.mark.parametrize("scenario", sorted(OWED_KEY))
def test_a_parent_checkpoint_resumes_to_the_uninterrupted_end(scenario,
                                                              tmp_path):
    resumed = tmp_path / "resumed"
    shutil.copytree(DATA / scenario, resumed)
    _, _, _, header = read_checkpoint(
        resumed / CHECKPOINT_DIR / checkpoint_name(3))
    assert header["step"] == 3
    assert OWED_KEY[scenario] in header["extra"]

    runner = SimulationRunner.resume(resumed)
    assert runner.run() == EXIT_COMPLETE
    uninterrupted = SimulationRunner.create(runner.config, tmp_path / "straight")
    assert uninterrupted.run() == EXIT_COMPLETE

    n = runner.config.schedule.n_steps
    assert final_state(resumed, n) == final_state(tmp_path / "straight", n)
