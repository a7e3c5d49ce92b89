"""Signal handling, exit-code contract, and CLI round-trip — via real
subprocesses, because signal delivery and sys.exit codes can only be
observed from outside the interpreter.

Contract under test (documented in docs/RUNTIME.md):

* SIGTERM/SIGINT mid-run -> current step finishes, a valid checkpoint
  lands, the manifest says ``interrupted``, and the process exits 75
  (``EX_TEMPFAIL`` — "try again", i.e. resumable).
* ``repro resume <rundir>`` then completes the schedule and exits 0.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.io.snapshot import read_checkpoint
from repro.runtime import EXIT_RESUMABLE, RunConfig, read_telemetry
from repro.runtime.config import CheckpointConfig, GridConfig, ScheduleConfig
from repro.runtime.runner import CHECKPOINT_DIR, TELEMETRY_NAME, checkpoint_name

SRC = Path(__file__).resolve().parents[1] / "src"


def repro_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def write_config(tmp_path: Path, n_steps: int, step_delay: float) -> Path:
    cfg = RunConfig(
        scenario="plasma",
        name="sig-test",
        grid=GridConfig(nx=(16,), nu=(16,), box_size=12.0, v_max=6.0),
        schedule=ScheduleConfig(kind="time", dt=0.05, n_steps=n_steps),
        checkpoint=CheckpointConfig(keep_last=5),
        step_delay=step_delay,
    )
    return cfg.dump(tmp_path / "cfg.json")


def wait_for_lines(path: Path, n: int, timeout: float = 30.0) -> None:
    """Wait until the stream holds >= n *step* records.

    Event records (engine degradations, faults, ...) interleave with step
    records in the same JSONL file and don't advance the step count.
    """
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if path.exists():
            steps = sum(
                1
                for line in path.read_text().splitlines()
                if line.strip() and '"event"' not in line
            )
            if steps >= n:
                return
        time.sleep(0.02)
    raise TimeoutError(f"{path} never reached {n} telemetry step records")


@pytest.mark.smoke
def test_sigterm_drains_then_resume_completes(tmp_path):
    n_steps = 400  # far more than can run before the signal arrives
    cfg_path = write_config(tmp_path, n_steps, step_delay=0.02)
    run_dir = tmp_path / "run"

    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "run", str(cfg_path),
         "--run-dir", str(run_dir)],
        env=repro_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        wait_for_lines(run_dir / TELEMETRY_NAME, 2)
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()

    assert proc.returncode == EXIT_RESUMABLE  # 75, the resumable status

    manifest = json.loads((run_dir / "run.json").read_text())
    assert manifest["status"] == "interrupted"
    assert manifest["reason"] == "signal:SIGTERM"
    drained_step = manifest["last_step"]
    assert drained_step >= 2

    # the drain checkpoint is complete and loadable
    grid, f, particles, header = read_checkpoint(
        run_dir / CHECKPOINT_DIR / checkpoint_name(drained_step)
    )
    assert header["step"] == drained_step
    assert grid.nx == (16,)

    # telemetry has exactly one record per completed step, none beyond
    records = read_telemetry(run_dir / TELEMETRY_NAME)
    assert [r["step"] for r in records] == list(range(1, drained_step + 1))

    # resume (with the pacing delay removed so it finishes fast)
    manifest["config"]["step_delay"] = 0.0
    (run_dir / "run.json").write_text(json.dumps(manifest))
    short = RunConfig.from_dict(manifest["config"])
    short.schedule.n_steps = drained_step + 5
    manifest["config"] = short.as_dict()
    manifest["n_steps"] = short.schedule.n_steps
    (run_dir / "run.json").write_text(json.dumps(manifest))

    done = subprocess.run(
        [sys.executable, "-m", "repro", "resume", str(run_dir)],
        env=repro_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr

    manifest = json.loads((run_dir / "run.json").read_text())
    assert manifest["status"] == "complete"
    records = read_telemetry(run_dir / TELEMETRY_NAME)
    assert records[-1]["step"] == short.schedule.n_steps
    # no step was re-run: the stream is a single gapless sequence
    assert [r["step"] for r in records] == list(
        range(1, short.schedule.n_steps + 1)
    )


@pytest.mark.smoke
def test_cli_run_completes_and_reports_summary(tmp_path):
    cfg_path = write_config(tmp_path, n_steps=4, step_delay=0.0)
    run_dir = tmp_path / "run"
    done = subprocess.run(
        [sys.executable, "-m", "repro", "run", str(cfg_path),
         "--run-dir", str(run_dir)],
        env=repro_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "complete" in done.stdout
    manifest = json.loads((run_dir / "run.json").read_text())
    assert manifest["status"] == "complete"
    assert manifest["last_step"] == 4
