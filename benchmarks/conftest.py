"""Shared helpers for the benchmark/reproduction harness.

Every module regenerates one table or figure of the paper; results print
to stdout (run with ``pytest benchmarks/ --benchmark-only -s`` to watch)
and accumulate in ``benchmarks/results/`` as text files so EXPERIMENTS.md
can reference a stable artifact.

The figure runs go through ``SimulationRunner``, as ``repro run`` does,
with their run directories under pytest's temporary directories.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from repro.campaign import Campaign, CampaignConfig
from repro.runtime import (EXIT_COMPLETE, SimulationRunner, build_stepper,
                           find_latest_valid_checkpoint)

RESULTS_DIR = Path(__file__).parent / "results"


def record(name: str, text: str) -> None:
    """Print a result block and persist it under benchmarks/results/.

    Under ``REPRO_BENCH_SMOKE=1`` the block is printed only: smoke-sized
    numbers never replace a recorded result.
    """
    banner = f"\n===== {name} =====\n"
    print(banner + text)
    if os.environ.get("REPRO_BENCH_SMOKE", "") == "1":
        return
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(2021)


def run_report(benchmark, fn) -> None:
    """Execute a report-generating function exactly once under the
    benchmark fixture, so reproduction reports run (and are timed) in
    ``--benchmark-only`` mode too."""
    benchmark.pedantic(fn, rounds=1, iterations=1)


def hybrid_run(name: str, m_nu: float, nx: int, nu: int, box: float,
               seed: int, n_steps: int) -> dict:
    """A figure run as a hybrid run config (plain-dict form): z = 10 -> 0
    on a log schedule, float32 f, no checkpoint cadence."""
    return {
        "scenario": "hybrid", "name": name,
        "grid": {"nx": [nx] * 3, "nu": [nu] * 3, "box_size": box,
                 "dtype": "float32"},
        "schedule": {"kind": "scale_factor", "n_steps": n_steps},
        "params": {"m_nu": m_nu, "seed": seed},
    }


def final_state(run_dir: Path):
    """The hybrid simulation at a run's newest checkpoint: restored into
    ``build_stepper(config)``, as ``repro resume`` does."""
    stepper = build_stepper(SimulationRunner.resume(run_dir).config)
    state = find_latest_valid_checkpoint(run_dir / "checkpoints")
    stepper.restore(state.f, state.particles, state.header)
    return stepper.sim


def run_mass_sweep(base: dict, masses, campaign_dir: Path) -> dict:
    """Run ``base`` at each mass as one in-process campaign, one run at a
    time; the final simulations by mass."""
    spec = CampaignConfig.from_dict({
        "name": base["name"], "base": base,
        "sweep": {"params.m_nu": list(masses)},
        "executor": "threads", "concurrency": 1,
    })
    campaign = Campaign.create(spec, campaign_dir)
    exit_code = campaign.run()
    assert exit_code == EXIT_COMPLETE
    return {point.overrides["params.m_nu"]:
            final_state(campaign.manifest.run_dir(point.run_id))
            for point in spec.points()}
