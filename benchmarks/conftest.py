"""Shared helpers for the benchmark/reproduction harness.

Every module regenerates one table or figure of the paper; results print
to stdout (run with ``pytest benchmarks/ --benchmark-only -s`` to watch)
and accumulate in ``benchmarks/results/`` as text files so EXPERIMENTS.md
can reference a stable artifact.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

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
