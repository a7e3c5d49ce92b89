"""Ablation — the paper's central algorithmic trade (§5.2):

SL-MPP5 reaches 5th-order + MP + positivity with ONE flux evaluation per
step and no CFL limit; the conventional MP5+RK3 needs THREE flux
evaluations per step and sub-cycling at CFL <~ 0.2 for monotonicity.
This bench measures both costs for the same physical advection distance
and verifies the answers agree on smooth data.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.advection import advect
from repro.core.schemes import MP5_RK3_MAX_CFL, Mp5Rk3Advector

from benchmarks.conftest import record, run_report


@pytest.fixture(scope="module")
def smooth_field():
    n = 128
    x = (np.arange(n) + 0.5) / n
    f1d = 2.0 + np.sin(2 * np.pi * x) + 0.5 * np.cos(6 * np.pi * x)
    return np.tile(f1d, (64, 1))


def test_ablation_report(benchmark, smooth_field):
    """Cost to advect by 1.0 cell: single-stage SL vs sub-cycled RK3."""
    def _report():
        f = smooth_field
        total_shift = 1.0

        t0 = time.perf_counter()
        out_sl = advect(f, total_shift, 1, scheme="slmpp5")
        t_sl = time.perf_counter() - t0

        adv = Mp5Rk3Advector()
        t0 = time.perf_counter()
        out_rk = adv.advance(f, total_shift, 1)
        t_rk = time.perf_counter() - t0

        n_sub = int(np.ceil(total_shift / MP5_RK3_MAX_CFL))
        agree = float(np.abs(out_sl - out_rk).max() / np.abs(f).max())

        lines = [
            "Scheme-cost ablation: advect the same field by 1.0 cell",
            f"  SL-MPP5 (single stage, any CFL): 1 flux evaluation, {t_sl * 1e3:8.1f} ms",
            f"  MP5+RK3 (CFL<= {MP5_RK3_MAX_CFL}): {adv.flux_evaluations} flux "
            f"evaluations ({n_sub} sub-steps x 3 stages), {t_rk * 1e3:8.1f} ms",
            f"  flux-evaluation ratio: {adv.flux_evaluations}x "
            "(paper: 'reduces the computational cost drastically')",
            f"  wall-clock ratio on this machine: {t_rk / t_sl:.1f}x",
            f"  max relative disagreement on smooth data: {agree:.2e}",
        ]
        record("ablation_scheme_cost", "\n".join(lines))

        assert adv.flux_evaluations == 3 * n_sub
        assert t_rk > 2.0 * t_sl
        assert agree < 1e-3



    run_report(benchmark, _report)

def test_bench_slmpp5_step(benchmark, smooth_field):
    benchmark(advect, smooth_field, 1.0, 1, "slmpp5")


def test_bench_mp5rk3_equivalent(benchmark, smooth_field):
    def run():
        Mp5Rk3Advector().advance(smooth_field, 1.0, 1)

    benchmark(run)


def test_bench_limiter_overhead(benchmark, smooth_field):
    """MP+positivity limiting vs the unlimited linear flux."""
    benchmark(advect, smooth_field, 0.37, 1, "slp5")

