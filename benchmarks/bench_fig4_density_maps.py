"""Figure 4 — density maps: CDM vs neutrinos, M_nu = 0.4 vs 0.2 eV.

The figure's claims, quantified:

1. the neutrino distribution is much more diffuse than the CDM one
   (free streaming): contrast sigma(delta_nu) << sigma(delta_cdm);
2. the neutrino field still traces the CDM large-scale structure:
   positive cross-correlation;
3. the neutrino distribution depends on M_nu: the 0.4 eV (slower)
   neutrinos cluster more than the 0.2 eV ones.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.runtime import build_hybrid_simulation

from benchmarks.conftest import hybrid_run, record, run_mass_sweep, run_report


@pytest.fixture(scope="module")
def evolved_pair(tmp_path_factory):
    base = hybrid_run("fig4", 0.4, nx=8, nu=8, box=200.0, seed=2021, n_steps=6)
    return run_mass_sweep(base, (0.4, 0.2), tmp_path_factory.mktemp("fig4"))


def _contrast(rho: np.ndarray) -> float:
    return float((rho / rho.mean() - 1.0).std())


def test_fig4_report(benchmark, evolved_pair):
    """Regenerate Fig. 4's quantitative content."""
    def _report():
        sims = evolved_pair
        rows = []
        stats = {}
        for m_nu, sim in sims.items():
            rho_c = sim.cdm_density()
            rho_n = sim.neutrino_density()
            cc = np.corrcoef(rho_c.ravel(), rho_n.ravel())[0, 1]
            stats[m_nu] = {
                "cdm": _contrast(rho_c),
                "nu": _contrast(rho_n),
                "cross": cc,
            }
            rows.append(
                f"  M_nu = {m_nu:.1f} eV: sigma(delta_cdm) = {stats[m_nu]['cdm']:.3f}, "
                f"sigma(delta_nu) = {stats[m_nu]['nu']:.4f}, "
                f"cross-corr = {cc:.3f}"
            )
        lines = [
            "Fig. 4 analog (z=10 -> 0 hybrid runs, 8^3 x 8^3 grid, 200 Mpc/h):",
            *rows,
            "",
            "Paper claims reproduced:",
            f"  neutrinos diffuse vs CDM: "
            f"{stats[0.4]['nu'] / stats[0.4]['cdm']:.3f} contrast ratio (<< 1)",
            f"  neutrinos trace CDM: cross-corr {stats[0.4]['cross']:.2f} > 0",
            f"  mass dependence: sigma_nu(0.4 eV) / sigma_nu(0.2 eV) = "
            f"{stats[0.4]['nu'] / stats[0.2]['nu']:.2f} (> 1: heavier = slower = "
            "more clustered)",
        ]
        record("fig4_density_maps", "\n".join(lines))

        assert stats[0.4]["nu"] < 0.5 * stats[0.4]["cdm"]
        assert stats[0.4]["cross"] > 0.2
        assert stats[0.4]["nu"] > stats[0.2]["nu"]



    run_report(benchmark, _report)

def test_bench_hybrid_step(benchmark):
    """Cost of one full hybrid KDK step at the mini scale."""
    sim = build_hybrid_simulation(nx=8, nu=8, seed=2021)

    state = {"a": sim.a}

    def one_step():
        a_next = state["a"] * 1.02
        sim.step(a_next)
        state["a"] = a_next

    benchmark.pedantic(one_step, rounds=3, iterations=1)
