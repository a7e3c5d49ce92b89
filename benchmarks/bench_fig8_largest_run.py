"""Figure 8 — density maps of the largest run (U1024 analog).

Runs the largest hybrid configuration this repository affords (the
laptop-scale stand-in for the 400-trillion-cell U1024; DESIGN.md
substitution table), and reports the large-scale structure statistics
the figure displays: filamentary CDM, diffuse neutrinos tracing it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.runtime import EXIT_COMPLETE, RunConfig, SimulationRunner

from benchmarks.conftest import final_state, hybrid_run, record, run_report


@pytest.fixture(scope="module")
def largest_run(tmp_path_factory):
    config = RunConfig.from_dict(hybrid_run(
        "fig8", 0.4, nx=12, nu=8, box=1200.0, seed=1024, n_steps=6))
    run_dir = tmp_path_factory.mktemp("fig8")
    exit_code = SimulationRunner.create(config, run_dir).run()
    assert exit_code == EXIT_COMPLETE
    return final_state(run_dir)


def test_fig8_report(benchmark, largest_run):
    """Regenerate Fig. 8's content: the z=0 maps of the biggest run."""
    def _report():
        sim = largest_run
        rho_c = sim.cdm_density()
        rho_n = sim.neutrino_density()
        dc = rho_c / rho_c.mean() - 1
        dn = rho_n / rho_n.mean() - 1

        # projected (surface-density) maps, as the figure shows
        proj_c = dc.mean(axis=2)
        proj_n = dn.mean(axis=2)
        cc = np.corrcoef(proj_c.ravel(), proj_n.ravel())[0, 1]

        def ascii_map(field, title):
            glyphs = " .:-=+*#%@"
            lo, hi = field.min(), field.max()
            rows = [title]
            for row in field:
                idx = ((row - lo) / max(hi - lo, 1e-30) * (len(glyphs) - 1)).astype(int)
                rows.append("  " + "".join(glyphs[i] for i in idx))
            return rows

        lines = [
            "Fig. 8 analog: largest affordable hybrid run "
            f"(grid {sim.grid.nx} x {sim.grid.nu}, box {sim.grid.box_size:.0f} Mpc/h, "
            f"z=10 -> 0, {sim.cdm.n} CDM particles)",
            "",
            f"  CDM contrast sigma      : {dc.std():.3f}  (max overdensity {dc.max():.2f})",
            f"  neutrino contrast sigma : {dn.std():.4f}  (max {dn.max():.3f})",
            f"  projected cross-corr    : {cc:.3f}",
            f"  neutrino mass conserved : "
            f"{sim.neutrino_mass() / (sim.cosmology.omega_nu * sim.cosmology.units.rho_crit * sim.grid.box_size**3):.4f}"
            " of expected (0.997 velocity-space coverage)",
            "",
            *ascii_map(proj_c, "  projected CDM density contrast:"),
            "",
            *ascii_map(proj_n, "  projected neutrino density contrast:"),
        ]
        record("fig8_largest_run", "\n".join(lines))

        assert dn.std() < dc.std()
        assert cc > 0.2
        assert sim.neutrinos.f.min() >= -1e-6 * sim.neutrinos.f.max()



    run_report(benchmark, _report)

def test_bench_moment_extraction(benchmark, largest_run):
    """Velocity-moment cost on the largest grid (the per-step density)."""
    sim = largest_run
    benchmark(sim.neutrino_density)
