"""Figure 5 — the local velocity distribution: smooth Vlasov f vs the
coarse particle sampling at one spatial cell.

The evolved Vlasov run yields a smooth, long-tailed velocity distribution
at every spatial cell; a matched N-body run (neutrino particles evolved
as test particles in the same mesh potential, i.e. exactly the same
gravity source) yields a sparse histogram in the same cell — the
discreteness the paper's Fig. 5 open circles show.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import local_velocity_distribution, particle_velocity_histogram
from repro.cosmology import RelicNeutrinoDistribution
from repro.ic import sample_neutrino_particles
from repro.nbody.pm import interpolate_mesh

from benchmarks.conftest import record, run_report
from benchmarks.workloads import build_hybrid
from repro.nbody.integrator import scale_factor_steps


@pytest.fixture(scope="module")
def matched_evolution():
    """Evolve the Vlasov neutrinos and a particle sampling side by side
    in the same gravitational field."""
    sim = build_hybrid(m_nu_ev=0.4, nx=8, nu=10, n_side_cdm=16, seed=7)
    cosmo = sim.cosmology
    fd = RelicNeutrinoDistribution(cosmo.m_nu_total_ev / 3.0, cosmo.units)
    rng = np.random.default_rng(7)
    nu_mass = cosmo.omega_nu * cosmo.units.rho_crit * sim.grid.box_size**3
    particles = sample_neutrino_particles(
        30_000, fd, sim.grid.box_size, nu_mass, rng
    )

    schedule = scale_factor_steps(sim.a, 1.0, 6)
    for a_next in schedule[1:]:
        a0 = sim.a
        am = 0.5 * (a0 + a_next)
        kick1 = cosmo.kick_factor(a0, am)
        drift = cosmo.drift_factor(a0, a_next)
        kick2 = cosmo.kick_factor(am, a_next)
        # particle kicks use the same mesh acceleration field
        acc_mesh = sim.mesh_acceleration(a0)
        acc_p = np.column_stack(
            [
                interpolate_mesh(acc_mesh[d], particles.positions, sim.grid.box_size)
                for d in range(3)
            ]
        )
        particles.kick(acc_p, kick1)
        sim.step(a_next)  # advances the hybrid with its own leapfrog
        particles.drift(drift)
        acc_mesh = sim.mesh_acceleration(a_next)
        acc_p = np.column_stack(
            [
                interpolate_mesh(acc_mesh[d], particles.positions, sim.grid.box_size)
                for d in range(3)
            ]
        )
        particles.kick(acc_p, kick2)
    sim.synchronize()  # the hybrid's pending half kick: f at z = 0
    return sim, particles


def test_fig5_report(benchmark, matched_evolution):
    """Regenerate Fig. 5: smooth curve vs sparse circles at one cell."""
    def _report():
        sim, particles = matched_evolution
        grid = sim.grid
        cell = (4, 4, 4)
        vd = local_velocity_distribution(sim.neutrinos.f, grid, cell)
        mass_p = particle_velocity_histogram(particles, grid, cell, vd["speed_bins"])

        centers = 0.5 * (vd["speed_bins"][1:] + vd["speed_bins"][:-1])
        f_v = vd["f_mean_per_bin"]
        occupied_v = int((f_v > 1e-10 * f_v.max()).sum())
        occupied_p = int((mass_p > 0).sum())
        n_in_cell = int(
            (mass_p > 0).sum() if particles.n == 0 else round(
                mass_p.sum() / particles.masses[0]
            )
        )

        lines = [
            "Fig. 5 analog: velocity distribution at one spatial cell (z=0)",
            f"  Vlasov f: {occupied_v}/{len(centers)} speed bins carry mass "
            "(continuous, long-tailed)",
            f"  N-body sampling: {n_in_cell} particles in the cell populate "
            f"{occupied_p}/{len(centers)} bins",
            "",
            "  speed/u0   f_Vlasov (normalized)   particle mass",
        ]
        from repro.cosmology import RelicNeutrinoDistribution

        fd = RelicNeutrinoDistribution(
            sim.cosmology.m_nu_total_ev / 3.0, sim.cosmology.units
        )
        fmax = f_v.max()
        for i in range(0, len(centers), 4):
            bar = "#" * int(30 * f_v[i] / fmax)
            lines.append(
                f"  {centers[i] / fd.u0:8.2f}   {f_v[i] / fmax:8.4f} {bar:<30} "
                f"{mass_p[i]:.3e}"
            )
        record("fig5_velocity_distribution", "\n".join(lines))

        # the Vlasov representation resolves at least as much of velocity
        # space as the sampling, and is far smoother bin-to-bin
        assert occupied_v >= occupied_p

        def roughness(y):
            good = y > 0
            if good.sum() < 5:
                return np.inf
            d = np.diff(np.log(y[good]))
            return np.abs(np.diff(d)).mean()

        with np.errstate(divide="ignore", invalid="ignore"):
            f_p = np.where(vd["bin_volume"] > 0, mass_p / vd["bin_volume"], 0.0)
        assert roughness(f_v) < 0.5 * roughness(f_p)
        # and the distribution remains positive and normalized
        assert sim.neutrinos.f.min() >= -1e-6 * sim.neutrinos.f.max()



    run_report(benchmark, _report)

def test_bench_local_velocity_distribution(benchmark, matched_evolution):
    sim, _ = matched_evolution
    benchmark(local_velocity_distribution, sim.neutrinos.f, sim.grid, (2, 2, 2))
