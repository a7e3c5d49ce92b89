"""Ablation — the paper's decomposition choice (§5.1.3): never decompose
the velocity space.

With the spatial-only decomposition, every velocity moment is a local
reduction (zero communication); the alternative — splitting the velocity
axes across ranks — would turn every density evaluation (one per step)
into a global reduction of the full spatial mesh.  This bench counts the
bytes both strategies move per step for a Table 2-like configuration:
the spatial-only count is what one real :class:`DomainEngine` step
lands, held to the closed form of its ghost planes; the alternative is
the same closed form on velocity blocks plus the density allreduces.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core import moments
from repro.core.advection import SCHEMES, ghost_width
from repro.core.mesh import PhaseSpaceGrid
from repro.core.vlasov_poisson import PlasmaVlasovPoisson
from repro.parallel import DomainEngine

from benchmarks.conftest import record, run_report


def halo_bytes(n_mesh, n_proc, trailing, ghost, itemsize):
    """Bytes of ghost planes one sweep along every partitioned axis of
    ``n_mesh`` lands: per axis ``d``, ``ghost`` planes per side of
    ``n_proc[d]`` whole cross-sections, each carrying ``trailing`` cells
    (uneven blocks too — their faces still sum to the cross-section)."""
    cells = math.prod(n_mesh)
    return sum(2 * ghost * p * (cells // n) * trailing * itemsize
               for n, p in zip(n_mesh, n_proc) if p > 1)


def test_ablation_report(benchmark, rng):
    """Communication of one step: spatial-only vs velocity decomposition."""
    def _report():
        # 2D2V mini-problem, 4 ranks
        nx, nu, ranks = 16, 12, 4
        grid = PhaseSpaceGrid(
            nx=(nx, nx), nu=(nu, nu), box_size=1.0, v_max=1.0, dtype=np.float32
        )
        itemsize = grid.dtype.itemsize

        # --- paper's strategy: decompose (x, y), velocity local ------------
        # one leapfrog step drifts once along x and once along y, at
        # CFL 0.9: the slmpp5 drift lands ghost_width(slmpp5, 0.9) = 3
        # planes per side; moments are block-local, zero more bytes
        max_u = float(np.abs(grid.u_centers(0)).max())
        engine = DomainEngine(topology=(2, 2))
        try:
            vp = PlasmaVlasovPoisson(grid, engine=engine)
            vp.f = rng.random(grid.shape).astype(np.float32)
            vp.step(0.9 * grid.dx[0] / max_u)
            spatial_bytes = engine.halo_bytes
        finally:
            engine.close()
        assert spatial_bytes == halo_bytes(
            grid.nx, (2, 2), nu * nu, ghost_width(SCHEMES["slmpp5"], 0.9), itemsize
        )

        # --- alternative: decompose (ux, uy) --------------------------------
        # spatial advection becomes local (no ghost along x), but the kick
        # along each velocity axis lands velocity-axis ghosts, and every
        # density needs an allreduce of the full spatial mesh
        velocity_bytes = halo_bytes(
            grid.nu, (2, 2), nx * nx, ghost_width(SCHEMES["slmpp5"], 1.0), itemsize
        )
        # one float64 density allreduce (a step evaluates the density
        # once), log2(P) stages moving the mesh, on every rank
        allreduce_bytes = (nx * nx * 8) * math.ceil(math.log2(ranks)) * ranks

        lines = [
            "Decomposition ablation (2D2V, 4 ranks, one step):",
            f"  spatial-only (paper): {spatial_bytes:,} bytes of ghost exchange"
            " (one real DomainEngine step: a drift along x and along y);"
            " velocity moments need ZERO communication",
            f"  velocity-decomposed : {velocity_bytes:,} bytes of ghost exchange"
            f" + ~{allreduce_bytes:,} bytes of density allreduce per step"
            " (closed form: a kick along ux and along uy)",
            "",
            "  the spatial-only choice also keeps the moment reduction a"
            " single cache-friendly pass (repro.core.moments), which is the"
            " second half of the paper's argument.",
        ]
        record("ablation_decomposition", "\n".join(lines))

        assert velocity_bytes + allreduce_bytes > spatial_bytes > 0

    run_report(benchmark, _report)


def test_bench_local_moment_reduction(benchmark, rng):
    """The zero-communication moment path the design buys."""
    grid = PhaseSpaceGrid(
        nx=(12, 12), nu=(16, 16), box_size=1.0, v_max=1.0, dtype=np.float32
    )
    f = rng.random(grid.shape).astype(np.float32)
    benchmark(moments.density, f, grid)
