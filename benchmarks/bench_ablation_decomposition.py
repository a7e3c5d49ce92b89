"""Ablation — the paper's decomposition choice (§5.1.3): never decompose
the velocity space.

With the spatial-only decomposition, every velocity moment is a local
reduction (zero communication); the alternative — splitting the velocity
axes across ranks — would turn every density evaluation (two per step!)
into a global reduction of the full spatial mesh.  This bench counts the
bytes both strategies move per step under the virtual runtime, for a
Table 2-like configuration.
"""

from __future__ import annotations

import numpy as np

from repro.core import moments
from repro.core.advection import SCHEMES, advect, ghost_width
from repro.core.mesh import PhaseSpaceGrid
from repro.parallel import (
    DomainDecomposition,
    VirtualComm,
    decomposed_spatial_advect,
)

from benchmarks.conftest import record, run_report


def test_ablation_report(benchmark, rng):
    """Communication of one step: spatial-only vs velocity decomposition."""
    def _report():
        # 2D2V mini-problem, 4 ranks
        nx, nu = 16, 12
        f = rng.random((nx, nx, nu, nu)).astype(np.float32)
        grid = PhaseSpaceGrid(
            nx=(nx, nx), nu=(nu, nu), box_size=1.0, v_max=1.0, dtype=np.float32
        )

        # --- paper's strategy: decompose (x, y), velocity local ------------
        decomp = DomainDecomposition((nx, nx), (2, 2))
        comm = VirtualComm(4)
        blocks = decomp.scatter(f)
        u = np.linspace(-0.9, 0.9, nu).reshape(1, 1, nu, 1).astype(np.float32)
        blocks = decomposed_spatial_advect(blocks, decomp, u, 0, "slmpp5", comm)
        # moments: purely local — zero additional bytes
        for blk in blocks:
            blk.sum(axis=(2, 3))
        spatial_bytes = comm.log.total_p2p_bytes()

        # --- alternative: decompose (ux, uy) --------------------------------
        # spatial advection becomes local (no ghost along x), but every
        # density needs an allreduce of the full spatial mesh, and the kick
        # (advection along ux) needs velocity-axis ghost exchanges.
        comm2 = VirtualComm(4)
        vdecomp = DomainDecomposition((nu, nu), (2, 2))
        # per-rank partial densities -> allreduce of nx*nx float64
        partial = [rng.random((nx, nx)) for _ in range(4)]
        comm2.allreduce_sum(partial, tag="density")
        comm2.allreduce_sum(partial, tag="density-second-kick")
        ghost = ghost_width(SCHEMES["slmpp5"], 1.0)
        # ghost exchange along each decomposed velocity axis (kick stencils)
        v_blocks = [
            np.ascontiguousarray(
                np.moveaxis(f, (2, 3), (0, 1))[vdecomp.local_slice(r)]
            )
            for r in range(4)
        ]
        from repro.parallel import exchange_ghosts

        for axis in range(2):
            exchange_ghosts(v_blocks, vdecomp, axis, ghost, comm2)
        velocity_bytes = comm2.log.total_p2p_bytes()
        # allreduce bytes: log2(P) stages moving the mesh each time
        allreduce_bytes = sum(
            c.nbytes_per_rank * int(np.ceil(np.log2(c.participants)))
            for c in comm2.log.collectives
            if c.kind == "allreduce"
        ) * 4

        lines = [
            "Decomposition ablation (2D2V, 4 ranks, one step):",
            f"  spatial-only (paper): {spatial_bytes:,} bytes of ghost exchange;"
            " velocity moments need ZERO communication",
            f"  velocity-decomposed : {velocity_bytes:,} bytes of ghost exchange"
            f" + ~{allreduce_bytes:,} bytes of density allreduce per step",
            "",
            "  the spatial-only choice also keeps the moment reduction a"
            " single cache-friendly pass (repro.core.moments), which is the"
            " second half of the paper's argument.",
        ]
        record("ablation_decomposition", "\n".join(lines))

        assert velocity_bytes + allreduce_bytes > 0
        assert spatial_bytes > 0



    run_report(benchmark, _report)

def test_bench_local_moment_reduction(benchmark, rng):
    """The zero-communication moment path the design buys."""
    grid = PhaseSpaceGrid(
        nx=(12, 12), nu=(16, 16), box_size=1.0, v_max=1.0, dtype=np.float32
    )
    f = rng.random(grid.shape).astype(np.float32)
    benchmark(moments.density, f, grid)


def test_bench_ghost_exchange(benchmark, rng):
    """Per-step ghost-exchange cost under the virtual runtime."""
    f = rng.random((16, 16, 12, 12)).astype(np.float32)
    decomp = DomainDecomposition((16, 16), (2, 2))
    u = np.linspace(-0.9, 0.9, 12).reshape(1, 1, 12, 1).astype(np.float32)

    def run():
        comm = VirtualComm(4)
        decomposed_spatial_advect(decomp.scatter(f), decomp, u, 0, "slmpp5", comm)

    benchmark(run)
