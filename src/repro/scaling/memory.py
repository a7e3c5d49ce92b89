"""Memory-budget audit of the Table 2 runs.

The Vlasov method's defining constraint (paper §5.2): "the large amount
of memory required to configure mesh grids not only in the physical space
but also in the velocity space".  Each A64FX node carries 32 GB of HBM2;
the distribution function (float32), its ghost layers, flux buffers, the
PM slabs and the particles must all fit.  This module itemizes the
per-node footprint for any run configuration — and shows the largest runs
genuinely push against Fugaku's memory, as the paper says.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..machine import a64fx
from ..core.advection import SCHEMES, ghost_width
from .runs import RunConfig

#: Bytes per N-body particle: position + velocity (float64) + mass/ids.
PARTICLE_STATE_BYTES = 56

#: Extra working fraction of f the advection engine holds concurrently.
#: The production kernel updates pencil-by-pencil in place, needing only
#: a flux sliver per pencil batch — not a full copy.  This models the
#: paper's engine.  Measured here (``tests/test_one_f.py``, tracemalloc
#: over the IC build and two steps): the serial and pencil engines sweep
#: their one f in place, 0.20 f beyond f on a 16³×12³ float32
#: gravitational run (arena, field, moments); 1.31 f on a hybrid at
#: nx 8³, nu 16³, where one x slab of float64 IC temporaries and the
#: block-sized arena are large against an 8 MiB f.  The domain engine
#: keeps two f-sized shared segments per block beside the host f,
#: because neighbours read a block's planes while it sweeps.
F_WORKING_COPIES = 0.5

#: Ghost exchanges are streamed in chunks (the full 6-D ghost shell of
#: the largest runs would rival f itself); this caps the resident ghost
#: buffer per process and direction.
GHOST_BUFFER_CAP = 1 * 2**30


@dataclass(frozen=True)
class MemoryBudget:
    """Per-node memory footprint of one run [bytes]."""

    f_bytes: int
    ghost_bytes: int
    working_bytes: int
    particle_bytes: int
    pm_bytes: int

    @property
    def total(self) -> int:
        """Everything."""
        return (
            self.f_bytes
            + self.ghost_bytes
            + self.working_bytes
            + self.particle_bytes
            + self.pm_bytes
        )

    @property
    def node_capacity(self) -> int:
        """32 GB of HBM2 per node."""
        return a64fx.MEMORY_PER_CMG * a64fx.CMGS_PER_NODE

    @property
    def utilization(self) -> float:
        """Fraction of node memory used."""
        return self.total / self.node_capacity


def node_memory_budget(run: RunConfig, scheme: str = "slmpp5") -> MemoryBudget:
    """Itemized per-node memory for a Table 2 configuration."""
    procs = run.procs_per_node
    nu3 = run.nu**3
    lx, ly, lz = run.local_nx

    f_bytes = run.local_cells * 4 * procs

    # one axis is exchanged at a time; both faces double-buffered, with
    # chunked streaming capping the resident buffer
    ghost = ghost_width(SCHEMES[scheme], 1.0)
    max_face = max(ly * lz, lx * lz, lx * ly)
    per_dir = min(ghost * max_face * nu3 * 4, GHOST_BUFFER_CAP)
    ghost_bytes = 2 * 2 * per_dir * procs  # 2 faces x double buffer

    working_bytes = int(F_WORKING_COPIES * run.local_cells * 4) * procs

    particle_bytes = int(run.local_particles * PARTICLE_STATE_BYTES) * procs

    pm_local = run.n_pm_side**3 / run.n_procs
    pm_bytes = int(pm_local * 8 * 4) * procs  # density + 3 force comps, f64

    return MemoryBudget(
        f_bytes=f_bytes,
        ghost_bytes=ghost_bytes,
        working_bytes=working_bytes,
        particle_bytes=particle_bytes,
        pm_bytes=pm_bytes,
    )


def memory_report(runs) -> str:
    """Text table of per-node memory across configurations."""
    lines = [
        f"{'run':>7} {'f':>8} {'ghost':>8} {'work':>8} {'parts':>8} "
        f"{'pm':>8} {'total':>8} {'of 32GB':>8}"
    ]
    gib = float(2**30)
    for run in runs:
        b = node_memory_budget(run)
        lines.append(
            f"{run.run_id:>7} {b.f_bytes / gib:>7.2f}G {b.ghost_bytes / gib:>7.2f}G "
            f"{b.working_bytes / gib:>7.2f}G {b.particle_bytes / gib:>7.2f}G "
            f"{b.pm_bytes / gib:>7.2f}G {b.total / gib:>7.2f}G "
            f"{b.utilization * 100:>7.1f}%"
        )
    return "\n".join(lines)


def global_f_bytes(run: RunConfig) -> int:
    """Total storage of the distribution function across the system —
    the headline number (U1024: 4e14 cells x 4 B = 1.6 PB)."""
    return run.phase_space_cells * 4
