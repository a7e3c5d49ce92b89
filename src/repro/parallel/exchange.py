"""Ghost-cell exchange and the domain-decomposed Vlasov step.

Only the *spatial* advections communicate: the advected stencil reaches
into neighbor domains, so each rank receives ``ghost`` layers of f from
its two neighbors along the advected axis before advecting locally.  The
velocity advections and all velocity moments are rank-local by
construction (paper §5.1.3), and the tests assert the decomposed update
equals the single-domain one bit-for-bit.

Ghost width: the leftmost interior update reads the flux through the
interface just outside the block, whose donor lies ``floor(cfl_max)``
cells further out with its stencil around it — the kernel's
:func:`repro.core.advection.ghost_width`.  Decomposition therefore
bounds the usable CFL by the block width, the one restriction the
unconditionally stable SL scheme inherits in production (the paper
steps at spatial CFL ~ 1).
"""

from __future__ import annotations

import numpy as np

from ..core.advection import SCHEMES, advect, ghost_width
from .decomposition import DomainDecomposition
from .vmpi import VirtualComm


def exchange_ghosts(
    blocks: list[np.ndarray],
    decomp: DomainDecomposition,
    axis: int,
    ghost: int,
    comm: VirtualComm,
) -> list[np.ndarray]:
    """Pad every local block with neighbor data along one spatial axis.

    Returns new arrays extended by ``ghost`` layers on each side of
    ``axis`` (periodic global topology).  Two messages per rank are
    logged (one per direction), each of the exact production size.
    """
    if comm.size != decomp.size or len(blocks) != decomp.size:
        raise ValueError("communicator/blocks do not match the decomposition")
    if ghost < 1:
        raise ValueError("ghost must be >= 1")
    nl = decomp.local_shape[axis]
    if ghost > nl:
        raise ValueError(
            f"ghost width {ghost} exceeds local extent {nl}; "
            "use fewer ranks or a larger mesh"
        )

    # send the rightmost `ghost` layers rightward (they become the
    # receiver's left ghost), and vice versa
    take_hi = [slice(None)] * blocks[0].ndim
    take_hi[axis] = slice(nl - ghost, nl)
    take_lo = [slice(None)] * blocks[0].ndim
    take_lo[axis] = slice(0, ghost)

    to_right = comm.sendrecv(
        [blk[tuple(take_hi)] for blk in blocks],
        dest_of=lambda r: decomp.neighbor(r, axis, +1),
        tag=f"ghost+{axis}",
    )
    to_left = comm.sendrecv(
        [blk[tuple(take_lo)] for blk in blocks],
        dest_of=lambda r: decomp.neighbor(r, axis, -1),
        tag=f"ghost-{axis}",
    )
    out = []
    for r, blk in enumerate(blocks):
        out.append(np.concatenate([to_right[r], blk, to_left[r]], axis=axis))
    return out


def exchange_ghosts_full(
    blocks: list[np.ndarray],
    decomp: DomainDecomposition,
    ghost: int,
    comm: VirtualComm,
) -> list[np.ndarray]:
    """Pad every block with neighbor data along **all** spatial axes,
    corner and edge (diagonal-neighbor) ghosts included.

    :func:`exchange_ghosts` fills the face halos of a single axis and
    leaves the ``ghost x ghost`` corner regions of a multi-axis halo
    unfilled — fine for the dimensionally split sweeps (each sweep only
    reaches along its own axis), silently wrong for any 3-D stencil that
    reads diagonally (an unsplit stencil, a multi-axis limiter).  This
    performs the standard two-hop corner fill: exchange axis 0, then
    exchange the *padded* blocks along axis 1 (the slabs now carry the
    axis-0 ghosts, so corners arrive via the face neighbor), and so on —
    exactly how production halo exchanges avoid diagonal messages.  The
    logged messages therefore grow by the ghost layers of the already
    exchanged axes, which is the honest communication cost of a full
    halo.

    Returns new arrays extended by ``ghost`` layers on each side of every
    spatial axis (periodic global topology).
    """
    out = blocks
    for axis in range(decomp.dim):
        out = exchange_ghosts(out, decomp, axis, ghost, comm)
    return out


def decomposed_spatial_advect(
    blocks: list[np.ndarray],
    decomp: DomainDecomposition,
    shift,
    axis: int,
    scheme: str,
    comm: VirtualComm,
    cfl_max: float = 1.0,
) -> list[np.ndarray]:
    """One spatial advection of the decomposed distribution function.

    ``shift`` must be constant along all spatial axes (it varies only with
    the velocity coordinate for the Vlasov drift), so every rank uses the
    same array.  Each rank receives ``ghost_width(scheme, cfl_max)``
    planes per side, and the result equals the global
    :func:`repro.core.advect` bit for bit at any |shift| <= cfl_max.
    """
    sh = np.asarray(shift)
    if float(np.max(np.abs(sh))) > cfl_max + 1e-12:
        raise ValueError(
            f"shift exceeds cfl_max={cfl_max}; raise cfl_max (and ghost width)"
        )
    ghost = ghost_width(SCHEMES[scheme], cfl_max)
    padded = exchange_ghosts(blocks, decomp, axis, ghost, comm)
    out = []
    for blk in padded:
        adv = advect(blk, shift, axis, scheme=scheme, bc="periodic")
        take = [slice(None)] * adv.ndim
        take[axis] = slice(ghost, ghost + decomp.local_shape[axis])
        out.append(np.ascontiguousarray(adv[tuple(take)]))
    return out


def decomposed_velocity_advect(
    blocks: list[np.ndarray],
    decomp: DomainDecomposition,
    shifts_by_rank: list[np.ndarray],
    axis: int,
    scheme: str,
) -> list[np.ndarray]:
    """One velocity advection: purely local, zero communication.

    ``shifts_by_rank`` holds each rank's local acceleration-based shift
    (it varies over the local spatial block).  The absence of any
    communicator argument is the point.
    """
    if len(blocks) != decomp.size or len(shifts_by_rank) != decomp.size:
        raise ValueError("need one block and one shift array per rank")
    return [
        advect(blk, sh, axis, scheme=scheme, bc="zero")
        for blk, sh in zip(blocks, shifts_by_rank)
    ]
