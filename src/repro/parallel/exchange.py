"""Ghost-plane exchange and the domain-decomposed drift, on the virtual
communicator.

Only the *spatial* advections communicate: the advected stencil reaches
into neighbor domains, so each rank receives ``ghost`` planes of f from
its two neighbors along the advected axis and the kernel lands them as
the block's ghost planes (``advect(halo=)``), exactly as the domain
workers of :mod:`repro.parallel.workers` do through shared memory.  The
velocity advections and all velocity moments are rank-local by
construction (paper §5.1.3), and the tests assert the decomposed update
equals the single-domain one bit-for-bit.

Ghost width: the leftmost interior update reads the flux through the
interface just outside the block, whose donor lies ``floor(max|shift|)``
cells further out with its stencil around it — the kernel's
:func:`repro.core.advection.ghost_width`.  Every block along the axis
must be at least that thick.
"""

from __future__ import annotations

import numpy as np

from ..core.advection import SCHEMES, advect, ghost_width
from .decomposition import BlockDecomposition
from .vmpi import VirtualComm


def exchange_ghosts(
    blocks: list[np.ndarray],
    decomp: BlockDecomposition,
    axis: int,
    ghost: int,
    comm: VirtualComm,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each rank's ``(left, right)`` ghost slabs along one spatial axis.

    ``left`` is the ``ghost`` highest planes of the left neighbor's
    block, ``right`` the ``ghost`` lowest planes of the right neighbor's
    (periodic global topology) — the ``halo`` :func:`advect` lands.  Two
    messages per rank are logged (one per direction), each of the exact
    production size.
    """
    if comm.size != decomp.size or len(blocks) != decomp.size:
        raise ValueError("communicator/blocks do not match the decomposition")
    if ghost < 1:
        raise ValueError("ghost must be >= 1")
    thin = min(blk.shape[axis] for blk in blocks)
    if ghost > thin:
        raise ValueError(
            f"ghost width {ghost} exceeds the thinnest local extent {thin} "
            f"along axis {axis}; use fewer ranks or a larger mesh"
        )

    def planes(blk: np.ndarray, lo: bool) -> np.ndarray:
        n = blk.shape[axis]
        take = [slice(None)] * blk.ndim
        take[axis] = slice(0, ghost) if lo else slice(n - ghost, n)
        return blk[tuple(take)]

    # the rightmost planes travel rightward (they become the receiver's
    # left ghost), and vice versa
    from_left = comm.sendrecv(
        [planes(blk, lo=False) for blk in blocks],
        dest_of=lambda r: decomp.neighbor(r, axis, +1),
        tag=f"ghost+{axis}",
    )
    from_right = comm.sendrecv(
        [planes(blk, lo=True) for blk in blocks],
        dest_of=lambda r: decomp.neighbor(r, axis, -1),
        tag=f"ghost-{axis}",
    )
    return list(zip(from_left, from_right))


def decomposed_spatial_advect(
    blocks: list[np.ndarray],
    decomp: BlockDecomposition,
    shift,
    axis: int,
    scheme: str,
    comm: VirtualComm,
) -> list[np.ndarray]:
    """One spatial advection of the decomposed distribution function.

    ``shift`` must be constant along all spatial axes (it varies only with
    the velocity coordinate for the Vlasov drift), so every rank uses the
    same array.  Each rank receives ``ghost_width(scheme, max|shift|)``
    planes per side and lands them as its halo, so the result equals the
    global :func:`repro.core.advect` bit for bit at any shift whose ghost
    fits the thinnest block (:func:`exchange_ghosts` refuses the rest).
    """
    ghost = ghost_width(SCHEMES[scheme], float(np.abs(shift).max()))
    halos = exchange_ghosts(blocks, decomp, axis, ghost, comm)
    return [
        advect(blk, shift, axis, scheme=scheme, halo=halo)
        for blk, halo in zip(blocks, halos)
    ]
