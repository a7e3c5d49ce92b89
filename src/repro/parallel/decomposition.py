"""Spatial domain decomposition (paper §5.1.3).

The physical space is decomposed into ``n_x x n_y x n_z`` blocks — one
per MPI process — while the velocity space is *never* decomposed: "each
spatial grid point holds an entire mesh grid for the velocity space so
that the calculation of the velocity moments ... can be performed
without any data transfer among MPI processes".

This module is pure geometry: rank <-> block mapping, local slices and
neighbor ranks (ghost widths come from the kernel,
:func:`repro.core.advection.ghost_width`).  The execution layer is
:class:`repro.parallel.domain.DomainEngine`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def pencil_slices(n: int, parts: int) -> list[slice]:
    """Balanced contiguous partition of an ``n``-cell axis into pencils.

    The first ``n % parts`` pencils get one extra cell.  ``parts`` is
    clipped to ``n`` so every pencil is non-empty.  This is one axis of
    :class:`BlockDecomposition` and the shard geometry of
    :class:`repro.perf.pencil.PencilEngine` (one pencil per worker along
    a non-advected axis).
    """
    if n < 1:
        raise ValueError("axis length must be >= 1")
    if parts < 1:
        raise ValueError("parts must be >= 1")
    parts = min(parts, n)
    base, extra = divmod(n, parts)
    out: list[slice] = []
    start = 0
    for p in range(parts):
        ln = base + (1 if p < extra else 0)
        out.append(slice(start, start + ln))
        start += ln
    return out


@dataclass(frozen=True)
class BlockDecomposition:
    """Block decomposition of a periodic mesh.

    Ranks map to process-grid coordinates in C order (z fastest), and
    each axis is split with :func:`pencil_slices`, so the first
    ``n % parts`` blocks along an axis carry one extra cell; on a mesh
    that divides evenly every block has the same shape (the paper's MPI
    layout).  This is the shard geometry of the real-transport
    :class:`repro.parallel.domain.DomainEngine`, which must accept
    production grid shapes that do not divide evenly across the worker
    topology.

    Attributes
    ----------
    n_mesh:
        Global spatial mesh points per axis.
    n_proc:
        Process-grid extents per axis, e.g. (24, 24, 12); the number of
        ranks is their product (Table 2's (n_x, n_y, n_z)).
    """

    n_mesh: tuple[int, ...]
    n_proc: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_mesh", tuple(int(n) for n in self.n_mesh))
        object.__setattr__(self, "n_proc", tuple(int(n) for n in self.n_proc))
        if len(self.n_mesh) != len(self.n_proc):
            raise ValueError("mesh and process grid dimensionality differ")
        for nm, npr in zip(self.n_mesh, self.n_proc):
            if npr < 1:
                raise ValueError("process counts must be >= 1")
            if npr > nm:
                raise ValueError(
                    f"process count {npr} exceeds mesh extent {nm} "
                    "(every block must own at least one cell)"
                )

    @property
    def dim(self) -> int:
        """Dimensionality."""
        return len(self.n_mesh)

    @property
    def size(self) -> int:
        """Total number of ranks."""
        return int(np.prod(self.n_proc))

    def axis_slices(self, axis: int) -> list[slice]:
        """The per-block slices along one axis (balanced, contiguous)."""
        return pencil_slices(self.n_mesh[axis], self.n_proc[axis])

    # -- rank <-> coordinates -------------------------------------------

    def coords_of(self, rank: int) -> tuple[int, ...]:
        """Process-grid coordinates of a rank (C order: z fastest)."""
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} out of range")
        coords = []
        rem = rank
        for npr in reversed(self.n_proc):
            coords.append(rem % npr)
            rem //= npr
        return tuple(reversed(coords))

    def rank_of(self, coords: tuple[int, ...]) -> int:
        """Rank of process-grid coordinates (periodic wrap applied)."""
        if len(coords) != self.dim:
            raise ValueError("coordinate dimensionality mismatch")
        rank = 0
        for c, npr in zip(coords, self.n_proc):
            rank = rank * npr + (c % npr)
        return rank

    def neighbor(self, rank: int, axis: int, direction: int) -> int:
        """Rank of the periodic neighbor along an axis (direction ±1)."""
        coords = list(self.coords_of(rank))
        coords[axis] += direction
        return self.rank_of(tuple(coords))

    # -- slices ------------------------------------------------------------

    def local_slice(self, rank: int) -> tuple[slice, ...]:
        """Global-array slice owned by a rank."""
        coords = self.coords_of(rank)
        return tuple(
            self.axis_slices(ax)[c] for ax, c in enumerate(coords)
        )

    def local_shape(self, rank: int) -> tuple[int, ...]:
        """Mesh points per axis of one rank's block (blocks may differ)."""
        return tuple(sl.stop - sl.start for sl in self.local_slice(rank))
