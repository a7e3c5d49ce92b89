"""Uniform Cartesian phase-space grid (paper §5.1.1).

The six-dimensional phase-space domain is 0 <= x,y,z < L (periodic) times
-V <= u_x,u_y,u_z < V (truncated).  The distribution function is discretized
as cell averages on the ``(NX, NY, NZ, NUX, NUY, NUZ)`` array of the paper's
List 1 — spatial axes first, velocity axes last, C-order, so that the
velocity axes are contiguous in memory (the layout the paper's SIMD
strategy, and our NumPy vectorization, both exploit).

The class supports any spatial/velocity dimensionality pair (1D1V, 2D2V,
3D3V); the paper's production case is 3D3V, the lower-dimensional cases are
the standard validation problems of the Vlasov literature.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class PhaseSpaceGrid:
    """Geometry of the discretized phase space.

    Attributes
    ----------
    nx:
        Grid points per spatial axis, e.g. ``(32, 32, 32)``; length sets the
        spatial dimensionality.
    nu:
        Grid points per velocity axis; must have the same length as ``nx``.
    box_size:
        Comoving box size L per spatial axis (the domain is [0, L)).
    v_max:
        Velocity-space half-width V (the domain is [-V, V)).
    dtype:
        Storage dtype of the distribution function; the paper uses float32.
    """

    nx: tuple[int, ...]
    nu: tuple[int, ...]
    box_size: float
    v_max: float
    dtype: np.dtype = field(default=np.dtype(np.float32))

    def __post_init__(self) -> None:
        nx = tuple(int(n) for n in self.nx)
        nu = tuple(int(n) for n in self.nu)
        object.__setattr__(self, "nx", nx)
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "dtype", np.dtype(self.dtype))
        if len(nx) != len(nu):
            raise ValueError(f"spatial/velocity dims mismatch: {len(nx)} vs {len(nu)}")
        if not 1 <= len(nx) <= 3:
            raise ValueError("1 to 3 spatial dimensions supported")
        if any(n < 1 for n in nx) or any(n < 1 for n in nu):
            raise ValueError("all grid extents must be >= 1")
        if self.box_size <= 0.0 or self.v_max <= 0.0:
            raise ValueError("box_size and v_max must be positive")
        if self.dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            raise ValueError("dtype must be float32 or float64")

    # -- basic geometry -------------------------------------------------

    @property
    def dim(self) -> int:
        """Spatial (= velocity) dimensionality."""
        return len(self.nx)

    @property
    def shape(self) -> tuple[int, ...]:
        """Shape of the distribution-function array: nx + nu."""
        return self.nx + self.nu

    @property
    def n_cells(self) -> int:
        """Total number of phase-space cells ('grids' in the paper's count)."""
        return int(np.prod(self.shape, dtype=np.int64))

    # The derived geometry below is fixed for the grid's lifetime, so it
    # is computed on first read and kept (``cached_property`` stores it
    # in the instance ``__dict__``; ``__getstate__`` leaves it out, so
    # pickles, equality and hashing see the six fields alone).

    @cached_property
    def dx(self) -> tuple[float, ...]:
        """Spatial cell widths."""
        return tuple(self.box_size / n for n in self.nx)

    @cached_property
    def du(self) -> tuple[float, ...]:
        """Velocity cell widths."""
        return tuple(2.0 * self.v_max / n for n in self.nu)

    @cached_property
    def cell_volume_x(self) -> float:
        """Spatial cell volume."""
        return float(np.prod(self.dx))

    @cached_property
    def cell_volume_u(self) -> float:
        """Velocity cell volume."""
        return float(np.prod(self.du))

    @cached_property
    def cell_volume(self) -> float:
        """Phase-space cell volume."""
        return self.cell_volume_x * self.cell_volume_u

    def __getstate__(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def memory_bytes(self) -> int:
        """Bytes required to store one copy of f."""
        return self.n_cells * self.dtype.itemsize

    # -- coordinate arrays ----------------------------------------------

    def x_centers(self, axis: int) -> np.ndarray:
        """Cell-center coordinates along spatial axis ``axis``."""
        n = self.nx[axis]
        return (np.arange(n) + 0.5) * (self.box_size / n)

    def u_centers(self, axis: int) -> np.ndarray:
        """Cell-center coordinates along velocity axis ``axis``."""
        n = self.nu[axis]
        return -self.v_max + (np.arange(n) + 0.5) * (2.0 * self.v_max / n)

    def u_center_broadcast(self, axis: int) -> np.ndarray:
        """u_centers in the storage dtype, shaped to broadcast over the
        full f array (read-only, built once per grid).

        Velocity axis ``axis`` occupies array axis ``dim + axis``.
        """
        return self._u_broadcast[axis][0]

    def u_squared_broadcast(self, axis: int) -> np.ndarray:
        """The float64 square of :meth:`u_center_broadcast` — the
        kinetic-energy weights (read-only, built once per grid)."""
        return self._u_broadcast[axis][1]

    @cached_property
    def _u_broadcast(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        out = []
        for axis in range(self.dim):
            shape = [1] * (2 * self.dim)
            shape[self.dim + axis] = self.nu[axis]
            u = self.u_centers(axis).astype(self.dtype).reshape(shape)
            u2 = u.astype(np.float64) ** 2
            u.setflags(write=False)
            u2.setflags(write=False)
            out.append((u, u2))
        return tuple(out)

    def x_center_broadcast(self, axis: int) -> np.ndarray:
        """x_centers shaped to broadcast over the full f array."""
        x = self.x_centers(axis).astype(self.dtype)
        shape = [1] * (2 * self.dim)
        shape[axis] = self.nx[axis]
        return x.reshape(shape)

    def x_mesh(self) -> tuple[np.ndarray, ...]:
        """Spatial meshgrid (indexing='ij') of cell centers."""
        return tuple(
            np.meshgrid(*(self.x_centers(d) for d in range(self.dim)), indexing="ij")
        )

    def u_mesh(self) -> tuple[np.ndarray, ...]:
        """Velocity meshgrid (indexing='ij') of cell centers."""
        return tuple(
            np.meshgrid(*(self.u_centers(d) for d in range(self.dim)), indexing="ij")
        )

    # -- allocation -------------------------------------------------------

    def empty_f(self) -> np.ndarray:
        """Allocate an uninitialized distribution-function array."""
        return np.empty(self.shape, dtype=self.dtype)

    def zeros_f(self) -> np.ndarray:
        """Allocate a zero distribution-function array."""
        return np.zeros(self.shape, dtype=self.dtype)

    # -- axis bookkeeping -------------------------------------------------

    def spatial_axis(self, d: int) -> int:
        """Array axis index of spatial direction d."""
        if not 0 <= d < self.dim:
            raise ValueError(f"spatial direction {d} out of range")
        return d

    def velocity_axis(self, d: int) -> int:
        """Array axis index of velocity direction d."""
        if not 0 <= d < self.dim:
            raise ValueError(f"velocity direction {d} out of range")
        return self.dim + d

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PhaseSpaceGrid(nx={self.nx}, nu={self.nu}, "
            f"L={self.box_size:g}, V={self.v_max:g}, "
            f"cells={self.n_cells:,}, mem={self.memory_bytes()/2**20:.1f} MiB)"
        )
