"""Particle-Mesh gravity: mass assignment, mesh solve, force interpolation.

The PM scheme computes the long-range gravitational force of the TreePM
split (paper §5.1.2): the CDM density (plus the neutrino density from the
Vlasov solver) is assigned to the PM mesh, the Poisson equation is solved
by FFT convolution [11], and the force is interpolated back to arbitrary
positions by differentiating the mesh potential.

Mass-assignment windows: NGP, CIC, TSC (orders 1-3).  The same window must
be used for interpolation back to the particles to keep the scheme
momentum-conserving (no self-force), which the tests verify.

The ``r_split`` option applies the Gaussian TreePM cut exp(-k^2 r_s^2) so
that PM carries only the long-range component; the complementary erfc
short-range force lives in :mod:`repro.nbody.phantom`/``tree``.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclasses_field
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from ..gravity.poisson import PeriodicPoissonSolver

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..diagnostics.timers import StepTimer
    from ..perf.fft import SpectralBackend

_WINDOWS = ("ngp", "cic", "tsc")


class WindowStencil(NamedTuple):
    """One position set's window on a periodic mesh, built once.

    ``idx`` / ``weights`` have shape (K, N): per point of the window
    support (K = 1, 2^dim or 3^dim) the wrapped flat mesh index and the
    weight of every particle.  :meth:`deposit` and :meth:`interpolate`
    both consume it, so a PM force evaluation that assigns the masses and
    then interpolates every force component back builds the window once.
    """

    idx: np.ndarray
    weights: np.ndarray
    n_mesh: tuple[int, ...]
    box_size: float

    def deposit(self, masses: np.ndarray) -> np.ndarray:
        """The *density* mesh (mass per mesh-cell volume) of ``masses``.

        One ``bincount`` adds the (point, particle) pairs in the order a
        per-point ``np.add.at`` pass would, so every cell sums its
        contributions in that order.
        """
        masses = np.asarray(masses, dtype=np.float64)
        flat = np.bincount(
            self.idx.ravel(), (masses * self.weights).ravel(),
            minlength=int(np.prod(self.n_mesh)),
        )
        cell_vol = (self.box_size / np.array(self.n_mesh)).prod()
        return flat.reshape(self.n_mesh) / cell_vol

    def interpolate(self, mesh: np.ndarray) -> np.ndarray:
        """``mesh`` at the positions, shape (N,); a stack of meshes,
        shape (k,) + n_mesh, gives (N, k)."""
        if mesh.shape[1:] == self.n_mesh:
            return np.stack([self.interpolate(m) for m in mesh], axis=1)
        if mesh.shape != self.n_mesh:
            raise ValueError(f"mesh shape {mesh.shape} != {self.n_mesh}")
        flat = mesh.reshape(-1)
        out = np.zeros(self.weights.shape[1], dtype=np.float64)
        for idx, w in zip(self.idx, self.weights):
            out += flat[idx] * w
        return out


def window_stencil(
    positions: np.ndarray,
    n_mesh: tuple[int, ...],
    box_size: float,
    window: str = "cic",
) -> WindowStencil:
    """The :class:`WindowStencil` of ``positions`` on a periodic mesh.

    Support points are ordered with axis 0 varying fastest; a point's
    weight is the product of its per-axis weights taken in axis order.
    """
    if window not in _WINDOWS:
        raise ValueError(f"window must be one of {_WINDOWS}")
    positions = np.asarray(positions, dtype=np.float64)
    n_mesh = tuple(int(n) for n in n_mesh)
    n, dim = positions.shape
    if len(n_mesh) != dim:
        raise ValueError("mesh dimensionality must match positions")
    scaled = positions / box_size * np.array(n_mesh)  # in cell units
    idx = np.zeros((1, n), dtype=np.int64)
    weights = np.ones((1, n))
    for d in range(dim):
        cells, w_d = _axis_window(scaled[:, d], window)
        stride = int(np.prod(n_mesh[d + 1 :]))
        k = len(cells) * len(idx)
        idx = (idx[None] + (cells % n_mesh[d] * stride)[:, None]).reshape(k, n)
        weights = (weights[None] * w_d[:, None]).reshape(k, n)
    return WindowStencil(idx, weights, n_mesh, float(box_size))


def _axis_window(x: np.ndarray, window: str) -> tuple[np.ndarray, np.ndarray]:
    """One axis of the window at cell-unit coordinates ``x``: the cells
    it touches (unwrapped) and their weights, each of shape (1|2|3, N)."""
    if window == "ngp":
        return np.floor(x).astype(np.int64)[None], np.ones((1, x.size))
    if window == "cic":
        lo = np.floor(x - 0.5).astype(np.int64)
        frac = x - 0.5 - lo  # in [0,1): weight of the hi cell
        return np.stack([lo, lo + 1]), np.stack([1.0 - frac, frac])
    # tsc: quadratic spline over 3 cells
    center = np.floor(x).astype(np.int64)
    dx = x - (center + 0.5)  # distance from the center-cell midpoint
    return (
        np.stack([center - 1, center, center + 1]),
        np.stack([0.5 * (0.5 - dx) ** 2, 0.75 - dx**2, 0.5 * (0.5 + dx) ** 2]),
    )


def assign_mass(
    positions: np.ndarray,
    masses: np.ndarray,
    n_mesh: tuple[int, ...],
    box_size: float,
    window: str = "cic",
) -> np.ndarray:
    """Deposit particle masses onto a periodic mesh.

    Returns the *density* mesh (mass per mesh-cell volume).
    """
    return window_stencil(positions, n_mesh, box_size, window).deposit(masses)


def interpolate_mesh(
    mesh: np.ndarray,
    positions: np.ndarray,
    box_size: float,
    window: str = "cic",
) -> np.ndarray:
    """Interpolate a mesh field to particle positions with the same window."""
    return window_stencil(positions, mesh.shape, box_size, window).interpolate(mesh)


def window_deconvolution(n_mesh, box_size, window: str) -> np.ndarray:
    """k-space |W(k)|^p correction for the assignment window (rfft layout).

    Dividing the density by W once compensates assignment; dividing the
    force by W again compensates interpolation (the usual PM practice).
    Returns the *single* window W(k); callers divide by W**2 when both
    corrections are wanted.
    """
    p = {"ngp": 1, "cic": 2, "tsc": 3}[window]
    dim = len(n_mesh)
    w = np.ones((), dtype=np.float64)
    for d, nd in enumerate(n_mesh):
        if d == dim - 1:
            k_frac = np.fft.rfftfreq(nd)  # k * dx / (2 pi)
        else:
            k_frac = np.fft.fftfreq(nd)
        arg = np.pi * k_frac
        wd = np.ones_like(arg)
        nz = arg != 0.0
        wd[nz] = (np.sin(arg[nz]) / arg[nz]) ** p
        shape = [1] * dim
        shape[d] = wd.size
        w = w * wd.reshape(shape)
    return w


@dataclass(frozen=True)
class PMSolver:
    """Particle-Mesh force solver on a periodic box.

    Parameters
    ----------
    n_mesh:
        PM mesh points per axis (the paper sizes it as
        N_PM = N_CDM / 3^3 for runtime balance, §5.1.2).
    box_size:
        Periodic box size.
    window:
        Mass-assignment/interpolation window.
    r_split:
        TreePM splitting scale; None disables the long-range Gaussian cut
        (plain PM).
    deconvolve:
        Apply the |W|^2 window deconvolution in k-space.  Off by default:
        dividing by W^2 amplifies the near-Nyquist modes (up to ~15x for
        TSC), which over-corrects the pair force unless something else
        suppresses high k.  With the finite-difference gradient the window
        and gradient attenuations approximately compensate (the pair force
        is Newton-exact to ~0.1% in the tests); enable deconvolution only
        together with the TreePM Gaussian cut, which kills the dangerous
        modes — that is what :class:`repro.nbody.treepm.TreePMSolver`
        does.
    fft_backend:
        Optional :class:`repro.perf.fft.SpectralBackend` for the mesh
        transforms; ``None`` uses the process-wide default.
    """

    n_mesh: tuple[int, ...]
    box_size: float
    window: str = "cic"
    r_split: float | None = None
    deconvolve: bool = False
    fft_backend: "SpectralBackend | None" = dataclasses_field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_mesh", tuple(int(n) for n in self.n_mesh))
        if self.window not in _WINDOWS:
            raise ValueError(f"window must be one of {_WINDOWS}")

    @cached_property
    def poisson(self) -> PeriodicPoissonSolver:
        """The underlying FFT Poisson solver."""
        return PeriodicPoissonSolver(
            self.n_mesh, self.box_size, backend=self.fft_backend
        )

    @cached_property
    def _kernel_extra(self) -> np.ndarray:
        """Long-range Gaussian cut and/or window deconvolution, k-space."""
        extra = np.ones((), dtype=np.float64)
        if self.r_split is not None:
            k2 = sum(k**2 for k in self.poisson._k_axes)
            extra = extra * np.exp(-k2 * self.r_split**2)
        if self.deconvolve:
            w = window_deconvolution(self.n_mesh, self.box_size, self.window)
            extra = extra / w**2
        return np.asarray(extra)

    # ------------------------------------------------------------------

    def stencil(self, positions) -> WindowStencil:
        """This mesh's assignment window for one position set."""
        return window_stencil(positions, self.n_mesh, self.box_size, self.window)

    def density(self, positions, masses) -> np.ndarray:
        """Assigned density mesh."""
        return self.stencil(positions).deposit(masses)

    def potential_mesh(self, source: np.ndarray) -> np.ndarray:
        """Solve laplacian(phi) = source with the PM extras applied.

        The Gaussian cut / deconvolution kernel multiplies straight into
        ``phi_k`` inside the shared solver — no second transform path.
        """
        return self.poisson.potential(source, kernel=self._kernel_extra)

    def fields_mesh(
        self, source: np.ndarray, method: str = "fd4"
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fused mesh solve: ``(phi, -grad phi)`` from one forward FFT."""
        return self.poisson.solve_fields(
            source, method=method, kernel=self._kernel_extra
        )

    def acceleration_mesh(
        self,
        source: np.ndarray,
        method: str = "fd4",
        timer: "StepTimer | None" = None,
    ) -> np.ndarray:
        """-grad(phi) on the mesh, shape (dim,) + n_mesh; with spectral
        gradients the inverse transform of phi itself is skipped.
        ``timer`` records the solve as ``fft`` / ``grad``."""
        return self.poisson.acceleration(
            source, method=method, kernel=self._kernel_extra, timer=timer
        )

    def accelerations(
        self,
        positions: np.ndarray,
        source: np.ndarray,
        method: str = "fd4",
    ) -> np.ndarray:
        """PM acceleration interpolated to the given positions.

        ``source`` is the Poisson source term (the caller multiplies the
        density contrast by 4 pi G / a, see
        :func:`repro.gravity.poisson.gravity_source`).
        """
        acc_mesh = self.acceleration_mesh(source, method)
        return self.stencil(positions).interpolate(acc_mesh)
