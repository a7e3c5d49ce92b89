"""The TreePM gravity solver (paper §5.1.2, refs. [1, 6]).

Combines the PM long-range force (Gaussian k-space cut, exp(-k^2 r_s^2))
with the tree short-range force (erfc real-space complement) so their sum
is the full periodic Newtonian force — validated against the Ewald sum in
the tests.

Sizing conventions follow the paper:

* PM mesh  N_PM = N_CDM / 3^3  (``pm_mesh_for_particles``);
* splitting scale r_s a small multiple of the PM cell;
* short-range cutoff r_cut = 4.5 r_s.

The solver also accepts an *external density mesh* — the neutrino mass
density from the Vlasov solver — added to the PM source so that both
components feel the common potential ("the mass density field in Eq. (2)
is the sum of CDM and massive neutrinos").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..diagnostics.timers import section
from .particles import ParticleSet
from .phantom import InteractionCounter
from .pm import PMSolver, WindowStencil
from .tree import BarnesHutTree

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..diagnostics.timers import StepTimer
    from ..perf.fft import SpectralBackend


def pm_mesh_for_particles(n_cdm: int, dim: int = 3) -> int:
    """Per-axis PM mesh size for the paper's N_PM = N_CDM / 3^3 rule.

    ``n_cdm`` is the *total* particle count; returns mesh points per axis,
    rounded to the nearest integer of (n_cdm / 3^dim)^(1/dim) =
    n_side / 3.
    """
    if n_cdm < 1:
        raise ValueError("need at least one particle")
    n_side = n_cdm ** (1.0 / dim)
    return max(2, int(round(n_side / 3.0)))


#: The splitting scale r_s in PM cells (a small multiple of the cell).
R_SPLIT_CELLS = 1.25
#: The short-range cutoff in splitting scales: r_cut = 4.5 r_s.
CUTOFF_SPLITS = 4.5


def min_tree_mesh(r_split_cells: float = R_SPLIT_CELLS) -> int:
    """The coarsest PM mesh (points per axis) the tree walk accepts.

    The minimum-image walk needs r_cut = 4.5 · r_split_cells · L / n
    <= L / 2, i.e. n >= 9 · r_split_cells — 12 at the default 1.25,
    whatever the box.
    """
    return math.ceil(2.0 * CUTOFF_SPLITS * r_split_cells)


@dataclass
class LongRangePM:
    """The PM half of the TreePM split on its own: the Gaussian-cut mesh
    force (exp(-k^2 r_s^2), window deconvolved) of a particle set plus an
    external density mesh.  What a PM-only run uses; :class:`TreePMSolver`
    adds the tree's short-range complement.

    Parameters
    ----------
    n_mesh:
        PM mesh points per axis.
    box_size:
        Periodic box size.
    g_newton:
        Gravitational constant (caller's units).
    r_split_cells:
        Splitting scale in PM-cell units (typical 1-1.5).
    window:
        PM mass-assignment window.
    fft_backend:
        Optional :class:`repro.perf.fft.SpectralBackend` shared by the
        PM transforms (the Gaussian cut and deconvolution multiply into
        the one source spectrum, so each PM solve is a single forward
        FFT).
    """

    n_mesh: tuple[int, ...]
    box_size: float
    g_newton: float
    r_split_cells: float = R_SPLIT_CELLS
    window: str = "tsc"
    fft_backend: "SpectralBackend | None" = None

    def __post_init__(self) -> None:
        self.n_mesh = tuple(int(n) for n in self.n_mesh)
        self.r_split = self.r_split_cells * self.box_size / self.n_mesh[0]
        self.r_cut = CUTOFF_SPLITS * self.r_split
        self.pm = PMSolver(
            self.n_mesh,
            self.box_size,
            window=self.window,
            r_split=self.r_split,
            # safe here: the Gaussian cut suppresses the near-Nyquist
            # modes the W^2 division would otherwise amplify
            deconvolve=True,
            fft_backend=self.fft_backend,
        )

    # ------------------------------------------------------------------

    def pm_source(
        self,
        particles: ParticleSet,
        a: float = 1.0,
        external_density: np.ndarray | None = None,
        stencil: WindowStencil | None = None,
    ) -> np.ndarray:
        """Poisson source (4 pi G / a)(rho - mean) on the PM mesh;
        ``stencil`` is the particles' window when the caller has it."""
        if stencil is None:
            stencil = self.pm.stencil(particles.positions)
        rho = stencil.deposit(particles.masses)
        if external_density is not None:
            if external_density.shape != self.n_mesh:
                raise ValueError(
                    f"external density shape {external_density.shape} "
                    f"!= PM mesh {self.n_mesh}"
                )
            rho = rho + external_density
        return (4.0 * np.pi * self.g_newton / a) * (rho - rho.mean())

    def long_range(
        self,
        particles: ParticleSet,
        a: float = 1.0,
        external_density: np.ndarray | None = None,
        timer: "StepTimer | None" = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """The PM half of the split, once: ``(acc_mesh, acc_particles)``
        from one window stencil, deposit and solve; every component is
        interpolated over that stencil.  ``acc_mesh`` is what the hybrid's
        Vlasov kick consumes (smooth on the mesh scale: no short-range
        term).  ``timer`` records ``deposit``, ``fft``, ``grad``, ``interp``.
        """
        stencil, acc_mesh = self._mesh_field(particles, a, external_density, timer)
        with section(timer, "interp"):
            return acc_mesh, stencil.interpolate(acc_mesh)

    def _mesh_field(self, particles, a, external_density, timer):
        with section(timer, "deposit"):
            stencil = self.pm.stencil(particles.positions)
            source = self.pm_source(particles, a, external_density, stencil)
        return stencil, self.pm.acceleration_mesh(source, timer=timer)

    def mesh_acceleration_field(
        self,
        particles: ParticleSet,
        a: float = 1.0,
        external_density: np.ndarray | None = None,
    ) -> np.ndarray:
        """PM acceleration *field* on the mesh, shape (dim,) + n_mesh:
        :meth:`long_range` without the interpolation."""
        return self._mesh_field(particles, a, external_density, None)[1]

@dataclass
class TreePMSolver(LongRangePM):
    """Full-force gravity for a particle set on a periodic box: the
    long-range PM half plus the tree's erfc-cut short-range complement.

    Takes :class:`LongRangePM`'s parameters, and keyword-only:

    eps:
        Plummer softening of the short-range force.
    theta:
        Tree opening angle.
    leaf_size:
        Tree bucket size.

    A mesh coarser than :func:`min_tree_mesh` is refused here: its
    short-range cutoff would exceed half the box, where the
    minimum-image tree walk is invalid.  PM-only users take
    :class:`LongRangePM`.
    """

    eps: float = field(kw_only=True)
    theta: float = field(default=0.5, kw_only=True)
    leaf_size: int = field(default=32, kw_only=True)

    def __post_init__(self) -> None:
        super().__post_init__()
        n_min = min_tree_mesh(self.r_split_cells)
        if self.n_mesh[0] < n_min:
            raise ValueError(
                f"short-range cutoff exceeds half the box: r_cut = "
                f"{CUTOFF_SPLITS:g} x {self.r_split_cells:g} cells > "
                f"{self.n_mesh[0]}/2 cells; the tree needs a PM mesh of "
                f"at least {n_min} points per axis (or use LongRangePM, "
                "the PM-only half)"
            )
        self.counter = InteractionCounter()

    def short_range(
        self, particles: ParticleSet, a: float = 1.0, kernel_dtype=np.float64
    ) -> np.ndarray:
        """The tree half of the split: erfc-cut pair forces per particle."""
        tree = BarnesHutTree(particles, leaf_size=self.leaf_size, theta=self.theta)
        # the 4 pi G / a prefactor of the mesh source corresponds to a
        # plain G/a prefactor of the pairwise short-range force
        return tree.accelerations(
            self.g_newton / a,
            self.eps,
            r_split=self.r_split,
            r_cut=self.r_cut,
            counter=self.counter,
            kernel_dtype=kernel_dtype,
        )

    def accelerations(
        self,
        particles: ParticleSet,
        a: float = 1.0,
        external_density: np.ndarray | None = None,
        kernel_dtype=np.float64,
    ) -> np.ndarray:
        """Total (PM + tree) acceleration on every particle."""
        tree = self.short_range(particles, a, kernel_dtype)
        return self.long_range(particles, a, external_density)[1] + tree
