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

from dataclasses import dataclass
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


@dataclass
class TreePMSolver:
    """Full-force gravity for a particle set on a periodic box.

    Parameters
    ----------
    n_mesh:
        PM mesh points per axis.
    box_size:
        Periodic box size.
    g_newton:
        Gravitational constant (caller's units).
    eps:
        Plummer softening of the short-range force.
    r_split_cells:
        Splitting scale in PM-cell units (typical 1-1.5).
    theta:
        Tree opening angle.
    window:
        PM mass-assignment window.
    leaf_size:
        Tree bucket size.
    fft_backend:
        Optional :class:`repro.perf.fft.SpectralBackend` shared by the
        PM transforms (the Gaussian cut and deconvolution multiply into
        the one source spectrum, so each PM solve is a single forward
        FFT).
    """

    n_mesh: tuple[int, ...]
    box_size: float
    g_newton: float
    eps: float
    r_split_cells: float = 1.25
    theta: float = 0.5
    window: str = "tsc"
    leaf_size: int = 32
    fft_backend: "SpectralBackend | None" = None

    def __post_init__(self) -> None:
        self.n_mesh = tuple(int(n) for n in self.n_mesh)
        self.r_split = self.r_split_cells * self.box_size / self.n_mesh[0]
        self.r_cut = 4.5 * self.r_split
        # validity of the minimum-image tree walk (r_cut <= L/2) is
        # checked when the tree force is actually requested — PM-only
        # users (e.g. the hybrid driver on a coarse Vlasov mesh) are fine
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
        self.counter = InteractionCounter()

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

    def short_range(
        self, particles: ParticleSet, a: float = 1.0, kernel_dtype=np.float64
    ) -> np.ndarray:
        """The tree half of the split: erfc-cut pair forces per particle."""
        if self.r_cut > 0.5 * self.box_size:
            raise ValueError(
                "short-range cutoff exceeds half the box; enlarge the PM "
                "mesh (or use the PM-only path)"
            )
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
