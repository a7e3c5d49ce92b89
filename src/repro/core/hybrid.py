"""The hybrid Vlasov + N-body simulation driver (paper §5.1.2).

Couples the two matter components through the common gravitational
potential:

* massive neutrinos — :class:`repro.core.vlasov.VlasovSolver` on the 6-D
  (or reduced) phase-space grid;
* cold dark matter — :class:`repro.nbody.treepm.TreePMSolver` particles;
* the PM source is the *sum* of the CDM density (mass-assigned) and the
  neutrino density (zeroth velocity moment of f) — "both of the CDM and
  neutrino components share the common gravitational potential".

One step advances both components through the same scale-factor interval
with the KDK structure: kick both (potential at a0), drift both, recompute
the potential from the *drifted* densities, kick both.

Each kick solves the common potential once (:meth:`HybridSimulation.
kick_fields`): one neutrino moment, one CDM window stencil for the
deposit and the interpolation, one PM solve; the Vlasov kick takes the
mesh field, the CDM kick the same field at the particles (plus the tree
term).  A timer records it as ``pm/{moments,deposit,fft,grad,interp}``,
``tree`` and ``cdm/{kick,drift}``: the paper's per-part split (Tables 3-4).

The Vlasov grid's spatial mesh doubles as the PM mesh so the densities
live on one grid.  (The paper decouples N_PM from N_x for load balance;
that distinction is a performance concern handled by the machine model in
:mod:`repro.machine`, not a physics one.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..cosmology.background import Cosmology
from ..cosmology.neutrino import RelicNeutrinoDistribution
from ..diagnostics.timers import section
from ..nbody.particles import ParticleSet
from ..nbody.treepm import TreePMSolver
from .mesh import PhaseSpaceGrid
from .vlasov import VlasovSolver

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..diagnostics.timers import StepTimer
    from .engine import SweepEngine


@dataclass
class HybridSimulation:
    """Self-consistent CDM (N-body) + neutrino (Vlasov) evolution.

    Parameters
    ----------
    grid:
        Phase-space geometry for the neutrinos; ``grid.nx`` is also the
        PM mesh.
    cdm:
        The CDM particle set (e.g. from
        :func:`repro.ic.zeldovich.zeldovich_particles`).
    cosmology:
        Background cosmology; supplies kick/drift integrals and G.
    a:
        Current scale factor (set to the IC starting value).
    scheme:
        Vlasov advection scheme.
    use_tree:
        Include the short-range tree force for the particles (TreePM);
        False runs PM-only (cheaper, adequate for smoke tests).
    engine, timer:
        Forwarded to the neutrino :class:`VlasovSolver`, exactly as the
        Vlasov-Poisson drivers do; the PM transforms run on the
        process-default spectral backend, and the timer also records the
        particle half of the step (see the module docstring).
    """

    grid: PhaseSpaceGrid
    cdm: ParticleSet
    cosmology: Cosmology
    a: float
    scheme: str = "slmpp5"
    use_tree: bool = True
    softening: float | None = None
    theta: float = 0.5
    r_split_cells: float = 1.25
    engine: "SweepEngine | None" = None
    timer: "StepTimer | None" = None
    step_count: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if abs(self.cdm.box_size - self.grid.box_size) > 1e-9 * self.grid.box_size:
            raise ValueError("CDM box and Vlasov box differ")
        if self.softening is None:
            # 1/30 of the mean interparticle spacing, a common N-body choice
            spacing = self.grid.box_size / max(round(self.cdm.n ** (1 / 3)), 1)
            self.softening = spacing / 30.0
        self.neutrinos = VlasovSolver(
            self.grid, scheme=self.scheme, engine=self.engine,
            timer=self.timer,
        )
        self.gravity = TreePMSolver(
            n_mesh=self.grid.nx,
            box_size=self.grid.box_size,
            g_newton=self.cosmology.units.G,
            eps=self.softening,
            theta=self.theta,
            r_split_cells=self.r_split_cells,
        )

    # ------------------------------------------------------------------
    # densities and forces
    # ------------------------------------------------------------------

    def neutrino_density(self) -> np.ndarray:
        """Comoving neutrino mass density on the mesh (velocity moment)."""
        return self.neutrinos.density()

    def cdm_density(self) -> np.ndarray:
        """Comoving CDM mass density on the mesh (mass assignment)."""
        return self.gravity.pm.density(self.cdm.positions, self.cdm.masses)

    def total_density(self) -> np.ndarray:
        """rho_CDM + rho_nu — the source of the common potential."""
        return self.cdm_density() + self.neutrino_density()

    def kick_fields(self, a: float) -> tuple[np.ndarray, np.ndarray]:
        """One solve of the common potential at ``a``: ``(acc_mesh,
        acc_particles)`` — the mesh field, shape (dim,) + nx, for the
        Vlasov kick and the full (PM + optional tree) acceleration for
        the CDM kick."""
        timer = self.timer
        with section(timer, "pm"):
            with section(timer, "moments"):
                rho_nu = self.neutrino_density()
            acc_mesh, acc = self.gravity.long_range(self.cdm, a, rho_nu, timer)
        if self.use_tree:
            with section(timer, "tree"):
                acc = acc + self.gravity.short_range(self.cdm, a)
        return acc_mesh, acc

    def mesh_acceleration(self, a: float) -> np.ndarray:
        """Long-range acceleration field on the mesh, shape (dim,) + nx
        (no interpolation, no tree)."""
        return self.gravity.mesh_acceleration_field(
            self.cdm, a=a, external_density=self.neutrino_density()
        )

    def particle_acceleration(self, a: float) -> np.ndarray:
        """Full (PM + optional tree) acceleration at the particles."""
        return self.kick_fields(a)[1]

    # ------------------------------------------------------------------
    # time stepping
    # ------------------------------------------------------------------

    def step(self, a_next: float) -> None:
        """Advance both components from the current a to a_next (KDK)."""
        if a_next <= self.a:
            raise ValueError("a_next must exceed the current scale factor")
        cosmo = self.cosmology
        a0, a1 = self.a, a_next
        am = 0.5 * (a0 + a1)
        kick1 = cosmo.kick_factor(a0, am)
        drift = cosmo.drift_factor(a0, a1)
        kick2 = cosmo.kick_factor(am, a1)

        # first kick: common potential at a0
        self._kick(a0, kick1)

        # drift both components
        self.neutrinos.drift(drift)
        with section(self.timer, "cdm/drift"):
            self.cdm.drift(drift)

        # second kick: recomputed potential at a1
        self._kick(a1, kick2)

        self.a = a_next
        self.step_count += 1

    def _kick(self, a: float, dt_kick: float) -> None:
        acc_mesh, acc = self.kick_fields(a)
        self.neutrinos.kick(acc_mesh, dt_kick)
        with section(self.timer, "cdm/kick"):
            self.cdm.kick(acc, dt_kick)

    def run(self, schedule: np.ndarray, observer=None) -> None:
        """Advance through a scale-factor schedule (first entry = current a).

        ``observer(sim)`` is called after every step when given.
        """
        schedule = np.asarray(schedule, dtype=np.float64)
        if abs(schedule[0] - self.a) > 1e-12:
            raise ValueError("schedule must start at the current scale factor")
        for a_next in schedule[1:]:
            self.step(float(a_next))
            if observer is not None:
                observer(self)

    # ------------------------------------------------------------------
    # convenience diagnostics
    # ------------------------------------------------------------------

    def neutrino_mass(self) -> float:
        """Total neutrino mass on the grid."""
        return self.neutrinos.total_mass()

    def redshift(self) -> float:
        """Current redshift."""
        return 1.0 / self.a - 1.0

    # ------------------------------------------------------------------
    # checkpoint / restart
    # ------------------------------------------------------------------

    def save_checkpoint(self, path, timer=None, extra=None):
        """Write the full state (f + particles + epoch) for bit-exact restart."""
        from ..io.snapshot import write_checkpoint

        return write_checkpoint(
            path, self.grid, self.neutrinos.f, self.cdm,
            a=self.a, step=self.step_count, extra=extra, timer=timer,
        )

    def load_checkpoint(self, path, timer=None) -> None:
        """Restore the state written by :meth:`save_checkpoint`."""
        from ..io.snapshot import read_checkpoint

        grid, f, particles, header = read_checkpoint(path, timer=timer)
        if grid != self.grid:
            raise ValueError("checkpoint grid does not match this simulation")
        if particles is None:
            raise ValueError("checkpoint carries no particles")
        self.neutrinos.f = f
        self.cdm = particles
        self.a = float(header["a"])
        self.step_count = int(header["step"])


def build_neutrino_component(
    grid: PhaseSpaceGrid,
    cosmo: Cosmology,
    delta_nu: np.ndarray | None = None,
    bulk_velocity: np.ndarray | None = None,
) -> np.ndarray:
    """Convenience: the initial neutrino f for a given cosmology.

    Uses the degenerate-mass approximation (each eigenstate carries
    M_nu / 3) and the comoving mean density Omega_nu * rho_crit.
    """
    from ..ic.neutrino_ic import neutrino_distribution_function

    fd = RelicNeutrinoDistribution(cosmo.m_nu_total_ev / 3.0, cosmo.units)
    mean_rho = cosmo.omega_nu * cosmo.units.rho_crit
    return neutrino_distribution_function(
        grid, fd, mean_rho, delta=delta_nu, bulk_velocity=bulk_velocity
    )
