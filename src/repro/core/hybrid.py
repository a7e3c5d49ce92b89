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
with the merged leapfrog of :mod:`repro.core.leapfrog`.  Step n's closing
half kick and step n+1's opening half kick use the same potential, the
one solved from the *drifted* densities at a_n, so they are one kick by
one integral:

    kick both by kick_factor(am_{n-1}, am_n) -> drift both over [a_n, a_{n+1}]

with am the interval midpoints.  Between steps both components owe the
half kick kick_factor(am, a): the driver keeps its start, ``kick_from``
(None: synchronous), because kick_factor(kick_from, am) is one integral
where a sum of two factors would change bits; checkpoints carry it as
``kick_from_a``.

Each kick solves the common potential once (:meth:`HybridSimulation.
kick_fields`): one neutrino moment, one CDM window stencil for the
deposit and the interpolation, one PM solve; the Vlasov kick takes the
mesh field, the CDM kick the same field at the particles (plus the tree
term).  The solve sits in the drivers' one field slot, keyed by the
engine's ``f_version`` and a, and is recomputed lazily after a restore;
a kick moves neither the density nor the particles, so the bits are the
same.  A timer records it as
``pm/{moments,deposit,fft,grad,interp}``, ``tree`` and
``cdm/{kick,drift}``: the paper's per-part split (Tables 3-4).

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
from ..nbody.treepm import R_SPLIT_CELLS, LongRangePM, TreePMSolver
from .leapfrog import Fields, LeapfrogDriver
from .mesh import PhaseSpaceGrid
from .vlasov import VlasovSolver

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..diagnostics.timers import StepTimer
    from .engine import SweepEngine


@dataclass
class HybridSimulation(LeapfrogDriver):
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
        Include the short-range tree force for the particles (TreePM,
        which needs ``grid.nx`` of at least
        :func:`~repro.nbody.treepm.min_tree_mesh`); False runs PM-only
        (:class:`~repro.nbody.treepm.LongRangePM`: cheaper, adequate for
        smoke tests).
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
    r_split_cells: float = R_SPLIT_CELLS
    engine: "SweepEngine | None" = None
    timer: "StepTimer | None" = None
    #: start of the owed kick interval [kick_from, a]; None: synchronous
    kick_from: float | None = field(default=None, init=False)
    OWED = ("kick_from", "kick_from_a")

    def __post_init__(self) -> None:
        if abs(self.cdm.box_size - self.grid.box_size) > 1e-9 * self.grid.box_size:
            raise ValueError("CDM box and Vlasov box differ")
        if self.softening is None:
            # 1/30 of the mean interparticle spacing, a common N-body choice
            spacing = self.grid.box_size / max(round(self.cdm.n ** (1 / 3)), 1)
            self.softening = spacing / 30.0
        self.solver = VlasovSolver(
            self.grid, scheme=self.scheme, engine=self.engine,
            timer=self.timer,
        )
        # PM-only runs take the long-range half alone: the tree refuses
        # meshes coarser than min_tree_mesh, which PM is fine on
        pm = dict(n_mesh=self.grid.nx, box_size=self.grid.box_size,
                  g_newton=self.cosmology.units.G,
                  r_split_cells=self.r_split_cells)
        self.gravity = (
            TreePMSolver(**pm, eps=self.softening, theta=self.theta)
            if self.use_tree else LongRangePM(**pm)
        )

    @property
    def neutrinos(self) -> VlasovSolver:
        """The neutrino component's Vlasov solver."""
        return self.solver

    @property
    def particles(self) -> ParticleSet:
        return self.cdm

    # ------------------------------------------------------------------
    # densities and forces
    # ------------------------------------------------------------------

    def neutrino_density(self) -> np.ndarray:
        """Comoving neutrino mass density on the mesh (velocity moment)."""
        return self.neutrinos.density()

    def cdm_density(self) -> np.ndarray:
        """Comoving CDM mass density on the mesh (mass assignment)."""
        return self.gravity.pm.density(self.cdm.positions, self.cdm.masses)

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

    def _solve(self, need_phi: bool) -> Fields:
        acc_mesh, acc = self.kick_fields(self.a)
        return Fields(accel=acc_mesh, particles=acc)

    def _kick_accel(self) -> tuple[np.ndarray, np.ndarray]:
        fields = self._fields()
        return fields.accel, fields.particles

    def _kick(self, factor: float) -> None:
        acc_mesh, acc = self._kick_accel()
        self.solver.kick(acc_mesh, factor)
        with section(self.timer, "cdm/kick"):
            self.cdm.kick(acc, factor)

    def _drift(self, factor: float) -> None:
        self.solver.drift(factor)
        with section(self.timer, "cdm/drift"):
            self.cdm.drift(factor)

    def _owed_factor(self) -> float:
        return self.cosmology.kick_factor(self.kick_from, self.a)

    def step(self, a_next: float) -> None:
        """Advance both components from the current a to a_next: one
        merged kick (the owed half plus the opening half, one integral),
        the drift, the closing half left owed."""
        if a_next <= self.a:
            raise ValueError("a_next must exceed the current scale factor")
        cosmo = self.cosmology
        a0, a1 = self.a, a_next
        am = 0.5 * (a0 + a1)
        self._advance(
            cosmo.kick_factor(a0 if self.kick_from is None else self.kick_from, am),
            cosmo.drift_factor(a0, a1), am)
        self.a = a_next

    # ------------------------------------------------------------------
    # the runner's view: clock, conserved mass, restart
    # ------------------------------------------------------------------

    def neutrino_mass(self) -> float:
        """Total neutrino mass on the grid."""
        return self.neutrinos.total_mass()

    def coordinate(self) -> dict[str, float]:
        return {"a": self.a}

    def conserved(self) -> dict[str, float]:
        return {"nu_mass": self.neutrino_mass()}

    def restore(self, f: np.ndarray, particles: ParticleSet | None,
                header: dict) -> None:
        if particles is None:
            raise ValueError("checkpoint carries no particles")
        self.cdm = particles
        super().restore(f, particles, header)


def build_neutrino_component(
    grid: PhaseSpaceGrid,
    cosmo: Cosmology,
    delta_nu: np.ndarray | None = None,
    bulk_velocity: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Convenience: the initial neutrino f for a given cosmology.

    Uses the degenerate-mass approximation (each eigenstate carries
    M_nu / 3) and the comoving mean density Omega_nu * rho_crit.  ``out``
    is the destination (a solver's f: call its ``notify_f_mutated()``
    after); a new array when omitted.
    """
    from ..ic.neutrino_ic import neutrino_distribution_function

    fd = RelicNeutrinoDistribution(cosmo.m_nu_total_ev / 3.0, cosmo.units)
    mean_rho = cosmo.omega_nu * cosmo.units.rho_crit
    return neutrino_distribution_function(
        grid, fd, mean_rho, delta=delta_nu, bulk_velocity=bulk_velocity,
        out=out,
    )
