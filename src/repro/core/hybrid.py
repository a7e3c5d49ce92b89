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
with the KDK structure of Eq. (5) in its merged (leapfrog) form.  Step
n's closing half kick and step n+1's opening half kick use the same
potential, the one solved from the *drifted* densities at a_n, so they
are one kick by one integral:

    kick both by kick_factor(am_{n-1}, am_n) -> drift both over [a_n, a_{n+1}]

with am the interval midpoints.  Between steps both components owe the
half kick kick_factor(am, a) (``kick_from`` holds am; None: synchronous);
:meth:`HybridSimulation.synchronize` applies it, and checkpoints carry it.

Each kick solves the common potential once (:meth:`HybridSimulation.
kick_fields`): one neutrino moment, one CDM window stencil for the
deposit and the interpolation, one PM solve; the Vlasov kick takes the
mesh field, the CDM kick the same field at the particles (plus the tree
term).  The last solve is kept, keyed like the Vlasov-Poisson drivers'
slot by the engine's ``f_version`` and a, and recomputed lazily after a
restore; a kick moves neither the density nor the particles, so the
bits are the same.  A timer records it as
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
    step_count: int = field(default=0, init=False)
    #: start of the owed kick interval [kick_from, a]; None: synchronous
    kick_from: float | None = field(default=None, init=False)
    _fields: tuple = field(default=(None, None), init=False, repr=False)

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
        # PM-only runs take the long-range half alone: the tree refuses
        # meshes coarser than min_tree_mesh, which PM is fine on
        pm = dict(n_mesh=self.grid.nx, box_size=self.grid.box_size,
                  g_newton=self.cosmology.units.G,
                  r_split_cells=self.r_split_cells)
        self.gravity = (
            TreePMSolver(**pm, eps=self.softening, theta=self.theta)
            if self.use_tree else LongRangePM(**pm)
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

    def _current_fields(self) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`kick_fields` at the current state, solved once."""
        key = (self.neutrinos.engine.f_version, self.a)
        if self._fields[0] != key:
            self._fields = (key, self.kick_fields(self.a))
        return self._fields[1]

    def _kick(self, factor: float) -> None:
        acc_mesh, acc = self._current_fields()
        self.neutrinos.kick(acc_mesh, factor)
        with section(self.timer, "cdm/kick"):
            self.cdm.kick(acc, factor)

    def step(self, a_next: float) -> None:
        """Advance both components from the current a to a_next: one
        merged kick (the pending half plus the opening half, one
        integral), the drift, the closing half left pending."""
        if a_next <= self.a:
            raise ValueError("a_next must exceed the current scale factor")
        cosmo = self.cosmology
        a0, a1 = self.a, a_next
        am = 0.5 * (a0 + a1)
        self._kick(cosmo.kick_factor(
            a0 if self.kick_from is None else self.kick_from, am))
        drift = cosmo.drift_factor(a0, a1)
        self.neutrinos.drift(drift)
        with section(self.timer, "cdm/drift"):
            self.cdm.drift(drift)
        self.kick_from = am
        self.a = a_next
        self.step_count += 1

    def synchronize(self) -> None:
        """Apply the pending half kick kick_factor(kick_from, a) to both
        components in place.  A no-op when nothing is pending."""
        if self.kick_from is not None:
            self._kick(self.cosmology.kick_factor(self.kick_from, self.a))
            self.kick_from = None

    def pending_velocity(self) -> tuple[np.ndarray | None, np.ndarray | None]:
        """``(mesh, particles)``: the velocity shifts the pending kick
        applies to the neutrinos' mesh and to the CDM particles; both
        None when synchronous."""
        if self.kick_from is None:
            return None, None
        factor = self.cosmology.kick_factor(self.kick_from, self.a)
        acc_mesh, acc = self._current_fields()
        return factor * acc_mesh, factor * acc

    def run(self, schedule: np.ndarray, observer=None) -> None:
        """Advance through a scale-factor schedule (first entry = current a).

        ``observer(sim)`` is called after every step when given (on the
        carried state); the schedule ends synchronized.
        """
        schedule = np.asarray(schedule, dtype=np.float64)
        if abs(schedule[0] - self.a) > 1e-12:
            raise ValueError("schedule must start at the current scale factor")
        for a_next in schedule[1:]:
            self.step(float(a_next))
            if observer is not None:
                observer(self)
        self.synchronize()

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

        extra = dict(extra or {})
        if self.kick_from is not None:
            extra["kick_from_a"] = self.kick_from
        return write_checkpoint(
            path, self.grid, self.neutrinos.f, self.cdm,
            a=self.a, step=self.step_count, extra=extra, timer=timer,
        )

    def restore(self, f: np.ndarray, particles: ParticleSet | None,
                header: dict) -> None:
        """Adopt a checkpoint's state; a header without ``kick_from_a``
        (written synchronous) owes no kick."""
        if particles is None:
            raise ValueError("checkpoint carries no particles")
        self.neutrinos.f = f
        self.cdm = particles
        self.a = float(header["a"])
        self.step_count = int(header["step"])
        self.kick_from = header.get("extra", {}).get("kick_from_a")


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
