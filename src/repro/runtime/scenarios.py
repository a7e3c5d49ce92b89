"""Scenario builders: from a :class:`RunConfig` to a steppable driver.

The library has three closed-loop drivers with three different clocks
(:class:`~repro.core.vlasov_poisson.PlasmaVlasovPoisson` in plasma time,
:class:`~repro.core.vlasov_poisson.GravitationalVlasovPoisson` in proper
time, :class:`~repro.core.hybrid.HybridSimulation` in scale factor).
This module wraps each behind the uniform :class:`Stepper` interface the
runner drives: advance one schedule slot, expose conserved quantities
and the current coordinate, checkpoint, restore.  Restores are
**bit-exact**: a stepper rebuilt from the same config and fed a
checkpoint reproduces the uninterrupted run's ``f`` (and particles)
exactly, which is the runtime subsystem's headline guarantee.

The drivers step in the merged leapfrog form, so between steps f owes a
half kick (:mod:`repro.core.vlasov_poisson`).  A checkpoint stores that
state as it is, with the pending kick in its header's ``extra``
(``pending_kick``, or the hybrid's ``kick_from_a``); a header without
the key is synchronous, which is how :meth:`Stepper.synchronize` leaves
the runner's sync points (the step cadence's multiples and the
schedule's end) and how checkpoints written before the merge read.

Initial conditions are part of the scenario (a run must be resumable
from its config file alone, so ICs cannot live in an ad-hoc script):

* ``plasma`` — Maxwellian with a cosine density perturbation; params
  ``amplitude`` (default 0.01) and ``mode`` (default 1), i.e. the
  Landau-damping / two-stream family.
* ``gravitational`` — static self-gravity (frozen expansion): Gaussian
  velocity profile of width ``sigma_v`` around mean density ``rho0``
  with a cosine perturbation; params ``g_newton``, ``amplitude``,
  ``mode``, ``sigma_v``, ``rho0``.
* ``hybrid`` — the paper's headline workload: Planck cosmology with
  massive neutrinos, one Gaussian realization, Zel'dovich CDM particles,
  a free-streaming-suppressed neutrino f; params ``m_nu`` (total mass
  [eV], default 0.4), ``seed``, ``use_tree``, ``v_max_quantile``
  (Fermi-Dirac cutoff that *derives* ``v_max``; the grid config's
  ``v_max`` is ignored for this scenario).

Every scenario, the hybrid one included, is driven by
:class:`~repro.runtime.runner.SimulationRunner`
(``examples/cosmic_neutrinos.py`` builds a hybrid :class:`RunConfig`
and runs it through the runner).
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from ..core.engine import SweepEngine
from ..core.mesh import PhaseSpaceGrid
from ..core.vlasov_poisson import GravitationalVlasovPoisson, PlasmaVlasovPoisson
from ..io.snapshot import write_checkpoint
from .config import RunConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.hybrid import HybridSimulation

__all__ = [
    "Stepper",
    "PlasmaStepper",
    "GravitationalStepper",
    "HybridStepper",
    "build_engine",
    "build_stepper",
    "build_hybrid_simulation",
]


def _make_grid(config: RunConfig) -> PhaseSpaceGrid:
    g = config.grid
    return PhaseSpaceGrid(
        nx=g.nx, nu=g.nu, box_size=g.box_size, v_max=g.v_max,
        dtype=np.dtype(g.dtype),
    )


def _maxwellian(grid: PhaseSpaceGrid, sigma: float = 1.0) -> np.ndarray:
    """Product Gaussian over the velocity axes, broadcastable to grid.shape."""
    out = np.ones((1,) * grid.dim + grid.nu, dtype=np.float64)
    norm = 1.0 / (sigma * np.sqrt(2.0 * np.pi))
    for axis in range(grid.dim):
        u = grid.u_centers(axis)
        shape = [1] * (2 * grid.dim)
        shape[grid.dim + axis] = grid.nu[axis]
        out = out * (norm * np.exp(-(u**2) / (2.0 * sigma**2))).reshape(shape)
    return out


def _cosine_perturbation(
    grid: PhaseSpaceGrid, amplitude: float, mode: int
) -> np.ndarray:
    """1 + A cos(k x) along the first spatial axis, broadcastable to
    grid.shape."""
    k = 2.0 * np.pi * mode / grid.box_size
    x = grid.x_centers(0)
    shape = [1] * (2 * grid.dim)
    shape[0] = grid.nx[0]
    return (1.0 + amplitude * np.cos(k * x)).reshape(shape)


# ----------------------------------------------------------------------
# the Stepper interface
# ----------------------------------------------------------------------


class Stepper:
    """Uniform stepping interface over the three drivers.

    State contract: ``index`` counts completed schedule slots; a stepper
    with ``index == n_steps`` is done.  ``save``/``restore`` round-trip
    the *entire* mutable state bit-exactly (f, particles, clock, index).
    """

    scenario: str = ""
    coord_key: str = "t"
    n_steps: int = 0
    index: int = 0
    grid: PhaseSpaceGrid

    def advance(self) -> float:
        """Execute one step; returns the step size (dt or da)."""
        raise NotImplementedError

    def coordinate(self) -> dict[str, float]:
        """The driver's clock, e.g. ``{"t": 1.2}`` or ``{"a": 0.5}``."""
        raise NotImplementedError

    def conserved(self) -> dict[str, float]:
        """Conserved quantities for the ledger/guards (read on the
        carried f: the pending half kick is not applied)."""
        raise NotImplementedError

    def synchronize(self) -> None:
        """Apply the pending half kick in place (a sync point)."""
        raise NotImplementedError

    def pending_velocity(self) -> tuple:
        """``(mesh, particles)`` velocity shifts of the pending half
        kick, for the diagnostics' velocity moment; None when none."""
        raise NotImplementedError

    @property
    def solver(self):
        """The stepper's own :class:`~repro.core.vlasov.VlasovSolver`."""
        raise NotImplementedError

    @property
    def f(self) -> np.ndarray:
        """The distribution function (for guards and restores)."""
        return self.solver.f

    @property
    def particles(self):
        """The particle component, or None."""
        return None

    def f_stats(self) -> tuple[int, float]:
        """(non-finite cell count, min of f) — the guards' health probe,
        answered by the solver's engine without materializing f when f
        lives in workers (exact under aggregation, so guard decisions
        are engine-independent)."""
        return self.solver.f_stats()

    def notify_f_mutated(self) -> None:
        """Tell the solver :attr:`f` was mutated *in place* (fault
        injection) so engines holding f elsewhere re-sync it."""
        self.solver.notify_f_mutated()

    def save(self, path: str | Path, timer=None) -> Path:
        """Write a restart checkpoint at the current state."""
        raise NotImplementedError

    def restore(self, f: np.ndarray, particles, header: dict) -> None:
        """Adopt a checkpoint's state (inverse of :meth:`save`)."""
        raise NotImplementedError

    def rescale_dt(self, factor: float) -> bool:
        """Multiply the step size by ``factor`` (rollback recovery).

        Returns whether the stepper honored it; schedules that are a
        fixed coordinate ladder (the hybrid scale-factor schedule)
        cannot rescale and return False.
        """
        return False

    def _extra(self) -> dict:
        return {"scenario": self.scenario, "schedule_index": self.index}


class _VlasovPoissonStepper(Stepper):
    """What the two Vlasov-Poisson scenarios share: a ``driver`` owning
    the solver, a time coordinate, and a rescalable fixed ``dt``."""

    coord_key = "t"

    def coordinate(self) -> dict[str, float]:
        return {"t": self.driver.time}

    def conserved(self) -> dict[str, float]:
        return {
            "mass": self.driver.solver.total_mass(),
            "energy": self.driver.total_energy(),
        }

    @property
    def solver(self):
        return self.driver.solver

    def synchronize(self) -> None:
        self.driver.synchronize()

    def pending_velocity(self) -> tuple:
        return self.driver.pending_velocity(), None

    def rescale_dt(self, factor: float) -> bool:
        self.dt *= float(factor)
        return True

    def _extra(self) -> dict:
        extra = super()._extra()
        if self.driver.pending_kick:
            extra["pending_kick"] = self.driver.pending_kick
        return extra

    def _restore_pending(self, header: dict) -> None:
        self.driver.pending_kick = float(
            header.get("extra", {}).get("pending_kick", 0.0))


class PlasmaStepper(_VlasovPoissonStepper):
    """Electrostatic plasma driver on a fixed-dt schedule."""

    scenario = "plasma"

    def __init__(self, config: RunConfig, timer=None, engine=None) -> None:
        self.grid = _make_grid(config)
        self.driver = PlasmaVlasovPoisson(
            self.grid, scheme=config.scheme, timer=timer, engine=engine,
        )
        p = config.params
        np.multiply(_maxwellian(self.grid), _cosine_perturbation(
            self.grid, float(p.get("amplitude", 0.01)), int(p.get("mode", 1))
        ), out=self.f, casting="unsafe")
        self.notify_f_mutated()
        self.dt = config.schedule.dt
        self.n_steps = config.schedule.n_steps
        self.index = 0

    def advance(self) -> float:
        self.driver.step(self.dt)
        self.index += 1
        return self.dt

    def save(self, path: str | Path, timer=None) -> Path:
        return write_checkpoint(
            path, self.grid, self.driver.f, None,
            a=1.0, step=self.index, sim_time=self.driver.time,
            extra=self._extra(), timer=timer,
        )

    def restore(self, f: np.ndarray, particles, header: dict) -> None:
        self.driver.f = f
        self.driver.time = float(header["time"])
        self._restore_pending(header)
        self.index = int(header["step"])


class GravitationalStepper(_VlasovPoissonStepper):
    """Static self-gravitating matter on a fixed-dt schedule."""

    scenario = "gravitational"

    def __init__(self, config: RunConfig, timer=None, engine=None) -> None:
        self.grid = _make_grid(config)
        p = config.params
        self.driver = GravitationalVlasovPoisson(
            self.grid,
            g_newton=float(p.get("g_newton", 1.0)),
            scheme=config.scheme,
            timer=timer,
            engine=engine,
        )
        sigma = float(p.get("sigma_v", 1.0))
        rho0 = float(p.get("rho0", 1.0))
        np.multiply(
            rho0 * _maxwellian(self.grid, sigma=sigma),
            _cosine_perturbation(
                self.grid, float(p.get("amplitude", 0.01)), int(p.get("mode", 1))
            ),
            out=self.f, casting="unsafe",
        )
        self.notify_f_mutated()
        self.dt = config.schedule.dt
        self.n_steps = config.schedule.n_steps
        self.index = 0

    def advance(self) -> float:
        self.driver.step_static(self.dt)
        self.index += 1
        return self.dt

    def save(self, path: str | Path, timer=None) -> Path:
        return write_checkpoint(
            path, self.grid, self.driver.f, None,
            a=self.driver.a, step=self.index, sim_time=self.driver.time,
            extra=self._extra(), timer=timer,
        )

    def restore(self, f: np.ndarray, particles, header: dict) -> None:
        self.driver.f = f
        self.driver.time = float(header["time"])
        self.driver.a = float(header["a"])
        self._restore_pending(header)
        self.index = int(header["step"])


class HybridStepper(Stepper):
    """Hybrid Vlasov + N-body driver on a scale-factor ladder."""

    scenario = "hybrid"
    coord_key = "a"

    def __init__(self, config: RunConfig, timer=None, engine=None) -> None:
        # the hybrid stack (TreePM, particles, cosmology ICs) is imported
        # by the runs that use it, not with the runtime
        from ..nbody.integrator import scale_factor_steps

        s = config.schedule
        p = config.params
        g = config.grid
        if not (len(g.nx) == 3 and len(set(g.nx)) == 1 and len(set(g.nu)) == 1):
            raise ValueError("hybrid runs need cubic 3-D nx and nu")
        self.sim = build_hybrid_simulation(
            nx=g.nx[0],
            nu=g.nu[0],
            box_size=g.box_size,
            m_nu=float(p.get("m_nu", 0.4)),
            seed=int(p.get("seed", 42)),
            a_start=s.a_start,
            use_tree=bool(p.get("use_tree", False)),
            scheme=config.scheme,
            dtype=g.dtype,
            v_max_quantile=float(p.get("v_max_quantile", 0.997)),
            engine=engine,
            timer=timer,
        )
        self.grid = self.sim.grid
        self.schedule = scale_factor_steps(s.a_start, s.a_end, s.n_steps, s.spacing)
        self.n_steps = s.n_steps

    @property
    def index(self) -> int:
        return self.sim.step_count

    @index.setter
    def index(self, value: int) -> None:
        self.sim.step_count = int(value)

    def advance(self) -> float:
        a_prev = self.sim.a
        self.sim.step(float(self.schedule[self.index + 1]))
        return self.sim.a - a_prev

    def coordinate(self) -> dict[str, float]:
        return {"a": self.sim.a}

    def conserved(self) -> dict[str, float]:
        return {"nu_mass": self.sim.neutrino_mass()}

    def synchronize(self) -> None:
        self.sim.synchronize()

    def pending_velocity(self) -> tuple:
        return self.sim.pending_velocity()

    @property
    def solver(self):
        return self.sim.neutrinos

    @property
    def particles(self):
        return self.sim.cdm

    def save(self, path: str | Path, timer=None) -> Path:
        return self.sim.save_checkpoint(path, timer=timer, extra=self._extra())

    def restore(self, f: np.ndarray, particles, header: dict) -> None:
        self.sim.restore(f, particles, header)


_STEPPERS = {
    "plasma": PlasmaStepper,
    "gravitational": GravitationalStepper,
    "hybrid": HybridStepper,
}


def build_stepper(config: RunConfig, timer=None, engine=None) -> Stepper:
    """Instantiate the stepper for a validated config."""
    try:
        cls = _STEPPERS[config.scenario]
    except KeyError:
        raise ValueError(f"unknown scenario {config.scenario!r}") from None
    return cls(config, timer=timer, engine=engine)


def build_engine(config: RunConfig):
    """Build the configured engine (see :mod:`repro.core.engine`).

    ``engine.engine = "domain"`` yields a
    :class:`~repro.parallel.domain.DomainEngine` (persistent
    shared-memory domain workers); the default ``"pencil"`` yields a
    :class:`~repro.perf.pencil.PencilEngine`, or for
    ``engine.backend = "off"`` the serial
    :class:`~repro.core.engine.SweepEngine` they both extend.  The
    caller owns the engine's lifetime (``close()`` — the runner does
    this in its ``finally``).
    """
    e = config.engine
    if e.engine == "domain":
        from ..parallel.domain import DomainEngine

        return DomainEngine(
            topology=tuple(int(p) for p in e.topology) if e.topology else None,
            n_workers=e.n_workers,
            max_retries=e.max_retries,
            backoff_base=e.backoff_base,
            task_timeout=e.task_timeout,
        )
    if e.backend == "off":
        return SweepEngine()
    from ..perf.pencil import PencilEngine

    return PencilEngine(n_workers=e.n_workers)


# ----------------------------------------------------------------------
# the hybrid workload, fully initialized
# ----------------------------------------------------------------------


def build_hybrid_simulation(
    nx: int,
    nu: int,
    box_size: float = 200.0,
    m_nu: float = 0.4,
    seed: int = 42,
    a_start: float = 1.0 / 11.0,
    use_tree: bool = False,
    scheme: str = "slmpp5",
    dtype: str = "float32",
    v_max_quantile: float = 0.997,
    engine=None,
    timer=None,
) -> "HybridSimulation":
    """The paper's headline workload, fully initialized and deterministic.

    Planck cosmology with total neutrino mass ``m_nu`` [eV]; one Gaussian
    realization (``seed``); Zel'dovich CDM particles (2 per mesh
    cell/axis); free-streaming-suppressed neutrino distribution function
    with the matching linear bulk flow.  The same (nx, nu, box_size,
    m_nu, seed, a_start) always yields bit-identical initial state,
    which is what makes config-only resume possible.
    ``engine``/``timer`` go to the simulation's Vlasov solver.
    """
    from ..core.hybrid import HybridSimulation, build_neutrino_component
    from ..cosmology import (
        Cosmology,
        LinearPower,
        RelicNeutrinoDistribution,
        growth_factor,
        growth_suppression_factor,
    )
    from ..ic import (
        FourierGrid,
        filter_field_fourier,
        gaussian_field_fourier,
        linear_velocity_field,
        zeldovich_particles,
    )

    cosmo = Cosmology(m_nu_total_ev=m_nu)
    fd = RelicNeutrinoDistribution(m_nu / 3.0, cosmo.units)
    grid = PhaseSpaceGrid(
        nx=(nx,) * 3, nu=(nu,) * 3, box_size=box_size,
        v_max=fd.velocity_cutoff(v_max_quantile), dtype=np.dtype(dtype),
    )

    rng = np.random.default_rng(seed)
    fgrid = FourierGrid((nx,) * 3, box_size)
    power = LinearPower(cosmo)
    dk = gaussian_field_fourier(fgrid, lambda k: power(k), rng)

    cdm_mass = (cosmo.omega_cdm + cosmo.omega_b) * cosmo.units.rho_crit * box_size**3
    cdm = zeldovich_particles(dk, fgrid, cosmo, a_start, 2 * nx, cdm_mass)

    d0 = float(growth_factor(cosmo, a_start))
    dk_nu = filter_field_fourier(
        dk, fgrid,
        lambda k: np.sqrt(np.clip(growth_suppression_factor(cosmo, k), 0, None)),
    )
    delta_nu = d0 * np.fft.irfftn(dk_nu, s=fgrid.n_mesh, axes=range(3))
    bulk = linear_velocity_field(dk_nu, fgrid, cosmo, a_start)

    sim = HybridSimulation(
        grid, cdm, cosmo, a=a_start, scheme=scheme, use_tree=use_tree,
        engine=engine, timer=timer,
    )
    build_neutrino_component(
        grid, cosmo, delta_nu=delta_nu, bulk_velocity=bulk, out=sim.neutrinos.f
    )
    sim.neutrinos.notify_f_mutated()
    return sim
