"""Scenario builders: from a :class:`RunConfig` to a steppable driver.

The library has three closed-loop drivers with three different clocks
(:class:`~repro.core.vlasov_poisson.PlasmaVlasovPoisson` in plasma time,
:class:`~repro.core.vlasov_poisson.GravitationalVlasovPoisson` in proper
time, :class:`~repro.core.hybrid.HybridSimulation` in scale factor), all
on one protocol, :class:`~repro.core.leapfrog.LeapfrogDriver`: the
merged-leapfrog step, the owed half kick, conserved quantities and the
checkpoint pair.  :func:`build_stepper` constructs the scenario's driver
with its initial conditions and puts it on its schedule in a
:class:`Stepper`, which the runner drives: advance one schedule slot,
rescale dt, and the driver's protocol for the rest.  Restores are
**bit-exact**: a stepper rebuilt from the same config and fed a
checkpoint reproduces the uninterrupted run's ``f`` (and particles)
exactly, which is the runtime subsystem's headline guarantee.

Between steps f owes a half kick (:mod:`repro.core.leapfrog`).  A
checkpoint stores that state as it is, with the owed kick in its
header's ``extra`` (``pending_kick``, or the hybrid's ``kick_from_a``);
a header without the key is synchronous, which is how
:meth:`Stepper.synchronize` leaves the runner's sync points (the step
cadence's multiples and the schedule's end) and how checkpoints written
before the merge read.

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
from .config import RunConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.hybrid import HybridSimulation
    from ..core.leapfrog import LeapfrogDriver

__all__ = [
    "Stepper",
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
# the Stepper
# ----------------------------------------------------------------------


class Stepper:
    """One driver on its schedule: the interface the runner drives.

    The schedule is a fixed ``dt`` (rescalable on rollback) or the
    hybrid's scale-factor ladder ``schedule``.  ``index`` counts
    completed schedule slots (the driver's ``step_count``); a stepper
    with ``index == n_steps`` is done.  ``save``/``restore`` round-trip
    the *entire* mutable state bit-exactly (f, particles, clock, index,
    owed kick).
    """

    def __init__(self, scenario: str, driver: LeapfrogDriver, n_steps: int,
                 dt: float | None = None, schedule: np.ndarray | None = None):
        self.scenario = scenario
        self.n_steps = n_steps
        self.dt = dt
        self.schedule = schedule
        self.grid = driver.grid
        # benchmarks/e2e/e2e_trace.py wraps advance, conserved, save and
        # restore, and reads ``driver`` (plasma, gravitational) or ``sim``
        # (hybrid; None elsewhere)
        self.driver = driver
        self.sim = driver if scenario == "hybrid" else None

    @property
    def index(self) -> int:
        return self.driver.step_count

    def advance(self) -> float:
        """Execute one step; returns the step size (dt or da)."""
        if self.schedule is None:
            self.driver.step(self.dt)
            return self.dt
        a_prev = self.driver.a
        self.driver.step(float(self.schedule[self.index + 1]))
        return self.driver.a - a_prev

    def rescale_dt(self, factor: float) -> bool:
        """Multiply the step size by ``factor`` (rollback recovery).

        Returns whether the stepper honored it; a scale-factor ladder
        cannot rescale and returns False.
        """
        if self.schedule is not None:
            return False
        self.dt *= float(factor)
        return True

    def coordinate(self) -> dict[str, float]:
        return self.driver.coordinate()

    def conserved(self) -> dict[str, float]:
        return self.driver.conserved()

    def synchronize(self) -> None:
        """Apply the owed half kick in place (a sync point)."""
        self.driver.synchronize()

    def pending_velocity(self) -> tuple:
        return self.driver.pending_velocity()

    @property
    def f(self) -> np.ndarray:
        """The distribution function (for guards and restores)."""
        return self.driver.f

    @property
    def particles(self):
        return self.driver.particles

    def f_stats(self) -> tuple[int, float]:
        """(non-finite cell count, min of f) — the guards' health probe,
        answered by the solver's engine without materializing f when f
        lives in workers (exact under aggregation, so guard decisions
        are engine-independent)."""
        return self.driver.solver.f_stats()

    def notify_f_mutated(self) -> None:
        """Tell the solver :attr:`f` was mutated *in place* (fault
        injection), so what it derived from the old f goes stale."""
        self.driver.solver.notify_f_mutated()

    def save(self, path: str | Path, timer=None) -> Path:
        """Write a restart checkpoint at the current state."""
        return self.driver.save(path, timer, {"scenario": self.scenario,
                                              "schedule_index": self.index})

    def restore(self, f: np.ndarray, particles, header: dict) -> None:
        """Adopt a checkpoint's state (inverse of :meth:`save`)."""
        self.driver.restore(f, particles, header)


def build_stepper(config: RunConfig, timer=None, engine=None) -> Stepper:
    """The scenario's driver, with its initial conditions, on its
    schedule (``timer``/``engine`` go to the driver)."""
    s, p = config.schedule, config.params
    if config.scenario == "hybrid":
        # the hybrid stack (TreePM, particles, cosmology ICs) is imported
        # by the runs that use it, not with the runtime
        from ..nbody.integrator import scale_factor_steps

        g = config.grid
        if not (len(g.nx) == 3 and len(set(g.nx)) == 1 and len(set(g.nu)) == 1):
            raise ValueError("hybrid runs need cubic 3-D nx and nu")
        sim = build_hybrid_simulation(
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
        return Stepper("hybrid", sim, s.n_steps, schedule=scale_factor_steps(
            s.a_start, s.a_end, s.n_steps, s.spacing))
    grid = _make_grid(config)
    if config.scenario == "plasma":
        driver = PlasmaVlasovPoisson(
            grid, scheme=config.scheme, timer=timer, engine=engine)
        velocity = _maxwellian(grid)
    elif config.scenario == "gravitational":
        driver = GravitationalVlasovPoisson(
            grid, g_newton=float(p.get("g_newton", 1.0)),
            scheme=config.scheme, timer=timer, engine=engine,
        )
        velocity = float(p.get("rho0", 1.0)) * _maxwellian(
            grid, sigma=float(p.get("sigma_v", 1.0)))
    else:
        raise ValueError(f"unknown scenario {config.scenario!r}")
    np.multiply(velocity, _cosine_perturbation(
        grid, float(p.get("amplitude", 0.01)), int(p.get("mode", 1))
    ), out=driver.f, casting="unsafe")
    driver.solver.notify_f_mutated()
    return Stepper(config.scenario, driver, s.n_steps, dt=s.dt)


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
