"""Merged half kicks: Eq. (5) as a leapfrog, with the pending kick carried.

A step is ``kick(pending + opening) -> drift -> pending = closing``; the
state between steps owes a half kick, which checkpoints store as it is.
These tests pin what that must not break:

* resume after ``--max-steps k``, for every k, with and without sync
  points on the checkpoint cadence, ends on the uninterrupted run's
  final f (and particles) ``.tobytes()``; so do a rollback at
  ``dt_scale != 1`` onto a synchronous or a carried checkpoint and a
  resume from a checkpoint written without the pending key (the format
  before the merge);
* a cadence checkpoint is bitwise the final state of the same run
  scheduled to end on that step;
* the guards see the synchronized state of a sync point;
* serial == pencil == domain on a merged run;
* the diagnostics ``velocity`` of a carried state matches a synchronized
  copy's within the kick's first-moment error;
* the merged chain's answer differs from the unmerged K(h/2) D(h) K(h/2)
  chain's by less than that chain's own O(h^2) splitting error.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core import moments
from repro.core.mesh import PhaseSpaceGrid
from repro.core.vlasov_poisson import PlasmaVlasovPoisson
from repro.io.snapshot import read_checkpoint, read_snapshot, write_checkpoint
from repro.runtime import (
    EXIT_COMPLETE,
    EXIT_GUARD_ABORT,
    EXIT_RESUMABLE,
    RunConfig,
    SimulationRunner,
)
from repro.runtime.config import (
    CheckpointConfig,
    DiagnosticsConfig,
    EngineConfig,
    FaultsConfig,
    GridConfig,
    GuardConfig,
    RecoveryConfig,
    ScheduleConfig,
)
from repro.runtime.runner import CHECKPOINT_DIR, DIAGNOSTICS_DIR, checkpoint_name
from repro.runtime.scenarios import build_stepper
from repro.serve.pipeline import snapshot_name

N_STEPS = {"plasma": 5, "gravitational": 5, "hybrid": 4}
#: checkpoint.every_steps: None (the schedule's end is the only sync
#: point) or 2 (every even step is one too)
CADENCES = [None, 2]
PENDING_KEYS = {"pending_kick", "kick_from_a"}


def config(scenario: str, **overrides) -> RunConfig:
    base = {
        "plasma": dict(
            grid=GridConfig(nx=(24,), nu=(24,), box_size=4 * np.pi, v_max=6.0),
            schedule=ScheduleConfig(kind="time", dt=0.1,
                                    n_steps=N_STEPS["plasma"]),
        ),
        "gravitational": dict(
            grid=GridConfig(nx=(16,), nu=(16,), box_size=10.0, v_max=4.0),
            schedule=ScheduleConfig(kind="time", dt=0.05,
                                    n_steps=N_STEPS["gravitational"]),
            params={"g_newton": 0.05, "amplitude": 0.01, "sigma_v": 1.0},
        ),
        "hybrid": dict(
            scheme="slp3",
            grid=GridConfig(nx=(4, 4, 4), nu=(4, 4, 4), box_size=200.0,
                            v_max=1.0, dtype="float32"),
            schedule=ScheduleConfig(kind="scale_factor", a_start=1.0 / 11.0,
                                    a_end=1.0, n_steps=N_STEPS["hybrid"]),
            params={"m_nu": 0.4, "seed": 7},
        ),
    }[scenario]
    base = dict(base, scenario=scenario, name=f"t-merged-{scenario}",
                checkpoint=CheckpointConfig(every_steps=None, keep_last=2))
    base.update(overrides)
    return RunConfig(**base)


def every(n: int | None) -> CheckpointConfig:
    return CheckpointConfig(every_steps=n, keep_last=2)


def advance_like_the_runner(stepper, until: int, cadence: int | None = None):
    """Step as the runner does: synchronize on every multiple of the
    checkpoint cadence and on the schedule's last step."""
    while stepper.index < until:
        stepper.advance()
        if stepper.index >= stepper.n_steps or (
                cadence is not None and stepper.index % cadence == 0):
            stepper.synchronize()
    return stepper


def final_state(run_dir, n_steps):
    _, f, particles, header = read_checkpoint(
        run_dir / CHECKPOINT_DIR / checkpoint_name(n_steps))
    state = [f.tobytes()]
    if particles is not None:
        state += [particles.positions.tobytes(), particles.velocities.tobytes()]
    return state, header


def run_to_end(cfg, run_dir):
    assert SimulationRunner.create(cfg, run_dir).run() == EXIT_COMPLETE
    return final_state(run_dir, cfg.schedule.n_steps)


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory):
    """Final state of each scenario's uninterrupted run, per cadence."""
    root = tmp_path_factory.mktemp("uninterrupted")
    return {(s, c): run_to_end(config(s, checkpoint=every(c)), root / f"{s}-{c}")
            for s in N_STEPS for c in CADENCES}


@pytest.mark.parametrize("scenario", sorted(N_STEPS))
class TestResumeAtAnyStep:
    @pytest.mark.parametrize("cadence", CADENCES)
    def test_max_steps_then_resume_for_every_k(self, scenario, cadence,
                                               uninterrupted, tmp_path):
        want, header = uninterrupted[scenario, cadence]
        # the final checkpoint is synchronous: no pending key in its header
        assert not PENDING_KEYS & set(header["extra"])
        n = N_STEPS[scenario]
        for k in range(1, n):
            run_dir = tmp_path / f"k{k}"
            runner = SimulationRunner.create(
                config(scenario, checkpoint=every(cadence)), run_dir)
            assert runner.run(max_steps=k) == EXIT_RESUMABLE
            # a sync point's checkpoint is synchronous; any other holds
            # the carried state and its kick
            _, _, _, mid = read_checkpoint(
                run_dir / CHECKPOINT_DIR / checkpoint_name(k))
            carried = cadence is None or k % cadence != 0
            assert bool(PENDING_KEYS & set(mid["extra"])) == carried, k
            assert SimulationRunner.resume(run_dir).run() == EXIT_COMPLETE
            assert final_state(run_dir, n)[0] == want, k

    def test_the_runner_chain_is_the_drivers(self, scenario, uninterrupted):
        """The runner's bits are the driver stepped with a synchronize
        on every sync point, for both cadences."""
        for cadence in CADENCES:
            reference = advance_like_the_runner(
                build_stepper(config(scenario)), N_STEPS[scenario], cadence)
            assert final_state_of(reference) == \
                uninterrupted[scenario, cadence][0], cadence
        # the sync points are part of the chain: the cadences differ
        assert uninterrupted[scenario, 2][0] != uninterrupted[scenario, None][0]

    def test_checkpoint_without_the_pending_key(self, scenario, uninterrupted,
                                                tmp_path):
        """A checkpoint in the format written before the merge (no key)
        is a synchronous state: the run continues from it as from any
        synchronous state, and ends where a run synchronized at that
        step ends."""
        cfg = config(scenario)
        n, k = N_STEPS[scenario], 2
        reference = build_stepper(cfg)
        for _ in range(k):
            reference.advance()
        reference.synchronize()
        run_dir = tmp_path / "old"
        (run_dir / CHECKPOINT_DIR).mkdir(parents=True)
        write_checkpoint(
            run_dir / CHECKPOINT_DIR / checkpoint_name(k), reference.grid,
            reference.f, reference.particles,
            a=reference.coordinate().get("a", 1.0), step=k,
            sim_time=reference.coordinate().get("t", 0.0),
            extra={"scenario": scenario, "schedule_index": k},
        )
        advance_like_the_runner(reference, n)
        assert run_to_end(cfg, run_dir)[0] == final_state_of(reference)
        # the synchronization really moved the chain: not the plain run's end
        assert final_state_of(reference) != uninterrupted[scenario, None][0]


def final_state_of(stepper):
    state = [np.ascontiguousarray(stepper.f).tobytes()]
    if stepper.particles is not None:
        state += [stepper.particles.positions.tobytes(),
                  stepper.particles.velocities.tobytes()]
    return state


@pytest.mark.parametrize("cadence", [2, None], ids=["synchronous", "carried"])
@pytest.mark.parametrize("scenario", ["plasma", "gravitational"])
def test_rollback_with_dt_scale_continues_the_chain(scenario, cadence,
                                                    tmp_path):
    """A NaN at step 3 rolls back to the step-2 checkpoint and dt then
    halves.  On the cadence that checkpoint is a sync point, so the next
    kick is the opening h/4 alone; off it (a ``--max-steps 2`` stop) it
    owes the old step's h/2, so the next kick is h/2 + h/4.  Either way
    the run ends on the chain that rescales dt at step 2."""
    n = N_STEPS[scenario]
    cfg = config(
        scenario,
        checkpoint=CheckpointConfig(every_steps=cadence, keep_last=3),
        guards=GuardConfig(nan="rollback"),
        recovery=RecoveryConfig(max_attempts=2, dt_scale=0.5),
        faults=FaultsConfig(seed=1, events=[{"kind": "inject_nan", "step": 3}]),
    )
    runner = SimulationRunner.create(cfg, tmp_path / "run")
    if cadence is None:
        assert runner.run(max_steps=2) == EXIT_RESUMABLE
        runner = SimulationRunner.resume(tmp_path / "run")
    assert runner.run() == EXIT_COMPLETE
    assert runner.manifest()["rollbacks"] == 1

    reference = advance_like_the_runner(build_stepper(config(scenario)), 2,
                                        cadence)
    assert reference.driver.pending_kick == (
        0.0 if cadence else 0.5 * cfg.schedule.dt)
    reference.rescale_dt(0.5)
    advance_like_the_runner(reference, n, cadence)
    assert final_state(tmp_path / "run", n)[0] == final_state_of(reference)


@pytest.mark.parametrize("scenario", ["plasma", "gravitational"])
def test_a_cadence_checkpoint_is_a_shorter_schedules_final_state(scenario,
                                                                 tmp_path):
    """The step-k checkpoint of a run with ``every_steps`` dividing k is
    bitwise the final checkpoint of the same run scheduled for k steps:
    both are the synchronous state after the same chain."""
    n, cadence = N_STEPS[scenario], 2
    cfg = config(scenario, checkpoint=CheckpointConfig(every_steps=cadence,
                                                       keep_last=n))
    run_to_end(cfg, tmp_path / "long")
    for k in range(cadence, n, cadence):
        short = config(scenario, checkpoint=every(cadence),
                       schedule=replace(cfg.schedule, n_steps=k))
        mid, header = final_state(tmp_path / "long", k)
        assert not PENDING_KEYS & set(header["extra"])
        assert run_to_end(short, tmp_path / f"short{k}")[0] == mid, k


@pytest.mark.parametrize("scenario", sorted(N_STEPS))
def test_the_guards_see_the_synchronized_last_step(scenario, tmp_path,
                                                   monkeypatch):
    """A fault that appears only when the last step's pending half kick
    is applied is caught by the step's guards: the run aborts and no
    synchronous final checkpoint of a poisoned state is published as
    complete."""
    stepper_type = type(build_stepper(config(scenario)))
    synchronize = stepper_type.synchronize

    def poisoned(self):
        synchronize(self)
        if self.index == self.n_steps:
            self.f.flat[0] = np.nan
            self.notify_f_mutated()

    monkeypatch.setattr(stepper_type, "synchronize", poisoned)
    cfg = config(scenario, guards=GuardConfig(nan="abort"))
    runner = SimulationRunner.create(cfg, tmp_path / "run")
    assert runner.run() == EXIT_GUARD_ABORT
    assert runner.manifest()["reason"] == "guard:nan"


def test_serial_pencil_domain_agree_on_a_merged_run(tmp_path):
    """Same bits on every engine, through a max-steps stop (carried)
    and resume, and a sync point at step 2."""
    grid = GridConfig(nx=(6, 6, 6), nu=(6, 6, 6), box_size=1.0, v_max=3.0,
                      dtype="float32")
    schedule = ScheduleConfig(kind="time", dt=0.02, n_steps=4)
    finals = {}
    for name, engine in {
        "serial": EngineConfig(backend="off"),
        "pencil": EngineConfig(backend="threads", n_workers=2),
        "domain": EngineConfig(engine="domain", topology=[2, 1, 1]),
    }.items():
        cfg = config("gravitational", grid=grid, schedule=schedule,
                     engine=engine, checkpoint=every(2))
        runner = SimulationRunner.create(cfg, tmp_path / name)
        assert runner.run(max_steps=1) == EXIT_RESUMABLE
        assert SimulationRunner.resume(tmp_path / name).run() == EXIT_COMPLETE
        finals[name] = final_state(tmp_path / name, 4)[0]
    assert finals["pencil"] == finals["serial"]
    assert finals["domain"] == finals["serial"]


def edge_mass_fraction(f, grid) -> np.ndarray:
    """Per spatial cell and velocity axis d: the share of the cell's mass
    in the two outermost velocity planes along d, shape (dim,) + nx."""
    rho = moments.density(f, grid)
    out = np.empty((grid.dim,) + grid.nx)
    for d in range(grid.dim):
        axis = grid.velocity_axis(d)
        edges = np.take(f, [0, grid.nu[d] - 1], axis=axis).sum(axis=axis)
        out[d] = edges.reshape(grid.nx + (-1,)).sum(-1) * grid.cell_volume_u / rho
    return out


@pytest.mark.parametrize("scenario", ["plasma", "gravitational", "hybrid"])
def test_diagnostics_velocity_is_the_synchronized_one(scenario, tmp_path):
    """The stored ``velocity`` moment of a carried state, corrected by
    the pending shift s = pending * accel, is a synchronized copy's.

    Bound: the kick is a flux-form advection along u by sigma = s/du
    cells.  Summed over a velocity row, its interface fluxes move the
    momentum by exactly s * mass, plus the reconstruction's deviation
    from the cell averages, which telescopes to the row's two edge
    interfaces, and minus the mass the zero BC lets out at the
    downwind edge.  Both edge terms are at most |sigma| times about
    twice the edge cells' mass; the outflow also moves the mean by its
    lever arm, at most n_u cells.  So per cell and axis

        |<u>_corrected - <u>_sync| <= 4 (1 + n_u) |s| e,

    with e the mass share of the two outermost velocity planes (the
    factor 4 covers the reconstruction's overshoot at the edge).  The
    stored float32 adds 2^-23 |u| per value.  CDM particle velocities
    are kicked in the copy exactly as ``synchronize()`` kicks them: they
    match bit for bit.
    """
    k = 2
    cfg = config(scenario, diagnostics=DiagnosticsConfig(every_steps=k))
    assert SimulationRunner.create(cfg, tmp_path / "run").run(max_steps=k + 1) \
        == EXIT_RESUMABLE
    stored = read_snapshot(tmp_path / "run" / DIAGNOSTICS_DIR / snapshot_name(k))

    carried = build_stepper(config(scenario))
    for _ in range(k):
        carried.advance()
    shift, particle_shift = carried.pending_velocity()
    f = np.array(carried.f, dtype=np.float64)
    grid = carried.grid
    u_carried = moments.mean_velocity(f, grid)
    bound = 4 * (1 + max(grid.nu)) * np.abs(shift) * edge_mass_fraction(f, grid)
    carried.synchronize()
    u_sync = moments.mean_velocity(np.array(carried.f), grid)

    err = np.abs(stored["velocity"] - u_sync)
    assert np.all(err <= bound + 2.0**-22 * np.abs(u_sync).max())
    # the correction matters: the carried moment is off by the shift
    assert np.abs(u_carried - u_sync).max() > 4 * err.max()
    if scenario == "hybrid":
        assert stored["velocities"].tobytes() == \
            carried.particles.velocities.tobytes()
    else:
        assert particle_shift is None


def test_merging_moves_the_answer_less_than_the_splitting_error():
    """Merged vs unmerged KDK on a Landau-type plasma run, T = 4.

    Two kicks by h/2 in one field are exactly one kick by h for the
    continuous operator (a per-x translation in u), and the field is the
    same because a kick moves no mass between spatial cells.  The two
    chains therefore differ only by the semi-Lagrangian kick's defect
    S(s/2) S(s/2) - S(s), a spatial truncation term of the sweep.  Both
    chains are second-order approximations of one solution, so the
    difference must sit below the unmerged chain's own O(h^2) splitting
    error, estimated as |f_h - f_(h/2)| (Richardson: 3/4 of the h-error).
    """
    def fresh():
        grid = PhaseSpaceGrid(nx=(32,), nu=(64,), box_size=4 * np.pi,
                              v_max=6.0, dtype=np.float64)
        vp = PlasmaVlasovPoisson(grid)
        x, v = grid.x_centers(0)[:, None], grid.u_centers(0)[None, :]
        vp.f = (1 + 0.05 * np.cos(0.5 * x)) * np.exp(-v**2 / 2) / np.sqrt(2 * np.pi)
        return vp

    def unmerged(h, n):
        vp = fresh()
        for _ in range(n):
            vp.solver.kick(vp.acceleration(), 0.5 * h)
            vp.solver.drift(h)
            vp.solver.kick(vp.acceleration(), 0.5 * h)
        return vp.f.copy()

    h, n = 0.2, 20
    vp = fresh()
    for _ in range(n):
        vp.step(h)
    vp.synchronize()
    f_kdk = unmerged(h, n)
    splitting_error = np.abs(f_kdk - unmerged(h / 2, 2 * n)).max()
    assert np.abs(vp.f - f_kdk).max() < 0.1 * splitting_error
