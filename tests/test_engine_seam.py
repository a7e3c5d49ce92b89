"""The one engine seam: every scenario reaches every engine through
``VlasovSolver`` → :mod:`repro.core.engine`.

Covers what the seam added over the per-engine suites: the hybrid
driver forwarding ``engine``/``timer`` (bitwise across
engines, drifts past one cell included), hybrid timer sections in telemetry,
and the hybrid health probe under a worker-resident f.  (A degraded
``DomainEngine`` finishing a step through its base class is in
``tests/test_domain_engine.py``, next to the chaos drills.)
"""

from __future__ import annotations

import numpy as np

from repro import cli
from repro.core.engine import Sweep, SweepEngine, sweep_shift
from repro.core.mesh import PhaseSpaceGrid
from repro.nbody.integrator import scale_factor_steps
from repro.parallel import DomainEngine
from repro.perf import pencil
from repro.perf.pencil import PencilEngine
from repro.runtime import EXIT_GUARD_ABORT, RunConfig, SimulationRunner, read_telemetry
from repro.runtime.config import (
    CheckpointConfig,
    EngineConfig,
    FaultsConfig,
    GridConfig,
    GuardConfig,
    ScheduleConfig,
)
from repro.runtime.runner import TELEMETRY_NAME
from repro.runtime.scenarios import build_engine, build_hybrid_simulation

A_START = 1.0 / 11.0  # z = 10: the first drifts move > 1 cell


def hybrid_config(**overrides) -> RunConfig:
    base = dict(
        scenario="hybrid",
        name="t-seam",
        scheme="slp3",  # order-3 stencil fits the tiny velocity grid
        grid=GridConfig(nx=(8, 8, 8), nu=(4, 4, 4), box_size=200.0,
                        v_max=1.0, dtype="float32"),
        schedule=ScheduleConfig(kind="scale_factor", a_start=A_START,
                                a_end=1.0, n_steps=3),
        checkpoint=CheckpointConfig(every_steps=None, keep_last=2),
        params={"m_nu": 0.4, "seed": 7},
    )
    base.update(overrides)
    return RunConfig(**base)


class TestHybridThroughTheSeam:
    def run_hybrid(self, engine):
        """Three steps at drift CFL 2.9 -> 2.3 on 16-cell axes: the domain
        engine's blocks of 8 planes take the 5-plane halo, and no step
        gathers f."""
        sim = build_hybrid_simulation(nx=16, nu=6, a_start=A_START, engine=engine)
        schedule = scale_factor_steps(A_START, 1.0, 12)
        first_drift = sim.cosmology.drift_factor(sim.a, float(schedule[1]))
        grid = sim.grid
        assert grid.v_max * first_drift / min(grid.dx) > 1.0  # drift CFL
        try:
            for a_next in schedule[1:4]:
                gathers = getattr(engine, "gather_count", 0)
                sim.step(float(a_next))
                assert getattr(engine, "gather_count", 0) == gathers
            return (sim.neutrinos.f.tobytes(), sim.cdm.positions.tobytes(),
                    sim.cdm.velocities.tobytes())
        finally:
            sim.neutrinos.engine.close()

    def test_bitwise_across_engines_with_cfl_above_one(self, monkeypatch):
        serial = self.run_hybrid(None)
        monkeypatch.setattr(pencil, "MIN_SHARD_BYTES", 0)
        threads = PencilEngine(n_workers=2)
        assert self.run_hybrid(threads) == serial
        assert threads.last_plan is not None  # the sweeps really sharded
        domain = DomainEngine(topology=(2, 1, 1))
        assert self.run_hybrid(domain) == serial
        assert not domain.degraded and domain.retries == 0

    def test_repro_run_records_vlasov_sections(self, tmp_path):
        cfg_path = hybrid_config().dump(tmp_path / "hybrid.toml")
        run_dir = tmp_path / "run"
        assert cli.main(["run", str(cfg_path), "--run-dir", str(run_dir)]) == 0
        sections = set()
        for record in read_telemetry(run_dir / TELEMETRY_NAME):
            sections.update(record["sections"])
        for name in ("vlasov/drift/x", "vlasov/drift/z",
                     "vlasov/kick/ux", "vlasov/kick/uz"):
            assert any(s.endswith(name) for s in sections), (name, sections)

    def test_injected_nan_trips_guard_under_domain_engine(self, tmp_path):
        """The NaN lands in the host copy of f; only the stepper telling
        its solver (``notify_f_mutated``) gets it to the workers, whose
        partial ``f_stats`` are what the guard reads.  Twelve steps put
        the first drifts at CFL 1.3: past one cell, with the slp3 halo
        (3 planes) inside the 4-plane blocks."""
        cfg = hybrid_config(
            schedule=ScheduleConfig(kind="scale_factor", a_start=A_START,
                                    a_end=1.0, n_steps=12),
            engine=EngineConfig(engine="domain", topology=[2, 1, 1]),
            guards=GuardConfig(nan="abort"),
            faults=FaultsConfig(seed=1, events=[
                {"kind": "inject_nan", "step": 2},
            ]),
        )
        runner = SimulationRunner.create(cfg, tmp_path / "nan")
        assert runner.run() == EXIT_GUARD_ABORT


class TestBuildEngine:
    def test_backend_off_is_the_serial_base_engine(self):
        engine = build_engine(hybrid_config())
        assert type(engine) is SweepEngine
        engine.close()


class TestShiftFormula:
    def test_slab_shift_is_the_slab_of_the_full_shift(self):
        grid = PhaseSpaceGrid(nx=(6, 4), nu=(5, 5), box_size=1.0, v_max=2.0)
        accel = np.random.default_rng(5).standard_normal((2,) + grid.nx)
        sweep = Sweep("vlasov/kick/uy", "v", 1, grid.velocity_axis(1),
                      0.37 / grid.du[1], "zero")
        full = sweep_shift(grid, sweep, accel)
        slab = sweep_shift(grid, sweep, accel[:, 2:5, :])
        assert full.dtype == np.float64 and full.shape == grid.nx + (1, 1)
        assert slab.tobytes() == np.ascontiguousarray(full[2:5]).tobytes()
