"""Real-transport domain engine: bitwise identity, residency, parity.

The :class:`~repro.parallel.domain.DomainEngine` pins each spatial block
to a persistent shared-memory worker and must reproduce the serial
solver *bitwise* — same splitting, same stencil, same FFT plan — across
topologies, uneven grids, dtypes, drifts past one cell, and worker
deaths; a plan whose halo does not fit the blocks is refused untouched.
These tests hold it to that, plus the vMPI accounting parity (the real
halo bytes must equal what the virtual-communicator model predicts) and
the no-full-gather residency guarantee.

Chaos drills (SIGKILL of a live worker mid-step) are marked
``@pytest.mark.chaos`` and run by the dedicated CI chaos job.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import SweepEngine
from repro.core.mesh import PhaseSpaceGrid
from repro.core.vlasov import VlasovSolver
from repro.core.vlasov_poisson import GravitationalVlasovPoisson, PlasmaVlasovPoisson
from repro.diagnostics import ConservationLedger, StepTimer
from repro.parallel import BlockDecomposition, DomainEngine, exchange_ghosts
from repro.parallel.vmpi import VirtualComm
from repro.runtime import RunConfig
from repro.runtime.config import EngineConfig, GridConfig, ScheduleConfig
from repro.runtime.guards import GuardSuite
from repro.runtime.scenarios import build_engine, build_stepper

# nu axes must fit the order-5 stencil (>= 5 cells); 6 keeps the kick
# sweeps legal while the problem stays small enough for CI
NX = (8, 8, 6)
NU = (6, 6, 6)
# max|u| ~ v_max = 3, dx = 1/8  ->  CFL < 1 needs dt < 1/24
DT = 0.02
STEPS = 3


def make_grid(nx=NX, nu=NU, dtype=np.float64):
    return PhaseSpaceGrid(nx=nx, nu=nu, box_size=1.0, v_max=3.0, dtype=dtype)


def initial_f(grid):
    """Deterministic, strictly positive, structure on every axis."""
    shape = tuple(grid.nx) + tuple(grid.nu)
    idx = np.arange(int(np.prod(shape)), dtype=np.float64).reshape(shape)
    f = 1.0 + 0.5 * np.cos(0.13 * idx) + 0.25 * np.sin(0.041 * idx)
    return f.astype(grid.dtype)


def run_plasma(engine, *, nx=NX, dtype=np.float64, steps=STEPS, dt=DT):
    grid = make_grid(nx=nx, dtype=dtype)
    vp = PlasmaVlasovPoisson(grid, engine=engine)
    vp.f = initial_f(grid)
    for _ in range(steps):
        vp.step(dt)
    f = np.array(vp.f, copy=True)
    if engine is not None:
        engine.close()
    return f


def run_gravity(engine, *, nx=NX, dtype=np.float64, steps=STEPS, dt=DT):
    grid = make_grid(nx=nx, dtype=dtype)
    vp = GravitationalVlasovPoisson(grid, g_newton=1.0, engine=engine)
    vp.f = initial_f(grid)
    for _ in range(steps):
        vp.step(dt)
    f = np.array(vp.f, copy=True)
    if engine is not None:
        engine.close()
    return f


TOPOLOGIES = [(2, 1, 1), (2, 2, 1)]


class TestBitwiseIdentity:
    """Acceptance: bitwise-identical to serial for both drivers at >= 2
    worker topologies."""

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_plasma_bitwise(self, topology):
        f_serial = run_plasma(None)
        engine = DomainEngine(topology=topology)
        f_domain = run_plasma(engine)
        assert not engine.degraded
        assert np.array_equal(f_domain, f_serial)

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_gravitational_bitwise(self, topology):
        f_serial = run_gravity(None)
        engine = DomainEngine(topology=topology)
        f_domain = run_gravity(engine)
        assert not engine.degraded
        assert np.array_equal(f_domain, f_serial)

    def test_overlap_path_bitwise(self):
        """Blocks of 8 planes, as on the benchmark grid: each worker lands
        its neighbors' 3 edge planes as ghost planes and advects its
        block once."""
        nx = (16, 8, 6)
        f_serial = run_plasma(None, nx=nx)
        engine = DomainEngine(topology=(2, 1, 1))
        f_domain = run_plasma(engine, nx=nx)
        assert np.array_equal(f_domain, f_serial)

    @pytest.mark.parametrize("cfl", [2.3, 3.7])
    def test_drift_past_one_cell_bitwise(self, cfl):
        """Drifts of several cells run on the workers like any other: the
        halo is ``ghost_width`` of the sweep's shift (6 planes at 3.7,
        the blocks' width here), and no step gathers f."""
        nx = (12, 12, 6)
        grid = make_grid(nx=nx)
        max_u = float(np.abs(grid.u_centers(0)).max())
        dt = cfl * grid.dx[0] / max_u
        f_serial = run_plasma(None, nx=nx, dt=dt, steps=2)
        engine = DomainEngine(topology=(2, 2, 1))
        try:
            vp = PlasmaVlasovPoisson(grid, engine=engine)
            vp.f = initial_f(grid)
            for _ in range(2):
                vp.step(dt)
            assert engine.gather_count == 0 and engine.scatter_count == 1
            assert not engine.degraded and engine.retries == 0
            assert vp.f.tobytes() == f_serial.tobytes()
        finally:
            engine.close()

    def test_plan_past_the_ghost_width_is_refused_untouched(self):
        """Blocks of 4 planes take ghosts up to 4 planes (slmpp5: CFL < 2).
        A drift at CFL 2.3 needs 5: ``run`` refuses the whole plan before
        any worker round — the z and y sweeps ahead of x included — and
        names the largest dt/dx that fits, (4 - 2) / max|u| = 0.8.  It is
        not a worker failure: no retry, no degradation, no gather."""
        from repro.runtime import telemetry

        grid = make_grid()
        engine = DomainEngine(topology=(2, 1, 1))
        events = []
        try:
            solver = VlasovSolver(grid, engine=engine)
            solver.f = initial_f(grid)
            solver.drift(DT)
            before = solver.f.tobytes()
            counts = (engine.f_version, engine.gather_count,
                      engine.scatter_count, engine.retries)
            max_u = float(np.abs(grid.u_centers(0)).max())
            with telemetry.event_sink(lambda kind, **_: events.append(kind)):
                with pytest.raises(ValueError, match=r"axis 0: .*CFL 2\.3.*"
                                   r"dt/dx must stay below 0\.8 "):
                    solver.drift(2.3 * grid.dx[0] / max_u)
            assert (engine.f_version, engine.gather_count,
                    engine.scatter_count, engine.retries) == counts
            assert solver.f.tobytes() == before
            assert engine.gather_count == counts[1]  # no sweep left f stale
            assert not engine.degraded and "domain_worker_failure" not in events
            solver.drift(DT)  # the fleet still serves
            assert engine.retries == 0
        finally:
            engine.close()


class TestNonDivisibleGrids:
    """Remainder blocks: grids that don't divide evenly by the topology."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_uneven_blocks_bitwise(self, dtype):
        """Blocks of 5 and 4 planes, shorter than the order-5 stencil on
        their own: the neighbors' edge planes complete the rows."""
        nx = (9, 8, 6)  # 9 over 2 ranks -> blocks of 5 and 4
        f_serial = run_plasma(None, nx=nx, dtype=dtype)
        engine = DomainEngine(topology=(2, 2, 1))
        f_domain = run_plasma(engine, nx=nx, dtype=dtype)
        assert not engine.degraded
        assert f_domain.dtype == np.dtype(dtype)
        assert np.array_equal(f_domain, f_serial)

    def test_uneven_gravity_bitwise(self):
        nx = (9, 8, 6)
        f_serial = run_gravity(None, nx=nx)
        engine = DomainEngine(topology=(2, 2, 1))
        f_domain = run_gravity(engine, nx=nx)
        assert np.array_equal(f_domain, f_serial)


class TestWorkerResidency:
    """No step may do a full-domain gather: f stays worker-resident."""

    def test_no_gather_during_steps(self):
        grid = make_grid()
        engine = DomainEngine(topology=(2, 2, 1))
        try:
            vp = PlasmaVlasovPoisson(grid, engine=engine)
            vp.f = initial_f(grid)
            for _ in range(STEPS):
                vp.step(DT)
            # density/moments are distributed reductions, not gathers
            assert engine.gather_count == 0
            # first host read *is* the gather — exactly one
            _ = vp.f
            assert engine.gather_count == 1
            # a second read hits the refreshed mirror
            _ = vp.f
            assert engine.gather_count == 1
        finally:
            engine.close()

    def test_guard_stats_distributed(self):
        """Guard inputs (non-finite count, min) come from worker-side
        partial reductions without gathering f."""
        grid = make_grid()
        engine = DomainEngine(topology=(2, 1, 1))
        try:
            vp = PlasmaVlasovPoisson(grid, engine=engine)
            vp.f = initial_f(grid)
            vp.step(DT)
            n_bad, fmin = vp.solver.f_stats()
            assert engine.gather_count == 0
            assert n_bad == 0
            f_host = np.array(vp.f, copy=True)
            assert fmin == float(f_host.min())
        finally:
            engine.close()

    def test_one_reduction_round_per_f_state(self, monkeypatch):
        """A step's bookkeeping — the ledger's mass and kinetic energy,
        the guards' (non-finite count, min) — is one worker round per f
        state, answering what the serial engine answers."""
        config = RunConfig(
            scenario="gravitational", name="t-rounds",
            grid=GridConfig(nx=(6, 6, 6), nu=(6, 6, 6), box_size=1.0,
                            v_max=3.0, dtype="float32"),
            schedule=ScheduleConfig(kind="time", dt=0.02, n_steps=2),
            engine=EngineConfig(engine="domain", topology=[2, 1, 1]),
        )
        serial = build_stepper(config)
        engine = build_engine(config)
        try:
            stepper = build_stepper(config, engine=engine)
            ledger = ConservationLedger()
            ledger.register(**stepper.conserved())
            guards = GuardSuite(config.guards, ledger)
            rounds = []
            real_round = engine._round
            monkeypatch.setattr(engine, "_round",
                                lambda payloads: rounds.append(payloads[0][0])
                                or real_round(payloads))
            for _ in range(2):
                stepper.advance()
                serial.advance()
                # the next kick's field solve (its density round) is
                # the energy's potential term; count the bookkeeping alone
                stepper.driver.potential_energy()
                rounds.clear()
                ledger.update(**stepper.conserved())
                assert guards.check_step(stepper, 0.0) == []
                assert rounds == ["reduce"]
                want = serial.conserved()
                for key, value in ledger.latest.items():
                    assert value == pytest.approx(want[key], rel=1e-12), key
                assert stepper.f_stats() == serial.f_stats()
        finally:
            engine.close()


class TestVmpiParity:
    """The engine's real halo-exchange accounting must match the
    VirtualComm message log for the same decomposition (satellite 2)."""

    def test_halo_bytes_match_virtual_exchange(self):
        grid = make_grid()
        engine = DomainEngine(topology=(2, 2, 1))
        timer = StepTimer()
        try:
            vp = PlasmaVlasovPoisson(grid, engine=engine, timer=timer)
            f0 = initial_f(grid)
            vp.f = f0
            vp.step(DT)
        finally:
            halo_traffic = dict(engine.halo_traffic)
            halo_bytes = engine.halo_bytes
            ghost = engine.ghost
            engine.close()
        # the worker's one block sweep, halo landing included, is the
        # whole section: no halo slab, no boundary re-advection
        assert "domain/interior" in timer.sections
        assert not {"domain/halo", "domain/boundary", "domain/fft"} \
            & set(timer.sections)

        # replay: one KDK step does one full drift (kicks are velocity
        # sweeps — no spatial halo); only partitioned axes exchange the
        # ghost width the kernel reads
        assert ghost == 3
        decomp = BlockDecomposition(grid.nx, (2, 2, 1))
        comm = VirtualComm(decomp.size)
        blocks = decomp.scatter(f0)
        for d in reversed(range(len(grid.nx))):
            if decomp.n_proc[d] > 1:
                exchange_ghosts(blocks, decomp, d, ghost, comm)

        def by_key(messages):
            out: dict[tuple[int, int, str], int] = {}
            for m in messages:
                key = (m.src, m.dst, m.tag)
                out[key] = out.get(key, 0) + m.nbytes
            return out

        assert {key: nbytes for key, (_, nbytes) in halo_traffic.items()} \
            == by_key(comm.log.messages)
        assert halo_bytes == comm.log.total_p2p_bytes()

    def test_halo_accounting_is_bounded_by_topology(self):
        """The per-(src, dst, tag) aggregate must not grow with the step
        count (it used to be a list gaining 2 records per rank per
        partitioned sweep, forever)."""
        grid = make_grid()
        engine = DomainEngine(topology=(2, 2, 1))
        try:
            vp = PlasmaVlasovPoisson(grid, engine=engine)
            vp.f = initial_f(grid)
            vp.step(DT)
            keys = set(engine.halo_traffic)
            bytes_one = engine.halo_bytes
            for _ in range(19):
                vp.step(DT)
            assert set(engine.halo_traffic) == keys
            # 4 ranks x 2 partitioned axes x 2 directions
            assert len(keys) == 16
            assert all(n == 20 for n, _ in engine.halo_traffic.values())
            assert engine.halo_bytes == 20 * bytes_one
            assert sum(b for _, b in engine.halo_traffic.values()) \
                == engine.halo_bytes
        finally:
            engine.close()


class TestDistributedFFT:
    """The field solve runs on the parent's default backend, whatever the
    engine: a domain step's Poisson solve is the serial one."""

    def test_poisson_solve_through_engine_backend(self):
        """A plasma step on the domain engine solves its fields on the
        parent's default backend and must agree bitwise with serial."""
        f_serial = run_plasma(None, steps=1)
        engine = DomainEngine(topology=(2, 1, 1))
        f_domain = run_plasma(engine, steps=1)
        assert np.array_equal(f_domain, f_serial)


class TestTelemetryDomainBlock:
    """Satellite 3: summarize() rolls domain_* events and domain/*
    timer sections into a `domain` block."""

    def test_summarize_domain_block(self, tmp_path):
        from repro.runtime import telemetry

        path = tmp_path / "t.jsonl"
        with telemetry.TelemetryWriter(path) as w:
            w.event("domain_started", workers=4)
            w.event("domain_halo_exchange", axis=0, nbytes=1024, messages=8)
            w.event("domain_halo_exchange", axis=1, nbytes=512, messages=8)
            w.event("domain_gather", reason="host")
            w.event("domain_scatter", reason="host")
            w.event("domain_worker_failure", attempt=1, error="killed")
            rec = {
                "step": 1, "coord": {"t": 0.1}, "dt": 0.1, "wall_s": 0.01,
                "conserved": {"mass": 1.0},
                "drifts": {"mass": {"initial": 1.0, "latest": 1.0,
                                    "drift": 0.0, "relative": True}},
                "sections": {"step": 0.01, "domain/halo": 0.002,
                             "domain/interior": 0.005},
                "fft": {"n_forward": 2, "n_inverse": 4, "n_plans": 1},
                "io": {"bytes_written": 0, "bytes_read": 0,
                       "write_seconds": 0.0, "read_seconds": 0.0},
                "rss_mb": 100.0, "guards": [],
            }
            w.append(rec)
        s = telemetry.summarize(path)
        dom = s["domain"]
        assert dom["halo_exchanges"] == 2
        assert dom["halo_bytes"] == 1536
        assert dom["gathers"] == 1
        assert dom["scatters"] == 1
        assert "cfl_fallbacks" not in dom
        assert dom["worker_failures"] == 1
        assert dom["degradations"] == 0
        assert "fft_fallbacks" not in dom
        assert dom["section_seconds"]["halo"] == pytest.approx(0.002)
        assert dom["section_seconds"]["interior"] == pytest.approx(0.005)

    def test_summarize_domain_block_events_only(self, tmp_path):
        """Event-only streams (no step records) still get the block."""
        from repro.runtime import telemetry

        path = tmp_path / "t.jsonl"
        with telemetry.TelemetryWriter(path) as w:
            w.event("domain_degraded", from_engine="domain",
                    to_backend="serial", reason="worker lost")
        s = telemetry.summarize(path)
        assert s["domain"]["degradations"] == 1

    def test_summarize_without_domain_events_has_no_block(self, tmp_path):
        from repro.runtime import telemetry

        path = tmp_path / "t.jsonl"
        with telemetry.TelemetryWriter(path) as w:
            w.event("fault_injected", kind="nan", fired_at=1)
        s = telemetry.summarize(path)
        assert "domain" not in s


class TestEngineConfig:
    """Runtime plumbing: EngineConfig.engine = "domain" builds the
    real-transport engine, and bad values are rejected up front."""

    def test_build_engine_dispatches_domain(self):
        from repro.runtime.config import RunConfig
        from repro.runtime.scenarios import build_engine

        cfg = RunConfig.from_dict({
            "scenario": "plasma",
            "grid": {"nx": [8, 8, 6], "nu": [6, 6, 6],
                     "box_size": 1.0, "v_max": 3.0},
            "schedule": {"n_steps": 1, "dt": 0.02},
            "engine": {"engine": "domain", "topology": [2, 2, 1]},
        })
        engine = build_engine(cfg)
        assert isinstance(engine, DomainEngine)
        assert engine.topology == (2, 2, 1)
        engine.close()

    def test_constructor_rejects_negative_backoff(self):
        """A negative backoff would make the first retry raise from
        ``time.sleep``; 0 (retry at once) stays legal."""
        with pytest.raises(ValueError, match="backoff_base"):
            DomainEngine(topology=(2, 1, 1), backoff_base=-0.05)
        DomainEngine(topology=(2, 1, 1), backoff_base=0.0).close()

    def test_bind_rejects_blocks_thinner_than_the_ghost_width(self):
        """4 cells over 2 blocks leaves 2 < the 3-plane slmpp5 halo; the
        engine must refuse at bind time, before any worker exists."""
        engine = DomainEngine(topology=(1, 1, 2))
        with pytest.raises(ValueError, match=r"leaves 2 < ghost width 3"):
            engine.bind(make_grid(nx=(8, 8, 4)), "slmpp5")
        assert engine.grid is None and not engine._procs

    def test_validate_rejects_unknown_engine(self):
        from repro.runtime.config import RunConfig

        with pytest.raises(ValueError, match="engine"):
            RunConfig.from_dict({
                "scenario": "plasma",
                "grid": {"nx": [8, 8, 6], "nu": [6, 6, 6],
                         "box_size": 1.0, "v_max": 3.0},
                "schedule": {"n_steps": 1, "dt": 0.02},
                "engine": {"engine": "warp"},
            }).validate()

    def test_validate_rejects_bad_topology(self):
        from repro.runtime.config import RunConfig

        with pytest.raises(ValueError, match="topology"):
            RunConfig.from_dict({
                "scenario": "plasma",
                "grid": {"nx": [8, 8, 6], "nu": [6, 6, 6],
                         "box_size": 1.0, "v_max": 3.0},
                "schedule": {"n_steps": 1, "dt": 0.02},
                "engine": {"engine": "domain", "topology": [2, 2]},
            }).validate()


def _kill_hook(at_sweep):
    """fault_hook that SIGKILLs one worker at the given sweep count."""
    from repro.runtime.faults import _kill_self

    calls = {"n": 0}

    def hook(engine, pool):
        calls["n"] += 1
        if calls["n"] == at_sweep:
            pool.submit(_kill_self)

    return hook


class TestDegradedEngineIsItsBaseClass:
    """A worker killed past ``max_retries`` mid-plan: the step finishes
    on the host array through the inherited ``SweepEngine`` path,
    bitwise, and everything after (sweeps, reductions, health probe)
    answers from there."""

    def test_strang_step_finishes_through_base_path_bitwise(self, monkeypatch):
        grid = make_grid()
        accel = np.random.default_rng(9).standard_normal((3,) + grid.nx)

        def step(solver):
            solver.f = initial_f(grid)
            for _ in range(2):  # K(h/2) D(h) K(h/2), composed here
                solver.kick(accel, 0.01)
                solver.drift(DT)
                solver.kick(accel, 0.01)

        serial = VlasovSolver(grid)
        step(serial)
        # every host sweep goes through the base class's kernel call
        host_sweeps = []
        base_advect = SweepEngine.advect

        def counting_advect(self, *args, **kwargs):
            host_sweeps.append(type(self))
            return base_advect(self, *args, **kwargs)

        monkeypatch.setattr(SweepEngine, "advect", counting_advect)
        engine = DomainEngine(topology=(2, 1, 1), max_retries=0,
                              backoff_base=0.01)
        engine.fault_hook = _kill_hook(at_sweep=5)  # inside the first drift
        try:
            solver = VlasovSolver(grid, engine=engine)
            step(solver)
            monkeypatch.undo()
            assert engine.degraded
            assert engine.degradations == ["domain"]
            # the ladder's next rung is the serial base engine: of the
            # 18 sweeps, the failed fifth and the 13 after it ran there
            assert host_sweeps == [DomainEngine] * 14
            assert engine.retries == 1
            assert solver.f.tobytes() == serial.f.tobytes()
            assert solver.density().tobytes() == serial.density().tobytes()
            assert solver.total_mass() == serial.total_mass()
            assert solver.kinetic_energy() == serial.kinetic_energy()
            assert solver.f_stats() == serial.f_stats()
        finally:
            engine.close()


@pytest.mark.chaos
class TestChaosDrills:
    """SIGKILL a live domain worker mid-step; the run must finish with
    output bitwise-identical to serial either way — via respawn when
    retries remain, via the domain->serial degradation ladder when not."""

    def test_worker_kill_recovers_bitwise(self):
        f_serial = run_plasma(None)
        engine = DomainEngine(topology=(2, 1, 1), max_retries=2,
                              backoff_base=0.01)
        engine.fault_hook = _kill_hook(at_sweep=6)
        f_domain = run_plasma(engine)
        assert engine.retries >= 1
        assert not engine.degraded
        assert np.array_equal(f_domain, f_serial)

    def test_worker_kill_degrades_bitwise(self):
        f_serial = run_plasma(None)
        engine = DomainEngine(topology=(2, 1, 1), max_retries=0,
                              backoff_base=0.01)
        engine.fault_hook = _kill_hook(at_sweep=6)
        f_domain = run_plasma(engine)
        assert engine.degraded
        assert engine.degradations
        assert np.array_equal(f_domain, f_serial)
