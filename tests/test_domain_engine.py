"""Real-transport domain engine: bitwise identity, residency, parity.

The :class:`~repro.parallel.domain.DomainEngine` pins each spatial block
to a persistent shared-memory worker and must reproduce the serial
solver *bitwise* — same splitting, same stencil, same FFT plan — across
topologies, uneven grids, dtypes, drifts past one cell, and worker
deaths; a plan whose halo does not fit the blocks is refused untouched.
These tests hold it to that, plus its halo accounting (the bytes a step
lands equal the closed form of the ghost planes, on even and uneven
blocks) and the residency of f: two shared buffers, ``engine.f`` the
current one, four segments in all, none left after ``close()``.

Chaos drills (SIGKILL of a live worker mid-step) are marked
``@pytest.mark.chaos`` and run by the dedicated CI chaos job.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.engine import SweepEngine
from repro.core.mesh import PhaseSpaceGrid
from repro.core.vlasov import VlasovSolver
from repro.core.vlasov_poisson import GravitationalVlasovPoisson, PlasmaVlasovPoisson
from repro.diagnostics import ConservationLedger, StepTimer
from repro.io.snapshot import read_checkpoint
from repro.parallel import DomainEngine
from repro.runtime import RunConfig
from repro.runtime.config import (
    CheckpointConfig,
    EngineConfig,
    FaultsConfig,
    GridConfig,
    ScheduleConfig,
)
from repro.runtime.guards import GuardSuite
from repro.runtime.scenarios import build_engine, build_stepper

from .helpers import failed_run_resumes

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


def in_buffers(engine) -> bool:
    """Whether ``engine.f`` is one of the engine's two shared buffers."""
    return any(np.shares_memory(engine.f, buf) for buf in engine._bufs)


class TestBitwiseIdentity:
    """Acceptance: bitwise-identical to serial for both drivers at >= 2
    worker topologies."""

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_plasma_bitwise(self, topology):
        f_serial = run_plasma(None)
        engine = DomainEngine(topology=topology)
        f_domain = run_plasma(engine)
        assert np.array_equal(f_domain, f_serial)

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_gravitational_bitwise(self, topology):
        f_serial = run_gravity(None)
        engine = DomainEngine(topology=topology)
        f_domain = run_gravity(engine)
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
        the blocks' width here), and f stays in the shared buffers."""
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
            assert in_buffers(engine)
            assert engine.retries == 0
            assert vp.f.tobytes() == f_serial.tobytes()
        finally:
            engine.close()

    def test_plan_past_the_ghost_width_is_refused_untouched(self):
        """Blocks of 4 planes take ghosts up to 4 planes (slmpp5: CFL < 2).
        A drift at CFL 2.3 needs 5: ``run`` refuses the whole plan before
        any worker round — the z and y sweeps ahead of x included — and
        names the largest dt/dx that fits, (4 - 2) / max|u| = 0.8.  It is
        not a worker failure: no retry, no buffer flip."""
        from repro.runtime import telemetry

        grid = make_grid()
        engine = DomainEngine(topology=(2, 1, 1))
        events = []
        try:
            solver = VlasovSolver(grid, engine=engine)
            solver.f = initial_f(grid)
            solver.drift(DT)
            before = solver.f.tobytes()
            counts = (engine.f_version, engine._cur, engine.retries)
            max_u = float(np.abs(grid.u_centers(0)).max())
            with telemetry.event_sink(lambda kind, **_: events.append(kind)):
                with pytest.raises(ValueError, match=r"axis 0: .*CFL 2\.3.*"
                                   r"dt/dx must stay below 0\.8 "):
                    solver.drift(2.3 * grid.dx[0] / max_u)
            assert (engine.f_version, engine._cur, engine.retries) == counts
            assert solver.f.tobytes() == before
            assert "domain_worker_failure" not in events
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
        assert f_domain.dtype == np.dtype(dtype)
        assert np.array_equal(f_domain, f_serial)

    def test_uneven_gravity_bitwise(self):
        nx = (9, 8, 6)
        f_serial = run_gravity(None, nx=nx)
        engine = DomainEngine(topology=(2, 2, 1))
        f_domain = run_gravity(engine, nx=nx)
        assert np.array_equal(f_domain, f_serial)


class TestWorkerResidency:
    """f lives in two shared buffers: ``engine.f`` is the current one,
    read and written by the parent in place, never gathered."""

    def test_no_gather_during_steps(self):
        """After steps, ``engine.f`` is one of the two buffers and equals
        the serial f bitwise."""
        grid = make_grid()
        f_serial = run_plasma(None)
        engine = DomainEngine(topology=(2, 2, 1))
        try:
            vp = PlasmaVlasovPoisson(grid, engine=engine)
            vp.f = initial_f(grid)
            for _ in range(STEPS):
                vp.step(DT)
            assert len(engine._bufs) == 2 and in_buffers(engine)
            assert vp.f is engine.f
            assert vp.f.tobytes() == f_serial.tobytes()
        finally:
            engine.close()

    def test_guard_stats_distributed(self, monkeypatch):
        """Guard inputs (non-finite count, min) are one ``reduce`` round
        of per-block partials, exact against f itself."""
        grid = make_grid()
        engine = DomainEngine(topology=(2, 1, 1))
        try:
            vp = PlasmaVlasovPoisson(grid, engine=engine)
            vp.f = initial_f(grid)
            vp.step(DT)
            rounds = []
            real_round = engine._round
            monkeypatch.setattr(engine, "_round",
                                lambda payloads: rounds.append(payloads[0][0])
                                or real_round(payloads))
            n_bad, fmin = vp.solver.f_stats()
            assert rounds == ["reduce"]
            assert n_bad == 0
            assert fmin == float(vp.f.min())
        finally:
            engine.close()

    def test_poisoned_f_reaches_the_workers(self):
        """A write into ``engine.f`` is a write into the buffer the next
        round reads: after ``mark_mutated()`` the reductions see it and
        the next step equals the serial step on the same poisoned f."""
        grid = make_grid()
        cells = np.array([5, 700, 9000, 20000])

        def poisoned_step(engine):
            vp = PlasmaVlasovPoisson(grid, engine=engine)
            vp.f = initial_f(grid)
            vp.step(DT)
            vp.f.reshape(-1)[cells] = -0.5
            vp.solver.notify_f_mutated()
            stats = vp.solver.f_stats()
            vp.step(DT)
            return stats, vp.f.tobytes()

        serial = poisoned_step(None)
        engine = DomainEngine(topology=(2, 2, 1))
        try:
            stats, f_bytes = poisoned_step(engine)
            assert in_buffers(engine)
        finally:
            engine.close()
        assert stats == serial[0] == (0, -0.5)
        assert f_bytes == serial[1]

    # the view held across close() keeps its segment mapped, on purpose:
    # the segment's own close fails with a BufferError release_segment takes
    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnraisableExceptionWarning")
    def test_f_reads_back_after_close(self):
        """``close()`` copies f out before it unlinks the buffers; an
        array taken from ``engine.f`` before it still reads (its mapping
        outlives the unlink) instead of pointing at unmapped memory."""
        grid = make_grid()
        engine = DomainEngine(topology=(2, 1, 1))
        vp = PlasmaVlasovPoisson(grid, engine=engine)
        vp.f = initial_f(grid)
        vp.step(DT)
        before = vp.f.tobytes()
        held = vp.f
        engine.close()
        assert not engine._bufs and not engine._segments
        assert vp.f.tobytes() == before
        assert not np.shares_memory(vp.f, held)
        assert held.tobytes() == before

    def test_bound_engine_holds_four_segments(self):
        """Two whole-f buffers, ``rho`` and ``accel``, created at bind,
        whatever the worker count; a rebind to another grid replaces
        them, and none is left registered after ``close()``."""
        from repro.perf.substrate import LIVE_SEGMENTS

        engine = DomainEngine(topology=(2, 2, 1))
        try:
            for grid in (make_grid(), make_grid(nx=(12, 8, 6))):
                engine.bind(grid, "slmpp5")
                assert sorted(engine._segments) == ["accel", "f0", "f1", "rho"]
                assert not engine._procs  # workers start at the first round
                assert set(LIVE_SEGMENTS) \
                    == {id(s) for s in engine._segments.values()}
                nbytes = grid.zeros_f().nbytes
                assert [b.nbytes for b in engine._bufs] == [nbytes, nbytes]
                assert in_buffers(engine) and not engine.f.any()
        finally:
            engine.close()
        assert not LIVE_SEGMENTS

    def test_a_worker_view_holds_its_segment_open(self):
        """A worker's block view holds a buffer export of the segment it
        was attached to: closing that segment under the view raises
        ``BufferError`` instead of unmapping memory the view still reads
        (an ``ndarray(buffer=)`` view holds none, and the next read
        would fault)."""
        from multiprocessing import shared_memory

        from repro.parallel.workers import WorkerSpec, _WorkerState

        grid = make_grid()
        shm = shared_memory.SharedMemory(
            create=True, size=int(np.prod(grid.shape)) * grid.dtype.itemsize)
        try:
            spec = WorkerSpec(
                rank=0, grid=grid, scheme="slmpp5", f_names=(shm.name, shm.name),
                bounds=(tuple((0, n) for n in grid.nx),),
                neighbors=((0, 0),) * grid.dim,
                rho_name=shm.name, accel_name=shm.name,
            )
            state = _WorkerState(spec)
            block = state.block(0, 0)
            with pytest.raises(BufferError):
                state._segment(shm.name).close()
            del block
            state.close()
        finally:
            shm.close()
            shm.unlink()

    def test_segment_exhaustion_at_bind_leaves_nothing(self, monkeypatch):
        """``/dev/shm`` full at the third segment: ``bind`` raises the
        ``OSError`` and ``close()`` releases the two made before it."""
        import errno
        from multiprocessing import shared_memory

        from repro.perf.substrate import LIVE_SEGMENTS

        real = shared_memory.SharedMemory
        made = []

        def exhausting(*args, **kwargs):
            if len(made) == 2:
                raise OSError(errno.ENOSPC, "No space left on device")
            shm = real(*args, **kwargs)
            made.append(shm.name)
            return shm

        monkeypatch.setattr(shared_memory, "SharedMemory", exhausting)
        engine = DomainEngine(topology=(2, 1, 1))
        with pytest.raises(OSError) as info:
            engine.bind(make_grid(), "slmpp5")
        assert info.value.errno == errno.ENOSPC
        assert len(engine._segments) == 2
        engine.close()
        monkeypatch.undo()
        assert not engine._segments and not LIVE_SEGMENTS
        for name in made:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

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
    """The engine's halo accounting is the closed form of the traffic a
    partitioned drift lands: ``2 · g · n_proc[d] · (∏ nx / nx[d]) · ∏ nu
    · itemsize`` bytes per sweep along axis ``d``, even blocks or not."""

    @pytest.mark.parametrize("nx", [NX, (9, 8, 6)], ids=["even", "uneven"])
    def test_halo_bytes_match_the_closed_form(self, nx):
        grid = make_grid(nx=nx)
        topology = (2, 2, 1)
        engine = DomainEngine(topology=topology)
        timer = StepTimer()
        try:
            vp = PlasmaVlasovPoisson(grid, engine=engine, timer=timer)
            vp.f = initial_f(grid)
            vp.step(DT)
            halo_bytes = engine.halo_bytes
        finally:
            engine.close()
        # the worker's one block sweep, halo landing included, is the
        # whole section: no halo slab, no boundary re-advection
        assert "domain/interior" in timer.sections
        assert not {"domain/halo", "domain/boundary", "domain/fft"} \
            & set(timer.sections)

        # one step drifts once along every axis (kicks are velocity
        # sweeps, no halo); at CFL < 1 slmpp5 lands 3 planes per side,
        # and the transverse faces of the blocks along a partitioned
        # axis d sum to n_proc[d] cross-sections of the mesh
        g, itemsize = 3, 8
        cells = int(np.prod(nx))
        expected = sum(
            2 * g * topology[d] * (cells // nx[d]) * int(np.prod(NU)) * itemsize
            for d in range(3) if topology[d] > 1
        )
        assert halo_bytes == expected == {
            NX: 2 * 995_328, (9, 8, 6): 995_328 + 1_119_744,
        }[nx]

    def test_halo_accounting_is_bounded_by_topology(self):
        """20 steps move 20 times one step's bytes, and the engine's
        halo accounting is that one integer: no table grows with the
        ranks, the pairs or the steps."""
        grid = make_grid()
        engine = DomainEngine(topology=(2, 2, 1))
        try:
            vp = PlasmaVlasovPoisson(grid, engine=engine)
            vp.f = initial_f(grid)
            vp.step(DT)
            bytes_one = engine.halo_bytes
            for _ in range(19):
                vp.step(DT)
            assert engine.halo_bytes == 20 * bytes_one > 0
            assert [k for k in vars(engine) if "halo" in k] == ["halo_bytes"]
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
        assert set(dom) == {"halo_exchanges", "halo_bytes", "worker_failures",
                            "section_seconds"}
        assert dom["worker_failures"] == 1
        assert dom["section_seconds"]["halo"] == pytest.approx(0.002)
        assert dom["section_seconds"]["interior"] == pytest.approx(0.005)

    def test_summarize_domain_block_events_only(self, tmp_path):
        """Event-only streams (no step records) still get the block."""
        from repro.runtime import telemetry

        path = tmp_path / "t.jsonl"
        with telemetry.TelemetryWriter(path) as w:
            w.event("domain_worker_failure", attempt=0, error="worker lost")
        s = telemetry.summarize(path)
        assert s["domain"]["worker_failures"] == 1

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

    def hook(engine):
        calls["n"] += 1
        if calls["n"] == at_sweep:
            engine.inject(_kill_self)

    return hook


class FirstSweeps(SweepEngine):
    """Serial engine that runs only the first ``n`` sweeps handed to it:
    the state a plan cut short at sweep ``n + 1`` leaves."""

    def __init__(self, n: int) -> None:
        super().__init__()
        self.left = n

    def run(self, plan, accel) -> None:
        take = plan[:self.left]
        self.left -= len(take)
        super().run(take, accel)


class TestWorkerLostPastRetries:
    """A worker killed past ``max_retries`` mid-plan ends the run: the
    round raises ``DomainWorkerError`` and f holds the sweeps before the
    failed one, none after it: no other code path finishes the plan."""

    def test_raises_with_the_completed_sweeps_in_f(self):
        from repro.parallel.domain import DomainWorkerError
        from repro.perf.substrate import LIVE_SEGMENTS

        grid = make_grid()
        accel = np.random.default_rng(9).standard_normal((3,) + grid.nx)

        def step(solver):
            solver.f = initial_f(grid)
            for _ in range(2):  # K(h/2) D(h) K(h/2), composed here
                solver.kick(accel, 0.01)
                solver.drift(DT)
                solver.kick(accel, 0.01)

        serial = VlasovSolver(grid, engine=FirstSweeps(4))
        step(serial)
        engine = DomainEngine(topology=(2, 1, 1), max_retries=0,
                              backoff_base=0.01)
        engine.fault_hook = _kill_hook(at_sweep=5)  # inside the first drift
        solver = VlasovSolver(grid, engine=engine)
        try:
            with pytest.raises(DomainWorkerError):
                step(solver)
            assert engine.retries == 1 and not engine._procs
            # the three kick sweeps and the first drift sweep landed
            assert solver.f.tobytes() == serial.f.tobytes()
            assert in_buffers(engine)
        finally:
            engine.close()
        assert not engine._segments and not LIVE_SEGMENTS
        assert solver.f.tobytes() == serial.f.tobytes()


def chaos_config(n_steps=4, **engine) -> RunConfig:
    """A gravitational run on two domain workers, a checkpoint per step."""
    return RunConfig(
        scenario="gravitational", name="t-domain-chaos",
        grid=GridConfig(nx=(8, 6, 6), nu=(6, 6, 6), box_size=1.0,
                        v_max=3.0, dtype="float32"),
        schedule=ScheduleConfig(kind="time", dt=0.02, n_steps=n_steps),
        checkpoint=CheckpointConfig(every_steps=1, keep_last=8),
        engine=EngineConfig(engine="domain", topology=[2, 1, 1],
                            backoff_base=0.01, **engine),
    )


@pytest.mark.chaos
class TestChaosDrills:
    """SIGKILL a live domain worker mid-step.  With retries left the
    fleet respawns and the step finishes bitwise-identical to serial;
    past them the run fails, leaves a clean run directory, and its
    resume ends bitwise on the serial run."""

    def test_worker_kill_recovers_bitwise(self):
        f_serial = run_plasma(None)
        engine = DomainEngine(topology=(2, 1, 1), max_retries=2,
                              backoff_base=0.01)
        engine.fault_hook = _kill_hook(at_sweep=6)
        f_domain = run_plasma(engine)
        assert engine.retries >= 1
        assert np.array_equal(f_domain, f_serial)

    def test_worker_lost_past_retries_fails_and_resumes_bitwise(self, tmp_path):
        from repro.parallel.domain import DomainWorkerError
        from repro.runtime import SimulationRunner, read_events

        serial = dataclasses.replace(chaos_config(), engine=EngineConfig())
        assert SimulationRunner.create(serial, tmp_path / "ref").run() == 0
        ref_ck = tmp_path / "ref" / "checkpoints" / "ck_00000004.npz"
        # the resume re-runs step 2, where the kill has already fired
        killed = dataclasses.replace(
            chaos_config(max_retries=0),
            faults=FaultsConfig(events=[{"kind": "kill_worker", "step": 2}]),
        )
        f_final = failed_run_resumes(killed, tmp_path / "kill",
                                     DomainWorkerError)
        assert f_final.tobytes() == read_checkpoint(ref_ck)[1].tobytes()
        kinds = [e["event"] for e in read_events(tmp_path / "kill"
                                                 / "telemetry.jsonl")]
        assert kinds.count("domain_worker_failure") == 1
