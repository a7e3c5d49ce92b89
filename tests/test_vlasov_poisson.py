"""Self-consistent Vlasov-Poisson physics validation.

The classic plasma benchmarks (linear Landau damping, the two-stream
instability) have known analytic rates — passing them validates the whole
advection + splitting + Poisson + coupling stack at once.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.signal import argrelmax

from repro.core.mesh import PhaseSpaceGrid
from repro.core.vlasov_poisson import GravitationalVlasovPoisson, PlasmaVlasovPoisson
from repro.perf import pencil
from repro.perf.fft import get_default_backend
from repro.runtime import EXIT_COMPLETE, RunConfig, SimulationRunner, read_telemetry
from repro.runtime.config import (
    CheckpointConfig,
    EngineConfig,
    FaultsConfig,
    GridConfig,
    GuardConfig,
    ScheduleConfig,
)
from repro.runtime.scenarios import build_engine, build_stepper


def maxwellian(v, sigma=1.0):
    return np.exp(-(v**2) / (2 * sigma**2)) / np.sqrt(2 * np.pi) / sigma


class TestLandauDamping:
    @pytest.fixture(scope="class")
    def landau_run(self):
        k = 0.5
        grid = PhaseSpaceGrid(
            nx=(64,), nu=(128,), box_size=2 * np.pi / k, v_max=6.0, dtype=np.float64
        )
        vp = PlasmaVlasovPoisson(grid, scheme="slmpp5")
        x = grid.x_centers(0)[:, None]
        v = grid.u_centers(0)[None, :]
        vp.f = (1 + 0.01 * np.cos(k * x)) * maxwellian(v)
        energies, times = [], []
        for _ in range(160):
            vp.step(0.1)
            energies.append(vp.field_energy())
            times.append(vp.time)
        return vp, np.array(times), np.array(energies)

    def test_damping_rate(self, landau_run):
        """Linear theory: gamma = -0.1533 at k = 0.5 (Landau 1946)."""
        _, t, e = landau_run
        log_amp = 0.5 * np.log(e)
        peaks = argrelmax(log_amp)[0]
        peaks = peaks[(t[peaks] > 2) & (t[peaks] < 15)]
        gamma = np.polyfit(t[peaks], log_amp[peaks], 1)[0]
        assert gamma == pytest.approx(-0.1533, abs=0.008)

    def test_oscillation_frequency(self, landau_run):
        """Real frequency omega = 1.4156 at k = 0.5 (peaks at 2 omega)."""
        _, t, e = landau_run
        log_amp = 0.5 * np.log(e)
        peaks = argrelmax(log_amp)[0]
        peaks = peaks[(t[peaks] > 2) & (t[peaks] < 15)]
        omega = np.pi / np.diff(t[peaks]).mean()
        assert omega == pytest.approx(1.4156, rel=0.02)

    def test_mass_conserved(self, landau_run):
        vp, _, _ = landau_run
        expected = vp.grid.box_size  # unit-normalized Maxwellian
        assert vp.solver.total_mass() == pytest.approx(expected, rel=1e-4)

    def test_f_stays_positive(self, landau_run):
        vp, _, _ = landau_run
        assert vp.f.min() >= -1e-12


class TestTwoStream:
    def test_instability_growth_rate(self):
        """Two cold-ish beams at +-v0: the field energy grows exponentially
        at the kinetic two-stream rate before saturating."""
        k = 0.5
        v0 = 1.5  # k*v0 < omega_p: inside the unstable band
        grid = PhaseSpaceGrid(
            nx=(64,), nu=(128,), box_size=2 * np.pi / k, v_max=8.0, dtype=np.float64
        )
        vp = PlasmaVlasovPoisson(grid, scheme="slmpp5")
        x = grid.x_centers(0)[:, None]
        v = grid.u_centers(0)[None, :]
        f0 = 0.5 * (maxwellian(v - v0, 0.5) + maxwellian(v + v0, 0.5))
        vp.f = (1 + 0.001 * np.cos(k * x)) * f0
        energies, times = [], []
        for _ in range(250):
            vp.step(0.1)
            energies.append(vp.field_energy())
            times.append(vp.time)
        e = np.array(energies)
        t = np.array(times)
        # fit the linear phase: well above the seed, well below saturation
        window = (e > 30 * e[0]) & (e < e.max() / 10) & (t < t[e.argmax()])
        assert window.sum() > 5
        gamma = 0.5 * np.polyfit(t[window], np.log(e[window]), 1)[0]
        assert 0.1 < gamma < 0.7  # unstable, physically plausible rate
        assert e.max() > 100 * e[0]  # clear growth before saturation

    def test_stable_single_maxwellian_does_not_grow(self):
        grid = PhaseSpaceGrid(
            nx=(32,), nu=(64,), box_size=4 * np.pi, v_max=6.0, dtype=np.float64
        )
        vp = PlasmaVlasovPoisson(grid, scheme="slmpp5")
        x = grid.x_centers(0)[:, None]
        v = grid.u_centers(0)[None, :]
        vp.f = (1 + 0.01 * np.cos(0.5 * x)) * maxwellian(v)
        e0 = vp.field_energy()
        for _ in range(100):
            vp.step(0.1)
        assert vp.field_energy() < e0  # damped, not grown


class TestGravitationalVP:
    def test_uniform_state_is_stationary(self):
        """A homogeneous distribution has zero force and must not evolve
        (Jeans swindle handled by mean subtraction)."""
        grid = PhaseSpaceGrid(
            nx=(16,), nu=(32,), box_size=10.0, v_max=3.0, dtype=np.float64
        )
        gvp = GravitationalVlasovPoisson(grid, g_newton=1.0)
        v = grid.u_centers(0)[None, :]
        gvp.f = np.broadcast_to(maxwellian(v), grid.shape).copy()
        f0 = gvp.f.copy()
        for _ in range(5):
            gvp.step(0.05)
        assert np.allclose(gvp.f, f0, atol=1e-10)

    def test_jeans_instability_cold_medium(self):
        """A cold self-gravitating medium amplifies large-scale
        perturbations (Jeans unstable when k < k_J)."""
        grid = PhaseSpaceGrid(
            nx=(32,), nu=(64,), box_size=20.0, v_max=2.0, dtype=np.float64
        )
        gvp = GravitationalVlasovPoisson(grid, g_newton=1.0)
        x = grid.x_centers(0)[:, None]
        v = grid.u_centers(0)[None, :]
        k = 2 * np.pi / 20.0
        gvp.f = (1 + 0.01 * np.cos(k * x)) * maxwellian(v, 0.1)
        amp0 = (gvp.solver.density() / gvp.solver.density().mean() - 1).std()
        for _ in range(20):
            gvp.step(0.05)
        amp1 = (gvp.solver.density() / gvp.solver.density().mean() - 1).std()
        assert amp1 > 2.0 * amp0


class TestEnergyDiagnostics:
    def test_plasma_total_energy_conserved(self):
        """Kinetic <-> field exchange during Landau damping conserves the
        total to the splitting order."""
        grid = PhaseSpaceGrid(
            nx=(32,), nu=(64,), box_size=4 * np.pi, v_max=6.0, dtype=np.float64
        )
        vp = PlasmaVlasovPoisson(grid, scheme="slmpp5")
        x = grid.x_centers(0)[:, None]
        v = grid.u_centers(0)[None, :]
        vp.f = (1 + 0.05 * np.cos(0.5 * x)) * maxwellian(v)
        e0 = vp.total_energy()
        for _ in range(50):
            vp.step(0.1)
        assert vp.total_energy() == pytest.approx(e0, rel=1e-4)

    def test_gravity_collapse_energy_budget(self):
        """A (slightly cold) blob contracts, converting W into kinetic
        energy; the total is conserved to the splitting order as long as
        the collapse stays resolved (mild G, ~1 dynamical time)."""
        grid = PhaseSpaceGrid(
            nx=(32,), nu=(64,), box_size=20.0, v_max=4.0, dtype=np.float64
        )
        gvp = GravitationalVlasovPoisson(grid, g_newton=0.05)
        x = grid.x_centers(0)[:, None] - 10.0
        v = grid.u_centers(0)[None, :]
        gvp.f = np.exp(-(x**2) / 2.0) * maxwellian(v, 0.5)
        ke0 = gvp.solver.kinetic_energy()
        e0 = gvp.total_energy()
        for _ in range(60):
            gvp.step(0.025)
        assert gvp.solver.kinetic_energy() > 1.1 * ke0  # collapse heats it
        assert gvp.total_energy() == pytest.approx(e0, rel=5e-3)

    def test_potential_energy_negative_for_bound_blob(self):
        grid = PhaseSpaceGrid(
            nx=(32,), nu=(32,), box_size=20.0, v_max=3.0, dtype=np.float64
        )
        gvp = GravitationalVlasovPoisson(grid, g_newton=1.0)
        x = grid.x_centers(0)[:, None] - 10.0
        v = grid.u_centers(0)[None, :]
        gvp.f = np.exp(-(x**2) / 2.0) * maxwellian(v)
        assert gvp.potential_energy() < 0.0


# ----------------------------------------------------------------------
# one field solve per f state: the drivers' slot
# ----------------------------------------------------------------------

SLOT_CONFIGS = {
    "plasma": dict(
        scenario="plasma",
        grid=GridConfig(nx=(24,), nu=(24,), box_size=4 * np.pi, v_max=6.0),
        schedule=ScheduleConfig(kind="time", dt=0.1, n_steps=6),
        params={"amplitude": 0.05},
    ),
    "gravitational": dict(
        scenario="gravitational",
        grid=GridConfig(nx=(16,), nu=(16,), box_size=10.0, v_max=4.0),
        schedule=ScheduleConfig(kind="time", dt=0.05, n_steps=6),
        params={"g_newton": 0.05, "amplitude": 0.05, "sigma_v": 1.0},
    ),
}

ENGINES = {
    "serial": EngineConfig(),
    "pencil": EngineConfig(backend="threads", n_workers=2),
    "domain": EngineConfig(engine="domain", topology=[2]),
}


def slot_config(scenario: str, engine: str, **overrides) -> RunConfig:
    base = dict(SLOT_CONFIGS[scenario], name=f"t-slot-{scenario}",
                engine=ENGINES[engine])
    base.update(overrides)
    return RunConfig(**base).validate()


def _mutate(stepper, how: str) -> None:
    """Change f through one of the paths that must invalidate the slot."""
    solver = stepper.driver.solver
    if how == "setter":
        stepper.driver.f = stepper.f * 1.03
    elif how == "notify":
        f = stepper.f
        f[: f.shape[0] // 2] *= 1.05
        stepper.notify_f_mutated()
    elif how == "kick":
        x = np.arange(stepper.grid.nx[0])
        accel = np.sin(2 * np.pi * x / x.size)[None] * np.ones((1,) + stepper.grid.nx)
        solver.kick(accel, 0.2)
    elif how == "drift":
        solver.drift(0.3)
    else:  # restore
        stepper.restore(np.roll(stepper.f, 3, axis=0) * 0.98, None,
                        {"time": 0.4, "step": 2, "a": 1.0})


class TestFieldSlot:
    """The ledger's solve is the next kick's, and nothing else reuses it."""

    @pytest.fixture(autouse=True)
    def shard_small_arrays(self, monkeypatch):
        """The pencil engine shards even these small grids."""
        monkeypatch.setattr(pencil, "MIN_SHARD_BYTES", 0)

    @pytest.mark.parametrize("engine", ["serial", "pencil", "domain"])
    @pytest.mark.parametrize("scenario", ["plasma", "gravitational"])
    def test_every_mutation_path_invalidates(self, scenario, engine):
        config = slot_config(scenario, engine)
        eng, fresh_eng = build_engine(config), build_engine(config)
        try:
            stepper = build_stepper(config, engine=eng)
            backend = stepper.driver.poisson.backend or get_default_backend()
            for how in ("setter", "notify", "kick", "drift", "restore"):
                before = stepper.conserved()["energy"]
                n0 = backend.n_forward
                assert stepper.conserved()["energy"] == before
                assert backend.n_forward == n0  # same f: the slot answered
                _mutate(stepper, how)
                after = stepper.conserved()["energy"]
                assert backend.n_forward == n0 + 1, how  # re-solved
                fresh = build_stepper(config, engine=fresh_eng)
                fresh.driver.f = np.array(stepper.f)
                assert after == fresh.driver.total_energy(), (how, engine)
                assert after != before, how
                n1 = backend.n_forward
                stepper.advance()  # the kick reads the ledger's solve
                assert backend.n_forward == n1, how
        finally:
            eng.close()
            fresh_eng.close()

    @pytest.mark.parametrize("engine", ["serial", "pencil", "domain"])
    @pytest.mark.parametrize("scenario", ["plasma", "gravitational"])
    def test_rollback_energies_match_a_clean_run(self, scenario, engine, tmp_path):
        """A rollback restores f into a fresh stepper: every energy the
        ledger records afterwards is the clean run's, bit for bit.  Both
        share the step cadence, whose multiples are sync points."""
        cadence = CheckpointConfig(every_steps=2, keep_last=3)
        clean = slot_config(scenario, engine, checkpoint=cadence)
        assert SimulationRunner.create(clean, tmp_path / "clean").run() == EXIT_COMPLETE
        faulted = slot_config(
            scenario, engine,
            checkpoint=cadence,
            guards=GuardConfig(nan="rollback"),
            faults=FaultsConfig(seed=1, events=[{"kind": "inject_nan", "step": 3}]),
        )
        runner = SimulationRunner.create(faulted, tmp_path / "faulted")
        assert runner.run() == EXIT_COMPLETE
        assert runner.manifest()["rollbacks"] == 1

        def energies(run_dir):
            return {r["step"]: r["conserved"]["energy"]
                    for r in read_telemetry(run_dir / "telemetry.jsonl")}

        assert energies(tmp_path / "faulted") == energies(tmp_path / "clean")

    def test_slot_arrays_are_read_only(self):
        grid = PhaseSpaceGrid(nx=(16,), nu=(16,), box_size=10.0, v_max=3.0,
                              dtype=np.float64)
        vp = PlasmaVlasovPoisson(grid)
        gvp = GravitationalVlasovPoisson(grid, g_newton=1.0)
        u = grid.u_centers(0)[None, :]
        for driver in (vp, gvp):
            driver.f = np.broadcast_to(maxwellian(u), grid.shape).copy()
            phi, accel = driver.fields()
            for array in (phi, accel, driver.acceleration()):
                with pytest.raises(ValueError):
                    array[0] = 1.0
