"""The fused spectral field pipeline: FFT budget, equivalence, timers.

Issue regression: the spectral-gradient field solve used to pay
``1 + dim`` forward transforms per solve (``gradient(..., "spectral")``
re-transformed phi inside the per-axis loop, and ``PMSolver`` duplicated
the transform logic again).  These tests pin the fused
``solve_fields`` path to **exactly one** forward transform per solve —
via a counting backend installed as the process default — and pin its
output to the historical ``potential`` + per-axis ``gradient``
composition at float64 round-off for both Green's functions and all
three gradient methods.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.mesh import PhaseSpaceGrid
from repro.core.vlasov_poisson import GravitationalVlasovPoisson, PlasmaVlasovPoisson
from repro.diagnostics import StepTimer
from repro.gravity.poisson import PeriodicPoissonSolver
from repro.nbody.pm import PMSolver
from repro.nbody.treepm import TreePMSolver
from repro.perf.fft import SpectralBackend, set_default_backend
from repro.runtime import EXIT_COMPLETE, RunConfig, SimulationRunner, read_telemetry
from repro.runtime.config import EngineConfig, GridConfig, ScheduleConfig
from repro.runtime.runner import TELEMETRY_NAME


@pytest.fixture
def counting_backend():
    """A fresh default backend whose transform counters start at zero.

    Installed process-wide so every solver constructed inside the test
    (drivers build their own ``PeriodicPoissonSolver``) routes through
    it; the previous default is restored afterwards.
    """
    backend = SpectralBackend()
    previous = set_default_backend(backend)
    yield backend
    set_default_backend(previous)


def legacy_compose(solver, source, method, kernel=None):
    """The pre-fuse composition, verbatim: potential, then per-axis
    gradients — with the spectral method re-transforming phi each axis."""
    s_k = np.fft.rfftn(np.asarray(source, dtype=np.float64))
    phi_k = s_k * solver._inv_laplacian
    if kernel is not None:
        phi_k = phi_k * kernel
    dims = range(solver.dim)
    phi = np.fft.irfftn(phi_k, s=solver.nx, axes=dims)
    accel = np.empty((solver.dim,) + solver.nx)
    for d in dims:
        if method == "spectral":
            grad_k = np.fft.rfftn(phi) * (1j * solver._k_axes[d])
            accel[d] = -np.fft.irfftn(grad_k, s=solver.nx, axes=dims)
        else:
            accel[d] = -solver._fd_gradient(phi, d, method)
    return phi, accel


class TestFFTBudget:
    """Exactly one forward transform per field solve."""

    @pytest.mark.parametrize("method", ["spectral", "fd2", "fd4"])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_solve_fields_single_forward(self, counting_backend, dim, method):
        n = 16
        solver = PeriodicPoissonSolver((n,) * dim, box_size=1.0)
        rng = np.random.default_rng(dim)
        src = rng.standard_normal((n,) * dim)
        counting_backend.reset_counts()
        solver.solve_fields(src, method)
        assert counting_backend.n_forward == 1
        # spectral: one inverse for phi + one per axis; fd: just phi
        expected_inv = 1 + dim if method == "spectral" else 1
        assert counting_backend.n_inverse == expected_inv

    @pytest.mark.parametrize("method", ["spectral", "fd2", "fd4"])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_acceleration_skips_phi_inverse(self, counting_backend, dim, method):
        """The force-only solve never inverts phi on the spectral route:
        1 + dim transforms total (the fd methods still need phi)."""
        n = 16
        solver = PeriodicPoissonSolver((n,) * dim, box_size=1.0)
        rng = np.random.default_rng(dim)
        src = rng.standard_normal((n,) * dim)
        counting_backend.reset_counts()
        solver.acceleration(src, method)
        assert counting_backend.n_forward == 1
        expected_inv = dim if method == "spectral" else 1
        assert counting_backend.n_inverse == expected_inv

    def test_plasma_acceleration_single_forward(self, counting_backend):
        grid = PhaseSpaceGrid(
            nx=(16, 16), nu=(4, 4), box_size=1.0, v_max=2.0, dtype=np.float64
        )
        vp = PlasmaVlasovPoisson(grid)
        rng = np.random.default_rng(0)
        vp.f = 1.0 + 0.1 * rng.random(grid.shape)
        counting_backend.reset_counts()
        vp.acceleration()
        assert counting_backend.n_forward == 1
        # spectral gradients on a 2-D mesh, no phi inverse: 2 inverses
        assert counting_backend.n_inverse == 2

    def test_gravitational_acceleration_single_forward(self, counting_backend):
        grid = PhaseSpaceGrid(
            nx=(16,), nu=(8,), box_size=1.0, v_max=2.0, dtype=np.float64
        )
        gvp = GravitationalVlasovPoisson(grid, g_newton=1.0)
        rng = np.random.default_rng(1)
        gvp.f = 1.0 + 0.1 * rng.random(grid.shape)
        counting_backend.reset_counts()
        gvp.acceleration()
        assert counting_backend.n_forward == 1

    @pytest.mark.parametrize("method", ["spectral", "fd4"])
    def test_pm_acceleration_mesh_single_forward(self, counting_backend, method):
        pm = PMSolver((12, 12), 1.0, r_split=0.1, deconvolve=True)
        rng = np.random.default_rng(2)
        src = rng.standard_normal((12, 12))
        counting_backend.reset_counts()
        pm.acceleration_mesh(src, method)
        assert counting_backend.n_forward == 1
        assert counting_backend.n_inverse == (2 if method == "spectral" else 1)

    def test_pm_potential_mesh_single_forward(self, counting_backend):
        pm = PMSolver((12, 12, 12), 1.0, r_split=0.1)
        rng = np.random.default_rng(3)
        src = rng.standard_normal((12, 12, 12))
        counting_backend.reset_counts()
        pm.potential_mesh(src)
        assert counting_backend.n_forward == 1
        assert counting_backend.n_inverse == 1

    @pytest.mark.parametrize("driver", ["plasma", "gravitational", "hybrid"])
    def test_steady_step_is_costmodel_step(
            self, counting_backend, driver, cosmo):
        """A steady merged step runs ``costmodel.SWEEPS_PER_STEP`` (6)
        sweeps and one forward transform; a one-step run (the step and
        the closing synchronize()) still runs 9 sweeps."""
        from repro.core.engine import SweepEngine
        from repro.core.hybrid import HybridSimulation, build_neutrino_component
        from repro.machine.costmodel import SWEEPS_PER_STEP
        from repro.nbody.particles import ParticleSet

        class CountingEngine(SweepEngine):
            sweeps = 0

            def run(self, plan, accel):
                self.sweeps += len(plan)
                super().run(plan, accel)

        engine = CountingEngine()
        if driver == "hybrid":
            grid = PhaseSpaceGrid(nx=(6,) * 3, nu=(6,) * 3, box_size=200.0,
                                  v_max=4000.0)
            mass = cosmo.omega_m * cosmo.units.rho_crit * 200.0**3
            cdm = ParticleSet.uniform_random(216, 200.0, mass,
                                             np.random.default_rng(0))
            sim = HybridSimulation(grid, cdm, cosmo, a=0.1, use_tree=False,
                                   engine=engine)
            sim.neutrinos.f = build_neutrino_component(grid, cosmo)
            steps = iter(np.linspace(0.1, 0.2, 5)[1:])
            step = lambda: sim.step(float(next(steps)))  # noqa: E731
        else:
            grid = PhaseSpaceGrid(nx=(6,) * 3, nu=(6,) * 3, box_size=10.0,
                                  v_max=3.0, dtype=np.float64)
            if driver == "plasma":
                sim = PlasmaVlasovPoisson(grid, engine=engine)
                step = lambda: sim.step(0.05)  # noqa: E731
            else:
                sim = GravitationalVlasovPoisson(grid, g_newton=0.1,
                                                 engine=engine)
                step = lambda: sim.step_static(0.05)  # noqa: E731
            x = grid.x_centers(0)[:, None, None, None, None, None]
            u = grid.u_centers(0)[None, None, None, :, None, None]
            sim.f = np.broadcast_to(
                (1 + 0.1 * np.cos(2 * np.pi * x / 10.0)) * np.exp(-(u**2) / 2),
                grid.shape).copy()
        step()
        assert engine.sweeps == 6
        sim.synchronize()
        assert engine.sweeps == 9
        for _ in range(2):
            engine.sweeps = 0
            counting_backend.reset_counts()
            step()
            assert engine.sweeps == SWEEPS_PER_STEP == 6
            assert counting_backend.n_forward == 1


class TestEquivalence:
    """solve_fields == the old potential+gradient composition, float64
    round-off, for both Green's functions and all gradient methods."""

    @pytest.mark.parametrize("green", ["spectral", "discrete"])
    @pytest.mark.parametrize("method", ["spectral", "fd2", "fd4"])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_legacy_composition(self, green, method, dim):
        n = {1: 64, 2: 24, 3: 12}[dim]
        solver = PeriodicPoissonSolver((n,) * dim, box_size=3.7, green=green)
        rng = np.random.default_rng(dim * 7 + len(method))
        src = rng.standard_normal((n,) * dim)
        src -= src.mean()
        phi_ref, acc_ref = legacy_compose(solver, src, method)
        phi, acc = solver.solve_fields(src, method)
        scale = np.abs(phi_ref).max()
        assert np.allclose(phi, phi_ref, atol=1e-13 * scale, rtol=1e-13)
        ascale = np.abs(acc_ref).max()
        assert np.allclose(acc, acc_ref, atol=1e-12 * ascale, rtol=1e-12)

    def test_pm_kernel_folds_into_same_spectrum(self):
        """The Gaussian cut + deconvolution multiply into phi_k; the
        result equals the legacy duplicated-transform PM path."""
        pm = PMSolver((16, 16), 2.0, window="tsc", r_split=0.2, deconvolve=True)
        rng = np.random.default_rng(5)
        src = rng.standard_normal((16, 16))
        src -= src.mean()
        phi_ref, acc_ref = legacy_compose(
            pm.poisson, src, "fd4", kernel=pm._kernel_extra
        )
        assert np.allclose(pm.potential_mesh(src), phi_ref, atol=1e-12)
        phi, acc = pm.fields_mesh(src, "fd4")
        assert np.allclose(phi, phi_ref, atol=1e-12)
        assert np.allclose(acc, acc_ref, atol=1e-12)

    def test_treepm_threads_backend(self):
        """An explicit backend handed to TreePM carries every PM
        transform (and still performs one forward per solve)."""
        backend = SpectralBackend()
        # 12^3: the coarsest mesh the tree accepts (min_tree_mesh)
        tp = TreePMSolver((12, 12, 12), 10.0, g_newton=1.0, eps=0.05,
                          fft_backend=backend)
        rng = np.random.default_rng(6)
        src = rng.standard_normal((12, 12, 12))
        src -= src.mean()
        tp.pm.acceleration_mesh(src)
        assert backend.n_forward == 1

    def test_acceleration_shortcut(self):
        solver = PeriodicPoissonSolver((32,), box_size=2 * np.pi)
        x = solver.dx[0] * np.arange(32)
        src = np.sin(3 * x)
        acc = solver.acceleration(src, "spectral")
        _, acc2 = solver.solve_fields(src, "spectral")
        assert np.array_equal(acc, acc2)

    def test_invalid_method_rejected(self):
        solver = PeriodicPoissonSolver((8,), box_size=1.0)
        with pytest.raises(ValueError):
            solver.solve_fields(np.ones(8), "magic")
        with pytest.raises(ValueError):
            solver.solve_fields(np.ones(4), "fd4")


class TestTimerSections:
    def test_plasma_step_splits_poisson_sections(self):
        """The old catch-all ``poisson`` section is split so the report
        localizes moments vs transform vs gradient time."""
        grid = PhaseSpaceGrid(
            nx=(16,), nu=(16,), box_size=2 * np.pi, v_max=4.0, dtype=np.float64
        )
        timer = StepTimer()
        vp = PlasmaVlasovPoisson(grid, timer=timer)
        x = grid.x_centers(0)[:, None]
        u = grid.u_centers(0)[None, :]
        vp.f = (1 + 0.01 * np.cos(x)) * np.exp(-(u**2) / 2)
        vp.step(0.05)
        for name in ("poisson", "poisson/moments", "poisson/fft", "poisson/grad"):
            assert name in timer.sections, name
        # one field solve per merged step
        assert timer.sections["poisson/fft"].count == 1

    def test_gravitational_step_splits_poisson_sections(self):
        grid = PhaseSpaceGrid(
            nx=(16,), nu=(16,), box_size=10.0, v_max=3.0, dtype=np.float64
        )
        timer = StepTimer()
        gvp = GravitationalVlasovPoisson(grid, g_newton=1.0, timer=timer)
        u = grid.u_centers(0)[None, :]
        gvp.f = np.broadcast_to(np.exp(-(u**2) / 2), grid.shape).copy()
        gvp.step_static(0.05)
        for name in ("poisson", "poisson/moments", "poisson/fft", "poisson/grad"):
            assert name in timer.sections, name


class TestBackend:
    def test_counts_and_stats(self):
        be = SpectralBackend()
        x = np.random.default_rng(0).standard_normal((8, 8))
        x_k = be.rfftn(x)
        y = be.irfftn(x_k, s=(8, 8))
        assert np.allclose(y, x, atol=1e-12)
        assert (be.n_forward, be.n_inverse) == (1, 1)
        stats = be.stats()
        assert stats["n_plans"] == 2
        be.reset_counts()
        assert (be.n_forward, be.n_inverse) == (0, 0)
        assert be.stats()["n_plans"] == 2  # plans survive a counter reset

    @pytest.mark.parametrize("shape", [(32,), (16, 8, 8), (8, 8, 8),
                                       (12, 10, 6), (16, 12)])
    def test_transforms_are_scipy_bits(self, shape):
        """numpy.fft in the backend's separable order reproduces the bits
        every recorded checksum was made with (scipy.fft's ``rfftn`` and
        separable inverse): scipy is the oracle here, not a dependency of
        the run path."""
        sfft = pytest.importorskip("scipy.fft")
        x = np.random.default_rng(len(shape)).standard_normal(shape)
        be = SpectralBackend()
        x_k = be.rfftn(x)
        assert x_k.tobytes() == sfft.rfftn(x, workers=1).tobytes()
        ref = x_k
        for ax, n in enumerate(shape[:-1]):
            ref = sfft.ifft(ref, n=n, axis=ax, workers=1)
        ref = sfft.irfft(ref, n=shape[-1], axis=len(shape) - 1, workers=1)
        assert be.irfftn(x_k, s=shape).tobytes() == ref.tobytes()

    def test_kspace_product_pools_workspace(self):
        be = SpectralBackend()
        a = np.ones((4, 3), dtype=np.complex128)
        b = np.full((1, 3), 2.0 + 0.0j)
        out1 = be.kspace_product("g", a, b)
        out2 = be.kspace_product("g", a, b)
        assert out1 is out2  # same pooled buffer
        assert np.all(out1 == 2.0)

    def test_explicit_backend_overrides_default(self, counting_backend):
        private = SpectralBackend()
        solver = PeriodicPoissonSolver((8,), 1.0, backend=private)
        counting_backend.reset_counts()
        solver.solve_fields(np.sin(np.arange(8.0)), "spectral")
        assert counting_backend.n_forward == 0
        assert private.n_forward == 1


class TestOneSolvePerFState:
    """Through the runner, ledger included: a merged step costs one
    field solve and nothing more — the ledger's solve after a step is
    the next step's kick field (plasma, gravitational), and a hybrid
    kick solves the shared potential once for both components."""

    CONFIGS = {
        "plasma": dict(
            grid=GridConfig(nx=(16,), nu=(16,), box_size=2 * np.pi, v_max=4.0),
            schedule=ScheduleConfig(kind="time", dt=0.05, n_steps=4),
        ),
        "gravitational": dict(
            grid=GridConfig(nx=(16,), nu=(16,), box_size=10.0, v_max=3.0),
            schedule=ScheduleConfig(kind="time", dt=0.05, n_steps=4),
            params={"g_newton": 0.05},
        ),
        "hybrid": dict(
            scheme="slp3",
            grid=GridConfig(nx=(4, 4, 4), nu=(4, 4, 4), box_size=200.0,
                            v_max=1.0, dtype="float32"),
            schedule=ScheduleConfig(kind="scale_factor", a_start=1.0 / 11.0,
                                    a_end=1.0, n_steps=4),
            params={"m_nu": 0.4, "seed": 7},
        ),
        # blocks of 3 x-planes (the ghost width) and drift CFL 0.3 < 1, so
        # every sweep runs on the workers and the solve on the parent
        "gravitational-domain": dict(
            scenario="gravitational",
            grid=GridConfig(nx=(6, 6, 6), nu=(6, 6, 6), box_size=1.0,
                            v_max=3.0, dtype="float32"),
            schedule=ScheduleConfig(kind="time", dt=0.02, n_steps=4),
            engine=EngineConfig(engine="domain", topology=[2, 1, 1]),
        ),
    }

    @pytest.mark.parametrize("scenario", ["plasma", "gravitational", "hybrid",
                                          "gravitational-domain"])
    def test_one_forward_transform_per_step(self, counting_backend, scenario,
                                            tmp_path):
        config = RunConfig(**{"scenario": scenario, "name": f"t-fft-{scenario}",
                              **self.CONFIGS[scenario]})
        runner = SimulationRunner.create(config, tmp_path / scenario)
        assert runner.run() == EXIT_COMPLETE
        forwards = [r["fft"]["n_forward"]
                    for r in read_telemetry(tmp_path / scenario / TELEMETRY_NAME)]
        # the last step is a sync point: its pending half kick takes the
        # field of the drifted f, one more forward
        assert [b - a for a, b in zip(forwards, forwards[1:])] == [1, 1, 2]

    def test_potential_energy_runs_one_moment(self, monkeypatch):
        grid = PhaseSpaceGrid(
            nx=(16,), nu=(16,), box_size=10.0, v_max=3.0, dtype=np.float64
        )
        gvp = GravitationalVlasovPoisson(grid, g_newton=1.0)
        u = grid.u_centers(0)[None, :]
        x = grid.x_centers(0)[:, None]
        gvp.f = (1 + 0.1 * np.cos(2 * np.pi * x / 10.0)) * np.exp(-(u**2) / 2)
        moments = []
        density = gvp.solver.density
        monkeypatch.setattr(gvp.solver, "density",
                            lambda: moments.append(1) or density())
        w = gvp.potential_energy()
        assert len(moments) == 1
        gvp.total_energy()
        gvp.acceleration()
        assert gvp.potential_energy() == w
        assert len(moments) == 1  # same f: the solve is reused
