"""One f per engine: allocated at ``bind``, swept in place, copied into
on assignment, and written directly by the IC builders.

The memory pins measure ``tracemalloc`` peaks (NumPy reports its
buffers to it) against ``f.nbytes``, at grids where f dominates
everything else the build allocates: over ``build_stepper`` plus two
steps, and over a whole ``SimulationRunner.run()`` with its ledger,
diagnostics and checkpoints.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core.mesh import PhaseSpaceGrid
from repro.core.vlasov import VlasovSolver
from repro.core.vlasov_poisson import PlasmaVlasovPoisson
from repro.parallel import DomainEngine
from repro.perf import pencil
from repro.perf.pencil import PencilEngine
from repro.runtime import RunConfig
from repro.runtime.runner import SimulationRunner
from repro.runtime.scenarios import build_stepper

#: The gravitational 16³ × 12³ float32 grid, f = 27 MiB.
GRAV_16_12 = {
    "scenario": "gravitational",
    "grid": {"nx": [16, 16, 16], "nu": [12, 12, 12], "box_size": 1.0,
             "v_max": 6.0, "dtype": "float32"},
    "schedule": {"kind": "time", "n_steps": 2, "dt": 0.004},
    "engine": {"backend": "off"},
    "params": {"sigma_v": 1.0},
}


def peak_over_f(config: dict) -> float:
    """Peak traced bytes of building the stepper and two steps, in f."""
    tracemalloc.start()
    try:
        stepper = build_stepper(RunConfig.from_dict(config))
        stepper.advance()
        stepper.advance()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / stepper.f.nbytes


class TestPeakMemory:
    def test_gravitational_peak_is_f_plus_a_sliver(self):
        """16³ × 12³ float32, f = 27 MiB."""
        ratio = peak_over_f(GRAV_16_12)
        # measured 1.20 (build 1.00, steps 1.20: f, the arena and the
        # field); 5.00 while the IC was a float64 product and the sweep
        # double-buffered f
        assert ratio < 1.4

    def test_hybrid_peak(self):
        """nx 8³, nu 16³ float32, f = 8 MiB."""
        ratio = peak_over_f({
            "scenario": "hybrid",
            "grid": {"nx": [8, 8, 8], "nu": [16, 16, 16], "box_size": 100.0,
                     "dtype": "float32"},
            "schedule": {"kind": "scale_factor", "n_steps": 2,
                         "a_start": 1.0 / 11.0, "a_end": 1.0 / 9.0,
                         "spacing": "log"},
            "engine": {"backend": "off"},
            "params": {"m_nu": 0.4, "seed": 1},
        })
        # measured 2.31 (build 2.27: f plus the float64 temporaries of
        # one x slab, each 1/4 of f at nx = 8; steps: f, the 5.6 MiB
        # arena, the field); 9.27 while the builder made full-grid
        # float64 arrays and the sweep double-buffered f
        assert ratio < 2.6


    def test_run_path_peak(self, tmp_path):
        """The same grid through ``repro run``: the ledger every step,
        diagnostics and a checkpoint at step 2."""
        config = RunConfig.from_dict({
            **GRAV_16_12,
            "checkpoint": {"every_steps": 2},
            "diagnostics": {"every_steps": 2},
        })
        tracemalloc.start()
        try:
            runner = SimulationRunner.create(config, tmp_path / "run")
            assert runner.run() == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        grid = config.grid
        ratio = peak / (np.prod(grid.nx + grid.nu)
                        * np.dtype(grid.dtype).itemsize)
        # measured 1.80: f, numpy's 16 MiB write chunk of the checkpoint
        # (0.59 f at this size, fixed), the arena and the field.  4.81
        # while the diagnostics submit copied f and the moments and the
        # kinetic energy made f-sized float64 products
        assert ratio < 2.0


ENGINES = {
    "serial": lambda: None,
    "pencil": lambda: PencilEngine(n_workers=2),
    "domain": lambda: DomainEngine(topology=(2,)),
}


class TestAssignmentCopies:
    @pytest.mark.parametrize("name", sorted(ENGINES))
    def test_assigned_array_is_not_adopted(self, name, monkeypatch):
        monkeypatch.setattr(pencil, "MIN_SHARD_BYTES", 0)  # shard 32 × 64
        engine = ENGINES[name]()
        grid = PhaseSpaceGrid(nx=(32,), nu=(64,), box_size=4 * np.pi,
                              v_max=6.0, dtype=np.float64)
        x = grid.x_centers(0)[:, None]
        v = grid.u_centers(0)[None, :]
        f0 = (1 + 0.05 * np.cos(0.5 * x)) * np.exp(-v**2 / 2)
        before = f0.copy()
        try:
            vp = PlasmaVlasovPoisson(grid, engine=engine)
            held = vp.f
            vp.f = f0
            vp.step(0.1)
            after = vp.f  # the domain engine gathers here
            assert np.array_equal(f0, before)
            assert after is held  # one array, bound once
            assert not np.array_equal(after, before)
        finally:
            if engine is not None:
                engine.close()

    def test_other_shape_refused(self):
        solver = VlasovSolver(PhaseSpaceGrid((8,), (8,), 1.0, 1.0))
        version = solver.engine.f_version
        with pytest.raises(ValueError, match="shape"):
            solver.f = np.ones((8, 9))
        with pytest.raises(ValueError, match="shape"):
            solver.f = 1.0  # no broadcast either
        assert solver.engine.f_version == version
        assert not solver.f.any()
