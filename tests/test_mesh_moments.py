"""Phase-space grid geometry and velocity moments."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core import advection, moments
from repro.core.mesh import PhaseSpaceGrid

from .helpers import dispersion_tensor, l1_norm


@pytest.fixture
def grid1d():
    return PhaseSpaceGrid(nx=(32,), nu=(64,), box_size=10.0, v_max=4.0, dtype=np.float64)


@pytest.fixture
def grid3d():
    return PhaseSpaceGrid(nx=(6, 6, 6), nu=(8, 8, 8), box_size=100.0, v_max=2000.0)


class TestGeometry:
    def test_shape_and_cells(self, grid3d):
        assert grid3d.shape == (6, 6, 6, 8, 8, 8)
        assert grid3d.n_cells == 6**3 * 8**3

    def test_u1024_cell_count_is_400_trillion(self):
        """The title: 1152^3 x 64^3 ~ 4.0e14 'grids'."""
        grid = PhaseSpaceGrid.__new__(PhaseSpaceGrid)  # avoid allocating!
        cells = 1152**3 * 64**3
        assert cells == pytest.approx(4.008e14, rel=1e-3)

    def test_spacings(self, grid3d):
        assert grid3d.dx == (pytest.approx(100 / 6),) * 3
        assert grid3d.du == (pytest.approx(500.0),) * 3

    def test_cell_volume_product(self, grid3d):
        assert grid3d.cell_volume == pytest.approx(
            grid3d.cell_volume_x * grid3d.cell_volume_u
        )

    def test_centers_cover_domain(self, grid1d):
        x = grid1d.x_centers(0)
        assert x[0] == pytest.approx(10.0 / 32 / 2)
        assert x[-1] == pytest.approx(10.0 - 10.0 / 32 / 2)
        u = grid1d.u_centers(0)
        assert u[0] == pytest.approx(-4.0 + 8.0 / 64 / 2)
        assert u[-1] == pytest.approx(4.0 - 8.0 / 64 / 2)
        assert abs(u.mean()) < 1e-12  # symmetric grid

    def test_broadcast_shapes(self, grid3d):
        assert grid3d.u_center_broadcast(1).shape == (1, 1, 1, 1, 8, 1)

    def test_axis_indices(self, grid3d):
        assert grid3d.spatial_axis(2) == 2
        assert grid3d.velocity_axis(0) == 3
        with pytest.raises(ValueError):
            grid3d.velocity_axis(3)

    def test_memory_accounting(self, grid3d):
        assert grid3d.memory_bytes() == grid3d.n_cells * 4  # float32 default

    def test_validation(self):
        with pytest.raises(ValueError):
            PhaseSpaceGrid(nx=(8, 8), nu=(8,), box_size=1.0, v_max=1.0)
        with pytest.raises(ValueError):
            PhaseSpaceGrid(nx=(8,), nu=(8,), box_size=-1.0, v_max=1.0)
        with pytest.raises(ValueError):
            PhaseSpaceGrid(nx=(8,), nu=(8,), box_size=1.0, v_max=1.0, dtype=np.int32)
        with pytest.raises(ValueError):
            PhaseSpaceGrid(nx=(8, 8, 8, 8), nu=(8, 8, 8, 8), box_size=1.0, v_max=1.0)


class TestMoments:
    def test_density_of_uniform_f(self, grid1d):
        f = np.ones(grid1d.shape)
        rho = moments.density(f, grid1d)
        # integral over velocity: 1 * 2V
        assert np.allclose(rho, 2 * grid1d.v_max)

    def test_total_mass_uniform(self, grid1d):
        f = np.ones(grid1d.shape)
        assert moments.total_mass(f, grid1d) == pytest.approx(
            grid1d.box_size * 2 * grid1d.v_max
        )

    def test_gaussian_moments_1d(self, grid1d):
        """Shifted Maxwellian: density, mean velocity, dispersion recover
        the analytic values to quadrature accuracy."""
        u = grid1d.u_centers(0)
        u0, sigma = 0.7, 0.9
        fv = np.exp(-((u - u0) ** 2) / (2 * sigma**2)) / np.sqrt(2 * np.pi) / sigma
        f = np.broadcast_to(fv, grid1d.shape).copy()
        rho = moments.density(f, grid1d)
        # the +-V truncation clips the Maxwellian tail at the 1e-4 level
        assert np.allclose(rho, 1.0, atol=1e-3)
        vbar = moments.mean_velocity(f, grid1d)
        assert np.allclose(vbar[0], u0, atol=1e-3)
        disp = moments.velocity_dispersion(f, grid1d)
        assert np.allclose(disp, sigma, atol=5e-3)

    def test_dispersion_tensor_isotropy(self, grid3d):
        u2 = sum(
            grid3d.u_center_broadcast(d).astype(np.float64) ** 2 for d in range(3)
        )
        sigma = 500.0
        f = np.exp(-u2 / (2 * sigma**2)).astype(np.float32)
        f = np.broadcast_to(f, grid3d.shape).copy()
        t = dispersion_tensor(f, grid3d)
        assert np.allclose(t[0, 0], t[1, 1], rtol=1e-5)
        assert np.allclose(t[0, 1], 0.0, atol=t[0, 0].mean() * 1e-5)

    def test_momentum_consistency(self, grid1d):
        rng = np.random.default_rng(0)
        f = rng.random(grid1d.shape)
        mom = moments.momentum(f, grid1d)
        rho = moments.density(f, grid1d)
        vbar = moments.mean_velocity(f, grid1d, rho)
        assert np.allclose(mom[0], rho * vbar[0], rtol=1e-10)

    def test_empty_cells_zero_velocity(self, grid1d):
        f = np.zeros(grid1d.shape)
        f[5, :] = 1.0
        vbar = moments.mean_velocity(f, grid1d)
        assert np.all(np.isfinite(vbar))
        assert vbar[0][0] == 0.0  # empty cell

    def test_kinetic_energy_maxwellian(self, grid1d):
        u = grid1d.u_centers(0)
        sigma = 1.1
        fv = np.exp(-(u**2) / (2 * sigma**2)) / np.sqrt(2 * np.pi) / sigma
        f = np.broadcast_to(fv, grid1d.shape).copy()
        ke = moments.kinetic_energy(f, grid1d)
        # (1/2) <u^2> * mass = sigma^2/2 * L; the u^2 weighting amplifies
        # the +-V tail truncation, hence the percent-level tolerance
        assert ke == pytest.approx(0.5 * sigma**2 * grid1d.box_size, rel=2e-2)

    def test_l2_vs_l1(self, grid1d):
        f = np.abs(np.random.default_rng(1).standard_normal(grid1d.shape))
        assert l1_norm(f, grid1d) == pytest.approx(
            moments.total_mass(f, grid1d)
        )
        assert moments.l2_norm(f, grid1d) > 0

    def test_shape_mismatch_raises(self, grid1d):
        with pytest.raises(ValueError):
            moments.density(np.ones((3, 3)), grid1d)


def _uncached_geometry(grid):
    """The derived geometry as the grid computed it on every read before
    it was cached: the reference the cache must equal bit for bit."""
    dx = tuple(grid.box_size / n for n in grid.nx)
    du = tuple(2.0 * grid.v_max / n for n in grid.nu)
    cvx, cvu = float(np.prod(dx)), float(np.prod(du))
    ub = []
    for axis in range(grid.dim):
        shape = [1] * (2 * grid.dim)
        shape[grid.dim + axis] = grid.nu[axis]
        ub.append(grid.u_centers(axis).astype(grid.dtype).reshape(shape))
    return dx, du, cvx, cvu, cvx * cvu, ub


GEOMETRY_GRIDS = [
    dict(nx=(32,), nu=(32,), box_size=4 * np.pi, v_max=6.0),
    dict(nx=(6, 5), nu=(7, 9), box_size=3.3, v_max=1.7, dtype=np.float64),
    dict(nx=(16, 8, 8), nu=(8, 8, 8), box_size=1.0, v_max=6.0),
    dict(nx=(8, 8, 8), nu=(8, 8, 8), box_size=100.0, v_max=2345.6789),
]


class TestCachedGeometry:
    """dx, du, the three cell volumes and the velocity broadcasts are
    built once per grid; every read returns the same bits as the
    per-read formulas did, and the arrays are read-only."""

    @pytest.mark.parametrize("kw", GEOMETRY_GRIDS)
    def test_equals_the_per_read_formulas_bitwise(self, kw):
        grid = PhaseSpaceGrid(**kw)
        dx, du, cvx, cvu, cv, ub = _uncached_geometry(grid)
        for _ in range(2):  # the first read builds, the second is cached
            assert grid.dx == dx and grid.du == du
            assert np.float64(grid.cell_volume_x).tobytes() == np.float64(cvx).tobytes()
            assert np.float64(grid.cell_volume_u).tobytes() == np.float64(cvu).tobytes()
            assert np.float64(grid.cell_volume).tobytes() == np.float64(cv).tobytes()
            for d in range(grid.dim):
                u = grid.u_center_broadcast(d)
                assert u.dtype == ub[d].dtype and u.shape == ub[d].shape
                assert u.tobytes() == ub[d].tobytes()
                u2 = grid.u_squared_broadcast(d)
                assert u2.tobytes() == (ub[d].astype(np.float64) ** 2).tobytes()

    def test_arrays_are_read_only(self, grid3d):
        for d in range(grid3d.dim):
            for arr in (grid3d.u_center_broadcast(d),
                        grid3d.u_squared_broadcast(d)):
                with pytest.raises(ValueError, match="read-only"):
                    arr[...] = 0.0
                with pytest.raises(ValueError, match="read-only"):
                    arr += 1.0
        # every read hands out the one cached array
        assert grid3d.u_center_broadcast(1) is grid3d.u_center_broadcast(1)

    def test_equality_hashing_and_pickling_unchanged(self):
        import copy
        import pickle

        kw = GEOMETRY_GRIDS[2]
        warm, cold = PhaseSpaceGrid(**kw), PhaseSpaceGrid(**kw)
        before = pickle.dumps(warm)
        _uncached_geometry(warm)
        for d in range(warm.dim):
            warm.u_center_broadcast(d), warm.u_squared_broadcast(d)
        warm.cell_volume
        assert warm == cold and hash(warm) == hash(cold)
        assert warm != PhaseSpaceGrid(**{**kw, "v_max": 5.0})
        # the cache rides in no pickle: a warm grid pickles to the bytes
        # of a cold one, which is how the domain workers receive it
        assert pickle.dumps(warm) == before == pickle.dumps(cold)
        for clone in (pickle.loads(before), copy.deepcopy(warm), copy.copy(warm)):
            assert clone == warm and hash(clone) == hash(warm)
            u = clone.u_center_broadcast(0)
            assert u.tobytes() == warm.u_center_broadcast(0).tobytes()
            assert not u.flags.writeable

    def test_steady_plasma_steps_rebuild_no_geometry(self, monkeypatch):
        """Count the builders: past the first step nothing of the grid's
        geometry is computed again — steps, ledger, guards and record."""
        import functools

        from repro.runtime.config import (
            GridConfig,
            GuardConfig,
            RunConfig,
            ScheduleConfig,
        )
        from repro.runtime.guards import GuardSuite
        from repro.runtime.scenarios import build_stepper
        from repro.diagnostics import ConservationLedger, StepTimer

        calls = {}

        def counted(name, fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("dx", "du", "cell_volume_x", "cell_volume_u",
                     "cell_volume", "_u_broadcast"):
            prop = functools.cached_property(
                counted(name, PhaseSpaceGrid.__dict__[name].func))
            prop.__set_name__(PhaseSpaceGrid, name)
            monkeypatch.setattr(PhaseSpaceGrid, name, prop)
        for name in ("u_centers", "x_centers"):
            monkeypatch.setattr(PhaseSpaceGrid, name,
                                counted(name, PhaseSpaceGrid.__dict__[name]))

        config = RunConfig(
            scenario="plasma",
            grid=GridConfig(nx=(16,), nu=(16,), box_size=4 * np.pi, v_max=6.0),
            schedule=ScheduleConfig(kind="time", dt=0.1, n_steps=8),
        ).validate()
        stepper = build_stepper(config, timer=StepTimer())
        ledger = ConservationLedger()
        ledger.register(**stepper.conserved())
        guards = GuardSuite(GuardConfig(), ledger)

        def step():
            stepper.advance()
            ledger.update(**stepper.conserved())
            assert guards.check_step(stepper, 0.0) == []

        step()
        # each cached piece is built once per grid (the ICs also read
        # u_centers / x_centers, which are not cached)
        cached = {k: v for k, v in calls.items() if not k.endswith("_centers")}
        assert cached and max(cached.values()) == 1
        calls.clear()
        for _ in range(5):
            step()
        stepper.synchronize()
        assert calls == {}


# -- block-wise reductions ----------------------------------------------------

#: (nx, nu) of the bit checks: a one-block 1-D grid, the grav6d reference
#: grid, 8^6, 12^3 x 8^3 and an odd-sized 3-D grid.
BLOCK_SHAPES = [
    ((32,), (32,)),
    ((16, 8, 8), (8, 8, 8)),
    ((8, 8, 8), (8, 8, 8)),
    ((12, 12, 12), (8, 8, 8)),
    ((7, 5, 3), (6, 10, 4)),
]


def full_momentum(f, grid):
    """The full-temporary formula: one f-sized float64 product per axis."""
    vel_axes = tuple(range(grid.dim, 2 * grid.dim))
    return np.stack([
        (f * grid.u_center_broadcast(d).astype(np.float64)).sum(
            axis=vel_axes, dtype=np.float64) * grid.cell_volume_u
        for d in range(grid.dim)
    ])


def full_dispersion(f, grid):
    vel_axes = tuple(range(grid.dim, 2 * grid.dim))
    rho = moments.density(f, grid)
    with np.errstate(divide="ignore", invalid="ignore"):
        vbar = np.where(rho > 0.0, full_momentum(f, grid) / rho, 0.0)
    trace = np.zeros(grid.nx)
    for d in range(grid.dim):
        u = grid.u_center_broadcast(d).astype(np.float64)
        u2 = (f * u**2).sum(axis=vel_axes, dtype=np.float64) * grid.cell_volume_u
        with np.errstate(divide="ignore", invalid="ignore"):
            mean_sq = np.where(rho > 0.0, u2 / rho, 0.0)
        trace += np.maximum(mean_sq - vbar[d] ** 2, 0.0)
    return np.sqrt(trace / grid.dim)


def full_kinetic_energy(f, grid):
    total = 0.0
    for d in range(grid.dim):
        total += float((f * grid.u_squared_broadcast(d)).sum(dtype=np.float64))
    return 0.5 * total * grid.cell_volume


def random_f(nx, nu, dtype, seed=0):
    grid = PhaseSpaceGrid(nx=nx, nu=nu, box_size=2.0, v_max=3.0, dtype=dtype)
    f = np.random.default_rng(seed).random(grid.shape).astype(dtype)
    f[(0,) * grid.dim] = 0.0  # an empty cell: zero density, zero velocity
    return grid, f


class TestBlockedReductions:
    """The weighted moments read f in blocks of whole spatial cells:
    per-cell sums are bitwise the full-temporary formula's, totals are
    summed per block."""

    @pytest.mark.parametrize("block_cells", [None, 200, 7],
                             ids=["default", "200", "one-cell"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("nx, nu", BLOCK_SHAPES)
    def test_per_cell_moments_are_bitwise(self, nx, nu, dtype, block_cells,
                                          monkeypatch):
        if block_cells is not None:  # small blocks: the multi-block path
            monkeypatch.setattr(advection, "BLOCK_CELLS", block_cells)
        grid, f = random_f(nx, nu, dtype)
        assert (moments.momentum(f, grid).tobytes()
                == full_momentum(f, grid).tobytes())
        assert (moments.velocity_dispersion(f, grid).tobytes()
                == full_dispersion(f, grid).tobytes())

    @pytest.mark.parametrize("block_cells", [None, 200, 7],
                             ids=["default", "200", "one-cell"])
    @pytest.mark.parametrize("nx, nu", BLOCK_SHAPES)
    def test_kinetic_energy_matches_the_full_sum(self, nx, nu, block_cells,
                                                 monkeypatch):
        if block_cells is not None:
            monkeypatch.setattr(advection, "BLOCK_CELLS", block_cells)
        grid, f = random_f(nx, nu, np.float32)
        blocked = moments.kinetic_energy(f, grid)
        full = full_kinetic_energy(f, grid)
        assert blocked == pytest.approx(full, rel=1e-12, abs=0.0)
        if f.size <= advection.BLOCK_CELLS:  # one block: the same sum
            assert blocked == full

    def test_one_block_kinetic_energy_is_bitwise(self, monkeypatch):
        monkeypatch.setattr(advection, "BLOCK_CELLS", 1 << 62)
        grid, f = random_f((12, 12, 12), (8, 8, 8), np.float32)
        assert moments.kinetic_energy(f, grid) == full_kinetic_energy(f, grid)

    @pytest.mark.parametrize("block_cells", [None, 200],
                             ids=["default", "200"])
    @pytest.mark.parametrize("nx", [(16, 8, 8), (8, 8, 8)])
    def test_power_of_two_blocks_are_bitwise(self, nx, block_cells,
                                             monkeypatch):
        """Equal power-of-two blocks summed halves first are NumPy's own
        pairwise order: the grav6d grid's ledger energy keeps its bits."""
        if block_cells is not None:
            monkeypatch.setattr(advection, "BLOCK_CELLS", block_cells)
        grid, f = random_f(nx, (8, 8, 8), np.float32)
        assert moments.kinetic_energy(f, grid) == full_kinetic_energy(f, grid)

    def test_dispersion_takes_the_callers_velocity(self, monkeypatch):
        """Handed ``vbar``, the dispersion does not take the momentum again."""
        grid, f = random_f((16, 8, 8), (8, 8, 8), np.float32)
        rho = moments.density(f, grid)
        vbar = moments.mean_velocity(f, grid, rho)
        expected = moments.velocity_dispersion(f, grid, rho)

        def refused(*args):
            raise AssertionError("momentum taken twice")

        monkeypatch.setattr(moments, "momentum", refused)
        got = moments.velocity_dispersion(f, grid, rho, vbar)
        assert got.tobytes() == expected.tobytes()

    def test_no_f_sized_temporary(self):
        """The three weighted reductions trace one block beside f."""
        grid, f = random_f((16, 8, 8), (8, 8, 8), np.float32)
        tracemalloc.start()
        try:
            moments.momentum(f, grid)
            moments.velocity_dispersion(f, grid)
            moments.kinetic_energy(f, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one float64 block of BLOCK_CELLS cells (0.5 MiB) plus the
        # mesh-sized outputs; the full-temporary formula traced 2 f
        assert peak < 8 * advection.BLOCK_CELLS + 0.1 * f.nbytes
