"""The Vlasov solver's split operators: drift, kick, Strang composition."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.mesh import PhaseSpaceGrid
from repro.core.vlasov import VlasovSolver


@pytest.fixture
def grid():
    return PhaseSpaceGrid(nx=(32,), nu=(32,), box_size=2 * np.pi, v_max=4.0, dtype=np.float64)


def maxwellian_beam(grid, x0=np.pi, u0=1.0, sx=0.5, su=0.4):
    x = grid.x_centers(0)[:, None]
    u = grid.u_centers(0)[None, :]
    return np.exp(-((x - x0) ** 2) / (2 * sx**2) - ((u - u0) ** 2) / (2 * su**2))


class TestDrift:
    def test_free_streaming_translates_in_x(self, grid):
        """Free streaming: each velocity slice translates by u*dt."""
        f0 = maxwellian_beam(grid)
        solver = VlasovSolver(grid, scheme="slmpp5")
        solver.f = f0
        dt = 0.3
        solver.drift(dt)
        # center of mass along x for the u0-slice moved by ~u0*dt
        iu = np.argmin(np.abs(grid.u_centers(0) - 1.0))
        x = grid.x_centers(0)
        com0 = (x * f0[:, iu]).sum() / f0[:, iu].sum()
        com1 = (x * solver.f[:, iu]).sum() / solver.f[:, iu].sum()
        u_slice = grid.u_centers(0)[iu]
        assert com1 - com0 == pytest.approx(u_slice * dt, abs=grid.dx[0] / 20)

    def test_drift_conserves_mass(self, grid):
        solver = VlasovSolver(grid)
        solver.f = maxwellian_beam(grid).astype(np.float32)
        m0 = solver.total_mass()
        solver.drift(0.7)
        assert solver.total_mass() == pytest.approx(m0, rel=1e-6)

    def test_drift_preserves_velocity_marginal(self, grid):
        """Spatial advection cannot change the velocity distribution."""
        solver = VlasovSolver(grid, scheme="slmpp5")
        solver.f = maxwellian_beam(grid)
        marg0 = solver.f.sum(axis=0)
        solver.drift(1.3)
        assert np.allclose(solver.f.sum(axis=0), marg0, rtol=1e-10)

    def test_full_box_crossing_is_identity(self, grid):
        """With periodic x, drifting every slice by an exact multiple of
        the box returns f (integer shifts are exact)."""
        solver = VlasovSolver(grid, scheme="slmpp5")
        rng = np.random.default_rng(0)
        f0 = rng.random(grid.shape)
        solver.f = f0
        # choose dt so u_max * dt = one box for the largest |u| and
        # integer cell shifts for all slices: u grid is uniform
        du = grid.du[0]
        dt = grid.dx[0] / du  # shift_i = u_i*dt/dx = u_i/du: half-integers!
        # half-integers are not exact; use dt = 2 dx/du for integers
        solver.f = f0.copy()
        solver.drift(2 * grid.dx[0] / du)
        # all shifts integer -> result is an exact permutation; mass exact
        assert solver.total_mass() == pytest.approx(f0.sum() * grid.cell_volume)


class TestKick:
    def test_uniform_accel_translates_in_u(self, grid):
        solver = VlasovSolver(grid, scheme="slmpp5")
        solver.f = maxwellian_beam(grid, u0=0.0)
        accel = np.full((1,) + grid.nx, 2.0)
        dt = 0.4
        solver.kick(accel, dt)
        u = grid.u_centers(0)
        marg = solver.f.sum(axis=0)
        com = (u * marg).sum() / marg.sum()
        assert com == pytest.approx(2.0 * dt, abs=grid.du[0] / 10)

    def test_kick_preserves_density(self, grid):
        """Velocity advection cannot change the spatial density (the
        paper's moments-without-communication property in action)."""
        solver = VlasovSolver(grid, scheme="slmpp5")
        solver.f = maxwellian_beam(grid)
        rho0 = solver.density()
        accel = np.sin(grid.x_centers(0)).reshape(1, -1)
        solver.kick(accel, 0.5)
        assert np.allclose(solver.density(), rho0, rtol=1e-6)

    def test_kick_outflow_at_vmax(self, grid):
        """Mass pushed past +-V leaves the grid (zero BC), monotonically."""
        solver = VlasovSolver(grid, scheme="slmpp5")
        solver.f = maxwellian_beam(grid, u0=3.0, su=0.5)
        m0 = solver.total_mass()
        accel = np.full((1,) + grid.nx, 5.0)
        solver.kick(accel, 0.5)
        assert solver.total_mass() < m0

    def test_accel_shape_validated(self, grid):
        solver = VlasovSolver(grid)
        with pytest.raises(ValueError):
            solver.kick(np.ones((2,) + grid.nx), 0.1)


class TestStrangStep:
    def test_kdk_sequence_called(self, grid):
        """Eq. (5) in its merged form: the first kick is a half kick,
        each later kick merges the previous closing half with the next
        opening half, and synchronize() applies the last closing half."""
        from repro.core.vlasov_poisson import PlasmaVlasovPoisson

        vp = PlasmaVlasovPoisson(grid)
        vp.f = maxwellian_beam(grid)
        calls = []
        kick, drift = vp.solver.kick, vp.solver.drift
        vp.solver.kick = lambda accel, dt: (calls.append(("K", dt)), kick(accel, dt))
        vp.solver.drift = lambda dt: (calls.append(("D", dt)), drift(dt))
        for _ in range(3):
            vp.step(0.2)
        assert vp.pending_kick == 0.1
        vp.synchronize()
        vp.synchronize()  # nothing left pending: a no-op
        assert calls == [("K", 0.1), ("D", 0.2), ("K", 0.2), ("D", 0.2),
                         ("K", 0.2), ("D", 0.2), ("K", 0.1)]
        assert vp.pending_kick == 0.0

    def test_unknown_scheme(self, grid):
        with pytest.raises(ValueError):
            VlasovSolver(grid, scheme="nope")


class TestRecurrence2D2V:
    def test_2d_drift_axes_commute_for_linear_advection(self):
        grid = PhaseSpaceGrid(nx=(12, 12), nu=(8, 8), box_size=1.0, v_max=1.0,
                              dtype=np.float64)
        rng = np.random.default_rng(3)
        f0 = rng.random(grid.shape)
        s1 = VlasovSolver(grid, scheme="slp5")
        s1.f = f0.copy()
        s1.drift(0.05)
        # drift in reversed order by driving axes manually
        from repro.core.advection import advect

        g = f0.copy()
        for d in range(grid.dim):  # forward order (z..x reversed = x,y here)
            u = grid.u_center_broadcast(d)
            g = advect(g, u * (0.05 / grid.dx[d]), d, scheme="slp5")
        # linear schemes commute across distinct axes: same result
        assert np.allclose(s1.f, g, atol=1e-12)


class TestKickShiftPrecision:
    """Issue regression: the kick used to cast the acceleration to the
    storage dtype *before* forming shift = a * (dt / du), so float32
    runs advected along rounded departure points — the same class of
    precision leak the flux prefix sums had.  The shift must be computed
    in float64; advect confines storage precision to f itself."""

    def test_float32_kick_uses_float64_shift_bitwise(self):
        """The kick must be bitwise identical to advecting with the
        exact float64 shift (an acceleration with low bits beyond
        float32 resolution detects any premature cast)."""
        grid = PhaseSpaceGrid(
            nx=(8,), nu=(32,), box_size=1.0, v_max=4.0, dtype=np.float32
        )
        rng = np.random.default_rng(7)
        f0 = rng.random(grid.shape).astype(np.float32)
        a_val = 1.0 + 2.0**-40  # not representable in float32
        accel = np.full((1,) + grid.nx, a_val)
        dt = 0.3

        solver = VlasovSolver(grid, scheme="slmpp5")
        solver.f = f0.copy()
        solver.kick(accel, dt)

        from repro.core.advection import advect

        shift = accel[0].astype(np.float64).reshape(grid.nx + (1,)) * (
            dt / grid.du[0]
        )
        expected = advect(f0.copy(), shift, 1, scheme="slmpp5", bc="zero")
        assert solver.f.tobytes() == expected.tobytes()

    def test_large_shift_reference_isolates_the_leak(self):
        """Large kicks, float64-shift reference through the identical
        float32 storage path: the fixed kick reproduces the reference
        bitwise, while the pre-fix rounded shift (acceleration cast to
        float32 first) perturbs the departure points by
        |shift| * eps32 cells — tens of float32 ulps of error in f at a
        ~450-cell shift."""
        n_u = 512
        grid = PhaseSpaceGrid(
            nx=(4,), nu=(n_u,), box_size=1.0, v_max=4.0, dtype=np.float32
        )
        rng = np.random.default_rng(11)
        f0 = (0.5 + rng.random(grid.shape)).astype(np.float32)
        a_val = 10.0 / 3.0  # infinite binary expansion
        accel = np.full((1,) + grid.nx, a_val)
        du = grid.du[0]
        dt = 450.123 * du / a_val  # ~450-cell shift

        from repro.core.advection import advect

        shape = grid.nx + (1,)
        shift64 = accel[0].reshape(shape) * (dt / du)
        reference = advect(f0.copy(), shift64, 1, scheme="slmpp5", bc="zero")

        solver = VlasovSolver(grid, scheme="slmpp5")
        solver.f = f0.copy()
        solver.kick(accel, dt)
        assert solver.f.tobytes() == reference.tobytes()

        # the evicted behavior, for contrast: storage-rounded shift
        shift32 = accel[0].astype(np.float32).astype(np.float64).reshape(
            shape
        ) * (dt / du)
        rounded = advect(f0.copy(), shift32, 1, scheme="slmpp5", bc="zero")
        err = np.abs(rounded.astype(np.float64) - reference).max()
        ulp = float(np.finfo(np.float32).eps)  # at the ~1.5 scale of f
        assert err > 20 * ulp, (
            f"rounded-shift error only {err / ulp:.1f} float32 ulps — "
            "test no longer exercises the precision leak"
        )
