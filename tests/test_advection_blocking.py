"""Cache-blocked sweeps change where scratch lives, never the bits;
neither does advancing every row of a block in one kernel run.

``advect`` walks arrays above ``BLOCK_CELLS`` one block of non-advected
rows at a time.  Advection couples cells only along the advected axis,
so the blocked result must equal the one-block result **bitwise** — for
every scheme, boundary condition, dtype and axis, for
shifts that change sign or integer offset from block to block, and with
``out`` aliasing ``f``.  The engine-level test pins the same on the
reference 6-D grid, together with the memory the blocking is for.

A block whose shifts mix signs lands its rows with ``sh < 0`` reversed,
advances every row rightward by ``|sh|`` in one kernel run and writes
the reversed rows back reversed.  The result must equal advecting the
rows of each sign in two single-sign calls, bit for bit; a call must
run the flux kernel once per block; and the arena must not follow the
sign pattern.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import advection
from repro.core.advection import SCHEMES, advect
from repro.core.mesh import PhaseSpaceGrid
from repro.core.vlasov import VlasovSolver
from repro.parallel import DomainEngine
from repro.perf import PencilEngine, ScratchArena, pencil

from .conftest import mixed_sign_shifts

SHAPE = (7, 5, 9, 11)  # no extent divides another; 3465 cells
ONE_BLOCK = 1 << 62


def _field(dtype):
    rng = np.random.default_rng(11)
    return (0.5 + rng.random(SHAPE)).astype(dtype)


def _shifts(shape, axis):
    """CFL 2.3; a mixed-sign field with |shift| up to 3 that varies along
    every axis a block plan can split; k == 1 with alpha varying along
    the outermost split axis (the uniform-k path, shift sliced)."""
    rng = np.random.default_rng(5)
    field_shape = list(shape)
    field_shape[axis] = 1
    yield 2.3
    yield (rng.random(field_shape) - 0.5) * 6.0
    outer = 1 if axis == 0 else 0
    profile_shape = [1] * len(shape)
    profile_shape[outer] = shape[outer]
    yield 1.0 + 0.8 * rng.random(profile_shape)


def _advect(monkeypatch, block_cells, f, sh, axis, scheme, bc, **kw):
    monkeypatch.setattr(advection, "BLOCK_CELLS", block_cells)
    out = np.empty_like(f)
    advect(f, sh, axis, scheme=scheme, bc=bc, out=out, **kw)
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("bc", ["periodic", "zero"])
@pytest.mark.parametrize("scheme", [
    pytest.param(s, marks=pytest.mark.smoke) if s == "slmpp5" else s
    for s in sorted(SCHEMES)
])
def test_blocked_bitwise_equals_one_block(monkeypatch, scheme, bc, dtype):
    f = _field(dtype)
    for axis in range(f.ndim):
        if f.shape[axis] < SCHEMES[scheme].order:
            continue
        for sh in _shifts(f.shape, axis):
            ref = _advect(monkeypatch, ONE_BLOCK, f, sh, axis, scheme, bc)
            # 200 cells: unit slices on the outer axis, runs on the next;
            # 1000 cells: balanced runs of the outer axis itself
            for cells, kw in (
                (200, {"arena": ScratchArena()}),
                (1000, {"arena": ScratchArena(), "layout": "packed"}),
            ):
                got = _advect(monkeypatch, cells, f, sh, axis, scheme, bc, **kw)
                assert got.tobytes() == ref.tobytes(), (
                    f"{scheme}/{bc}/{np.dtype(dtype).name} axis {axis} "
                    f"BLOCK_CELLS={cells} {kw.get('layout')} diverged"
                )


def test_block_plan_covers_every_row_once(monkeypatch):
    monkeypatch.setattr(advection, "BLOCK_CELLS", 200)
    hits = np.zeros(SHAPE, dtype=np.int64)
    sizes = []
    for idx in advection._block_plan(SHAPE):
        hits[idx] += 1
        sizes.append(hits[idx].size)
        assert hits[idx].shape[-1] == SHAPE[-1]  # never the advected axis
    assert (hits == 1).all()
    assert max(sizes) <= 200 and len(sizes) == 7 * 3


@pytest.mark.smoke
@pytest.mark.parametrize("bc", ["periodic", "zero"])
def test_out_aliasing_contract(monkeypatch, bc):
    """Exact ``out=f`` aliasing is blocked and safe; an ``out`` that
    overlaps ``f`` any other way is computed as one block."""
    rng = np.random.default_rng(2)
    base = 0.5 + rng.random((SHAPE[0] + 1,) + SHAPE[1:])
    sh = (rng.random((SHAPE[0], 1, SHAPE[2], SHAPE[3])) - 0.5) * 4.0
    calls = []
    kernel = advection._advect_block
    monkeypatch.setattr(advection, "_advect_block",
                        lambda *a: (calls.append(1), kernel(*a)))
    monkeypatch.setattr(advection, "BLOCK_CELLS", 200)

    f = base[:-1].copy()
    ref = advect(f, sh, 1, bc=bc)
    assert len(calls) > 1

    same = f.copy()
    assert advect(same, sh, 1, bc=bc, out=same) is same
    assert same.tobytes() == ref.tobytes()

    f, out = base[:-1], base[1:]  # shifted by one row of the split axis
    expect = advect(f.copy(), sh, 1, bc=bc)
    del calls[:]
    advect(f, sh, 1, bc=bc, out=out)
    assert len(calls) == 1
    assert out.tobytes() == expect.tobytes()


# ----------------------------------------------------------------------
# one kernel run per call, whatever the signs
# ----------------------------------------------------------------------


def _by_sign(f, sh, axis, scheme, bc):
    """The rows with ``sh >= 0`` and the rows with ``sh < 0``, advected
    in (up to) two single-sign calls on flat ``(rows, n)`` arrays."""
    shape = list(np.broadcast_shapes(f.shape, np.shape(sh)))
    shape[axis] = f.shape[axis]
    rows = np.moveaxis(np.broadcast_to(f, shape), axis, -1)
    sh_shape = shape[:axis] + [1] + shape[axis + 1:]
    sh_rows = np.moveaxis(np.broadcast_to(sh, sh_shape), axis, -1).reshape(-1, 1)
    out = np.empty((sh_rows.size, f.shape[axis]), dtype=f.dtype)
    flat = rows.reshape(out.shape)
    for mask in (sh_rows[:, 0] >= 0.0, sh_rows[:, 0] < 0.0):
        if mask.any():
            out[mask] = advect(flat[mask], sh_rows[mask], 1, scheme=scheme, bc=bc)
    return np.moveaxis(out.reshape(rows.shape), -1, axis)


def _sign_profiles(shape, axis):
    """``mixed_sign_shifts``, plus a field with every shift negative and
    one where only the negative rows cross whole cells (|shift| > 1 on
    ``sh < 0``, < 1 on the rest: under ``zero`` the ghosts in front of
    the reversed rows are the wide ones)."""
    yield from mixed_sign_shifts(shape, axis)
    rng = np.random.default_rng(8)
    full = list(shape)
    full[axis] = 1
    yield "all_negative", -0.05 - 3.0 * rng.random(full)
    left = rng.random(full) < 0.5
    yield "negative_rows_wrap", np.where(
        left, -1.0 - 2.0 * rng.random(full), 0.95 * rng.random(full)
    )


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("bc", ["periodic", "zero"])
@pytest.mark.parametrize("scheme", [
    pytest.param(s, marks=pytest.mark.smoke) if s == "slmpp5" else s
    for s in sorted(SCHEMES)
])
def test_mixed_signs_bitwise_equal_rows_advected_by_sign(scheme, bc, dtype):
    f = _field(dtype)
    for axis in range(f.ndim):
        if f.shape[axis] < SCHEMES[scheme].order:
            continue
        for name, sh in _sign_profiles(f.shape, axis):
            ref = _by_sign(f, sh, axis, scheme, bc).tobytes()
            where = f"{scheme}/{bc}/{np.dtype(dtype).name} axis {axis} {name}"
            arena = ScratchArena()
            assert advect(f, sh, axis, scheme=scheme, bc=bc,
                          arena=arena).tobytes() == ref, where
            same = f.copy()
            advect(same, sh, axis, scheme=scheme, bc=bc, out=same, arena=arena)
            assert same.tobytes() == ref, where + " out=f"
            assert advect(f, sh, axis, scheme=scheme, bc=bc, arena=arena,
                          layout="packed").tobytes() == ref, where + " packed"
        # a shift that broadcast-expands the result
        thin = [slice(None)] * f.ndim
        thin[(axis + 2) % f.ndim] = slice(0, 1)
        thin = f[tuple(thin)]
        _, sh = next(mixed_sign_shifts(f.shape, axis))
        got = advect(thin, sh, axis, scheme=scheme, bc=bc)
        assert got.shape == f.shape
        assert got.tobytes() == _by_sign(thin, sh, axis, scheme, bc).tobytes()


@pytest.mark.smoke
@pytest.mark.parametrize("bc", ["periodic", "zero", "halo"])
def test_one_kernel_run_per_block(monkeypatch, bc):
    """Mixed, all-positive and all-negative shifts each run the flux
    kernel once on a one-block array, and once per block when blocked —
    landing a ``halo`` included."""
    calls = []
    kernel = advection._flux_positive
    monkeypatch.setattr(advection, "_flux_positive",
                        lambda *a: (calls.append(1), kernel(*a))[1])
    f = _field(np.float64)
    kw = {"halo": (f, f)} if bc == "halo" else {"bc": bc}
    _, mixed = next(mixed_sign_shifts(f.shape, 1))
    assert (mixed < 0).any() and (mixed > 0).any()
    for sh in (mixed, np.abs(mixed), -0.1 - np.abs(mixed)):
        del calls[:]
        advect(f, sh, 1, **kw)
        assert len(calls) == 1

    monkeypatch.setattr(advection, "BLOCK_CELLS", 200)
    blocks = len(list(advection._block_plan(np.moveaxis(f, 1, -1).shape)))
    del calls[:]
    advection.reset_fastpath_counters()
    advect(f, mixed, 1, **kw)
    assert len(calls) == blocks > 1
    assert sum(advection.fastpath_counters().values()) == blocks


# ----------------------------------------------------------------------
# halo=: a block of a periodic row, its neighbours landed as ghost planes
# ----------------------------------------------------------------------

HALO_SHAPE = (8, 9, 6, 10)  # even halves on 8 and 10, 5 + 4 on 9


def _row_blocks(f, axis, cut):
    """``f`` cut in two along ``axis`` at ``cut``: ``[(lo, hi, block)]``."""
    n = f.shape[axis]
    return [(lo, hi, np.take(f, range(lo, hi), axis=axis))
            for lo, hi in ((0, cut), (cut, n))]


def _below_one(shape, axis):
    """``mixed_sign_shifts`` scaled below one cell (a positive factor
    keeps the ``0.0`` / ``-0.0`` rows), and all-positive / all-negative."""
    for name, sh in mixed_sign_shifts(shape, axis):
        top = np.abs(sh).max()
        yield name, sh * (0.99 / top) if top >= 1.0 else sh
    _, sh = next(mixed_sign_shifts(shape, axis))
    yield "all_positive", np.abs(sh)
    yield "all_negative", -0.01 - 0.98 * np.abs(sh)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("scheme", [
    pytest.param(s, marks=pytest.mark.smoke) if s == "slmpp5" else s
    for s in sorted(SCHEMES)
])
def test_halo_bitwise_equals_the_serial_slab(monkeypatch, scheme, dtype):
    """Below one cell of shift, a block advected with its two neighbours
    as ``halo`` is the slab of the periodic sweep of the whole row, bit
    for bit: the ``zero`` window reads only landed planes, and with
    ``k == 0`` its flux is the periodic one, donor cell by donor cell."""
    rng = np.random.default_rng(12)
    f = (0.5 + rng.random(HALO_SHAPE)).astype(dtype)
    g = advection.ghost_width(SCHEMES[scheme])
    for axis in range(f.ndim):
        n = f.shape[axis]
        if n < SCHEMES[scheme].order:
            continue
        for name, sh in _below_one(f.shape, axis):
            monkeypatch.setattr(advection, "BLOCK_CELLS", 1 << 16)
            ref = advect(f, sh, axis, scheme=scheme)
            for cut in {n // 2, n // 2 + 1}:
                if min(cut, n - cut) < g:
                    continue
                blocks = _row_blocks(f, axis, cut)
                for cells in (1 << 16, 200):
                    monkeypatch.setattr(advection, "BLOCK_CELLS", cells)
                    for i, (lo, hi, blk) in enumerate(blocks):
                        halo = (blocks[i - 1][2], blocks[1 - i][2])
                        got = advect(blk, sh, axis, scheme=scheme, halo=halo,
                                     arena=ScratchArena())
                        assert got.tobytes() == np.take(
                            ref, range(lo, hi), axis=axis
                        ).tobytes(), (
                            f"{scheme}/{np.dtype(dtype).name} axis {axis} "
                            f"{name} block {lo}:{hi} BLOCK_CELLS={cells}"
                        )


@pytest.mark.parametrize("sh", [2.3, "field"])
def test_halo_past_one_cell_conserves_and_matches_to_rounding(sh):
    """Past one cell a block landed with its neighbours is still the slab
    of the whole row's sweep, to the last rounding: S(i, k) adds the
    same k cells in the same order wherever the block starts.  ``2.3`` is
    a uniform shift, ``field`` the mixed-sign fields; both run at CFL 2.3
    and 3.7, on every cut that leaves both blocks the ghost width."""
    axis = 3
    rng = np.random.default_rng(8)
    for dtype, rtol in ((np.float32, 1e-5), (np.float64, 1e-12)):
        f = (0.5 + rng.random((4, 5, 3, 14))).astype(dtype)
        for cfl in (2.3, 3.7):
            shifts = [cfl] if sh != "field" else [
                s * (cfl / np.abs(s).max()) for _, s in mixed_sign_shifts(f.shape, axis)
            ]
            g = advection.ghost_width(SCHEMES["slmpp5"], cfl)
            for shift in shifts:
                ref = advect(f, shift, axis)
                for cut in range(g, f.shape[axis] - g + 1):
                    blocks = _row_blocks(f, axis, cut)
                    got = np.concatenate([
                        advect(blk, shift, axis,
                               halo=(blocks[i - 1][2], blocks[1 - i][2]))
                        for i, (_, _, blk) in enumerate(blocks)
                    ], axis=axis)
                    assert got.tobytes() == ref.tobytes(), (dtype, cfl, cut)
                np.testing.assert_allclose(got.sum(dtype=np.float64),
                                           f.sum(dtype=np.float64), rtol=rtol)


def test_halo_rejects_thin_neighbours_and_a_zero_bc():
    f = _field(np.float64)
    thin = f[:, :, :, :2]  # slmpp5 at |shift| < 1 reads 3 planes
    with pytest.raises(ValueError, match="ghost width 3 planes"):
        advect(f, 0.5, 3, halo=(f, thin))
    with pytest.raises(ValueError, match="periodic"):
        advect(f, 0.5, 3, bc="zero", halo=(f, f))


def test_arena_does_not_follow_the_sign_pattern():
    """A fresh acceleration field every step changes how many rows of a
    block go each way; the arena must reach steady state regardless."""
    grid = PhaseSpaceGrid(nx=(8, 8, 8), nu=(8, 8, 8), box_size=1.0,
                          v_max=1.0, dtype=np.float32)
    rng = np.random.default_rng(4)
    solver = VlasovSolver(grid)
    solver.f = 0.5 + rng.random(grid.shape, dtype=np.float32)

    def step():
        accel = rng.standard_normal((3,) + grid.nx)
        solver.strang_step(accel, 0.02, 0.04, lambda: accel, 0.02)
        return solver.arena.stats()

    step()
    warm = step()
    for _ in range(10):
        stats = step()
    assert stats["misses"] == warm["misses"]
    assert stats["nbytes"] == warm["nbytes"] < 32 * 2**20
    assert stats["hits"] > warm["hits"]
    views = [len(v) for _, v in solver.arena._pool.values()]
    assert max(views) <= ScratchArena.MAX_VIEWS


@pytest.mark.parametrize("bc", ["periodic", "zero"])
def test_a_scratch_key_has_one_shape_per_kernel_call(bc):
    """Same ``(key, dtype)`` means same memory: the limiter's ``L + 2``,
    ``L + 1`` and ``L``-plane temporaries, live at the same time, must be
    distinct keys (or slices of one request), never one key re-requested
    at another shape."""

    class Recorder(ScratchArena):
        def take(self, key, shape, dtype):
            seen.setdefault((key, np.dtype(dtype)), set()).add(tuple(shape))
            return super().take(key, shape, dtype)

    seen = {}
    f = _field(np.float32)
    _, sh = next(mixed_sign_shifts(f.shape, 1))
    advect(f, sh, 1, bc=bc, arena=Recorder())  # one block, one direction
    parts = {p for key, _ in seen for p in (key if isinstance(key, tuple) else (key,))}
    assert not parts & {"neg", "mix"}
    assert {k: v for k, v in seen.items() if len(v) > 1} == {}


# ----------------------------------------------------------------------
# the reference 6-D grid: engines agree, and the arena is block-sized
# ----------------------------------------------------------------------

GRAV6D = dict(nx=(16, 8, 8), nu=(8, 8, 8), box_size=1.0, v_max=1.0,
              dtype=np.float32)


def _strang(engine, steps=1):
    grid = PhaseSpaceGrid(**GRAV6D)
    rng = np.random.default_rng(3)
    f0 = 0.5 + rng.random(grid.shape, dtype=np.float32)
    accel = rng.standard_normal((3,) + grid.nx)
    solver = VlasovSolver(grid, engine=engine)
    try:
        solver.f = f0
        stats = []
        for _ in range(steps):
            solver.strang_step(accel, 0.02, 0.04, lambda: accel, 0.02)
            stats.append(solver.arena.stats())
        return solver.f.tobytes(), stats
    finally:
        solver.engine.close()


def test_engines_bitwise_on_the_reference_grid(monkeypatch):
    serial, _ = _strang(None)
    monkeypatch.setattr(pencil, "MIN_SHARD_BYTES", 0)
    threads = PencilEngine(n_workers=2)
    assert _strang(threads)[0] == serial
    assert threads.last_plan is not None
    domain = DomainEngine(topology=(2, 1, 1))
    assert _strang(domain)[0] == serial
    assert not domain.degraded
    monkeypatch.setattr(advection, "BLOCK_CELLS", ONE_BLOCK)
    assert _strang(None)[0] == serial


def test_warm_arena_is_block_sized_and_pool_served():
    _, (warm, again) = _strang(None, steps=2)
    assert warm["nbytes"] < 32 * 2**20, f"{warm['nbytes'] / 2**20:.0f} MiB"
    assert again["nbytes"] == warm["nbytes"]
    assert again["misses"] == warm["misses"]
    assert again["hits"] > warm["hits"]
