"""The sweep kernel has one path; these are the bits it must keep.

``advect`` chooses neither a layout nor between fast and slow forms, so
the alternatives exist only here, as oracles it is compared against:

* the rows-last composition the kernel ran on until ISSUE 17
  (``tests/rows_last_reference.py``: zero pad, stencil gathers per
  interface, roll-family MP bounds, interface-space clip) is **bitwise**
  the cell-space kernel on ghost-extended planes, for every scheme,
  axis, boundary condition and dtype and every shape of shift;
* ``layout=`` — validated and ignored, kept for ``benchmarks/e2e``
  ``probe_pack_gain`` — changes nothing, with and without an arena,
  blocked, and in place;
* the slice-add lookup a uniform ``k`` takes is bitwise the indexed
  lookup (``_add_lookup``), which stays in the kernel for non-uniform
  ``k`` and is forced here by patching ``_uniform_int`` to find no
  uniform shift;
* a warm Strang step is re-served entirely from the
  :class:`ScratchArena` pool (hit-rate assertion).

(The allocating-limiter oracle is in ``tests/test_limiters.py`` beside
the sign-form one.)

The float64 cases deliberately include blocks whose planes are 8 cells
(64 bytes) — the stride class where float64 ``np.negative`` has
miscomputed on hyperplane views, which the rows-last mirror pass worked
around.  The kernel negates nothing now: left-flowing rows are landed
and written back reversed, and those reversed copies run on the same
planes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import advection
from repro.core.advection import SCHEMES, advect
from repro.core.mesh import PhaseSpaceGrid
from repro.core.vlasov import VlasovSolver
from repro.perf import ScratchArena

from .conftest import adversarial_fields, mixed_sign_shifts
from .rows_last_reference import reference_advect

SHAPE = (7, 5, 9, 11)  # no extent divides another


def _field(dtype, shape=(8, 7, 9, 8)):
    # every axis >= 7 (the widest stencil order); innermost extent 8
    # keeps float64 rows at 64 B, the small-stride class elementwise
    # kernels are touchiest about on hyperplane views
    rng = np.random.default_rng(11)
    return (0.5 + rng.random(shape)).astype(dtype)


def _shifts(shape, axis):
    """Scalar, uniform-k varying-alpha, and fully varying shift fields."""
    rng = np.random.default_rng(5)
    vary = (axis + 1) % len(shape)
    prof_shape = [1] * len(shape)
    prof_shape[vary] = shape[vary]
    profile = rng.random(prof_shape)
    yield 2.3
    yield -1.7
    yield 1.0 + 0.8 * profile          # k == 1 everywhere, alpha varies
    yield (profile - 0.5) * 6.0        # k varies, both signs


def _advect(f, sh, axis, scheme, bc, **kw):
    out = np.empty_like(f)
    advect(f, sh, axis, scheme=scheme, bc=bc, out=out, **kw)
    return out


def _every_shift(shape, axis):
    """``mixed_sign_shifts`` plus what they leave out: a Python scalar,
    more than one wrap of the axis in either direction, a whole number of
    cells, and one sign only with ``k`` varying from row to row (along
    every axis, and along two non-adjacent ones: no row split flattens
    those before the lookup)."""
    yield from mixed_sign_shifts(shape, axis)
    yield "scalar", -1.7
    yield "whole_cells", 2.0
    yield "two_wraps", 2.0 * shape[axis] + 3.4
    rng = np.random.default_rng(9)
    full = list(shape)
    full[axis] = 1
    yield "wraps_mixed", (rng.random(full) - 0.5) * 5.0 * shape[axis]
    yield "one_sign", -0.5 - 2.9 * rng.random(full)
    shifts = dict(mixed_sign_shifts(shape, axis))
    yield "one_sign_two_axes", 0.25 + np.abs(shifts["two_axes"])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("bc", ["periodic", "zero"])
@pytest.mark.parametrize("scheme", [
    pytest.param(s, marks=pytest.mark.smoke) if s == "slmpp5" else s
    for s in sorted(SCHEMES)
])
def test_planes_bitwise_equal_the_rows_last_kernel(scheme, bc, dtype, monkeypatch):
    rng = np.random.default_rng(11)
    f = (0.5 + rng.random(SHAPE)).astype(dtype)
    arena = ScratchArena()
    where = f"{scheme}/{bc}/{np.dtype(dtype).name}"
    axes = [a for a in range(f.ndim) if SHAPE[a] >= SCHEMES[scheme].order]
    for axis in axes:
        for name, sh in _every_shift(SHAPE, axis):
            ref = reference_advect(f, sh, axis, scheme, bc).tobytes()
            for pool in (None, arena):
                got = advect(f, sh, axis, scheme=scheme, bc=bc, arena=pool)
                assert got.tobytes() == ref, f"{where} axis {axis} {name}"
            with monkeypatch.context() as patch:
                patch.setattr(advection, "BLOCK_CELLS", 200)
                same = f.copy()
                advect(same, sh, axis, scheme=scheme, bc=bc, out=same, arena=arena)
                assert same.tobytes() == ref, f"{where} axis {axis} {name} blocked out=f"
        # a shift that broadcast-expands the result
        thin = [slice(None)] * f.ndim
        thin[(axis + 2) % f.ndim] = slice(0, 1)
        thin = f[tuple(thin)]
        _, sh = next(mixed_sign_shifts(SHAPE, axis))
        got = advect(thin, sh, axis, scheme=scheme, bc=bc, arena=arena)
        assert got.shape == SHAPE
        assert got.tobytes() == reference_advect(thin, sh, axis, scheme, bc).tobytes()
    for axis in (axes[0], axes[-1]):
        shifts = dict(mixed_sign_shifts(SHAPE, axis))
        for fname, g in adversarial_fields(SHAPE, dtype):
            for name in ("cfl_3.3", "exact_rows"):
                got = advect(g, shifts[name], axis, scheme=scheme, bc=bc, arena=arena)
                ref = reference_advect(g, shifts[name], axis, scheme, bc)
                assert got.tobytes() == ref.tobytes(), (
                    f"{where} axis {axis} {name} {fname}"
                )
    # no rows at all: every plane is one cell
    row = f[0, 0, 0].copy()
    for sh in (0.6, -0.6, 3.25, -2.0 * row.size - 0.5, 0.0):
        got = advect(row, sh, 0, scheme=scheme, bc=bc)
        assert got.tobytes() == reference_advect(row, sh, 0, scheme, bc).tobytes(), (
            f"{where} 1-D shift {sh}"
        )


@pytest.mark.smoke
@pytest.mark.parametrize("bc", ["periodic", "zero"])
def test_mirror_negation_on_64_byte_planes(bc):
    """float64 blocks whose planes are 8 cells: rows with a negative
    shift are landed and written back reversed plane by plane, inner
    stride 8 bytes."""
    rng = np.random.default_rng(6)
    for shape, axis in (((9, 8), 0), ((8, 9), 1), ((9, 1, 8), 0)):
        f = rng.standard_normal(shape)
        rows = [1 if a == axis else extent for a, extent in enumerate(shape)]
        for sh in (-0.4, -2.6, -2.9 * rng.random(rows), (rng.random(rows) - 0.5) * 3.0):
            got = advect(f, sh, axis, bc=bc)
            assert got.tobytes() == reference_advect(f, sh, axis, "slmpp5", bc).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("bc", ["periodic", "zero"])
@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_packed_bitwise_identical(scheme, bc, dtype, monkeypatch):
    """``layout="packed"`` == ``"in_place"`` == ``None``, bit for bit."""
    f = _field(dtype)
    arena = ScratchArena()
    for axis in range(f.ndim):
        for sh in _shifts(f.shape, axis):
            ref = _advect(f, sh, axis, scheme, bc).tobytes()
            where = f"{scheme}/{bc}/{np.dtype(dtype).name} axis {axis}"
            for layout in ("packed", "in_place"):
                for pool in (None, arena):
                    got = _advect(f, sh, axis, scheme, bc,
                                  arena=pool, layout=layout)
                    assert got.tobytes() == ref, f"{where} {layout} diverged"
            with monkeypatch.context() as patch:
                patch.setattr(advection, "BLOCK_CELLS", 1000)
                got = _advect(f, sh, axis, scheme, bc,
                              arena=arena, layout="packed")
                assert got.tobytes() == ref, f"{where} blocked diverged"
                g = f.copy()
                advect(g, sh, axis, scheme=scheme, bc=bc, out=g,
                       arena=arena, layout="packed")
                assert g.tobytes() == ref, f"{where} in place diverged"


def test_layout_accepts_only_the_probe_values():
    f = _field(np.float32)
    for layout in ("auto", "bogus", ScratchArena()):
        with pytest.raises(ValueError, match="unknown layout"):
            advect(f, 0.5, 0, layout=layout)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_uniform_fast_path_matches_gather(scheme, dtype, monkeypatch):
    """The slice-add lookup of ``phi`` and the prefix sums a uniform
    integer shift takes is bitwise the indexed lookup every other shift
    takes."""
    f = _field(dtype)
    for bc in ("periodic", "zero"):
        for axis in (0, f.ndim - 1):
            for sh in _shifts(f.shape, axis):
                got = _advect(f, sh, axis, scheme, bc, arena=ScratchArena())
                with monkeypatch.context() as patch:
                    patch.setattr(advection, "_uniform_int", lambda k: None)
                    advection.reset_fastpath_counters()
                    want = _advect(f, sh, axis, scheme, bc)
                    assert advection.fastpath_counters()["uniform_k"] == 0
                assert got.tobytes() == want.tobytes(), (
                    f"{scheme}/{bc}/{np.dtype(dtype).name} axis {axis} "
                    "uniform-k form diverged from the gather form"
                )


def test_fast_path_counters_track_uniform_shifts():
    f = _field(np.float32)
    advection.reset_fastpath_counters()
    _advect(f, 1.5, 0, "slp5", "periodic")           # uniform
    vary = np.linspace(-2.0, 2.0, f.shape[1]).reshape(1, -1, 1, 1)
    _advect(f, vary, 0, "slp5", "periodic")          # k varies -> gather
    counters = advection.fastpath_counters()
    assert counters["uniform_k"] >= 1
    assert counters["gather_k"] >= 1


def test_warm_strang_step_is_pool_served():
    """After one warm-up Strang step, a second step allocates nothing new:
    every scratch request (stencil, flux, limiter) is an arena hit."""
    grid = PhaseSpaceGrid(
        nx=(8, 6), nu=(6, 8), box_size=1.0, v_max=1.0, dtype=np.float32
    )
    solver = VlasovSolver(grid)
    rng = np.random.default_rng(3)
    solver.f[...] = 0.5 + rng.random(grid.shape, dtype=np.float32)
    accel = rng.standard_normal((2,) + grid.nx)
    solver.strang_step(accel, 0.05, 0.1, lambda: accel, 0.05)  # warm
    before = solver.arena.stats()
    solver.strang_step(accel, 0.05, 0.1, lambda: accel, 0.05)
    after = solver.arena.stats()
    assert after["misses"] == before["misses"], (
        "warm Strang step allocated fresh scratch: "
        f"{after['misses'] - before['misses']} new buffers"
    )
    assert after["hits"] > before["hits"]
