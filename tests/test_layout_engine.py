"""The sweep kernel has one path; these are the bits it must keep.

``advect`` chooses neither a layout nor between fast and slow forms, so
the alternatives exist only here, as oracles it is compared against:

* ``layout="packed"`` — the block-copy measurement hook kept for
  ``benchmarks/e2e`` ``probe_pack_gain`` — is **bitwise** ``layout=None``
  and ``"in_place"`` for every scheme, axis, boundary condition and
  dtype, with and without an arena, blocked, and in place;
* the uniform-k roll/slice form is bitwise the ``take_along_axis``
  gather form, which stays in the kernel for non-uniform ``k`` and is
  forced here by patching ``_uniform_int`` to find no uniform shift;
* a warm Strang step is re-served entirely from the
  :class:`ScratchArena` pool (hit-rate assertion).

(The allocating-limiter oracle is in ``tests/test_limiters.py`` beside
the sign-form one.)

The float64 cases deliberately include arrays whose innermost extent is
8 (64-byte rows) — the stride class where elementwise kernels on
hyperplane views are most fragile on real BLAS/SIMD builds, and the one
the fused mirror pass works around.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import advection
from repro.core.advection import SCHEMES, advect
from repro.core.mesh import PhaseSpaceGrid
from repro.core.vlasov import VlasovSolver
from repro.perf import ScratchArena


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
    """The roll/slice form a uniform integer shift takes is bitwise the
    gather form every other shift takes."""
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
