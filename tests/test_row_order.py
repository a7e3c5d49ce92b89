"""The shift profile leads the rows of a kernel call.

``advect`` transposes ``f`` so that the axes the shift varies along come
first, the other non-advected axes next and the advected axis last
(``advection._row_order``).  A drift's profile is one velocity axis, so
its alpha, c_m(alpha) and sign broadcasts run over contiguous rows and a
block of the reference grid holds one velocity index: one sign, one
``k``, a scalar alpha.  The order moves no bit:

* every pairing of advected axis and profile axis (the innermost and two
  axes at once included), both BCs, both dtypes, mixed signs and
  ``|shift| > 1`` equals the rows-last reference, one block and blocked;
* ``halo=`` on a split row equals the serial slab with the profile on
  an inner axis;
* on the ``grav6d`` reference shape every block of the three drift
  sweeps takes the single-sign uniform-k path.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core import advection
from repro.core.advection import SCHEMES, advect
from repro.core.mesh import PhaseSpaceGrid
from repro.core.vlasov import VlasovSolver
from repro.perf import ScratchArena

from .rows_last_reference import reference_advect

SHAPES = {4: (7, 5, 6, 8), 6: (5, 6, 5, 7, 5, 6)}  # every axis >= 5


def _profile(shape, axis, along, cfl, seed):
    """A mixed-sign shift varying along the axes ``along`` only, scaled
    to ``max|shift| = cfl``, with exact ``0.0`` / ``-0.0`` entries."""
    prof = [1] * len(shape)
    for a in along:
        prof[a] = shape[a]
    rng = np.random.default_rng(seed)
    sh = rng.random(prof) - 0.5
    flat = sh.reshape(-1)
    flat[1], flat[2] = 0.6, -0.55
    sh *= cfl / np.abs(sh).max()
    flat[0], flat[-1] = 0.0, -0.0
    assert sh.shape[axis] == 1 and (sh < 0).any() and (sh > 0).any()
    return sh


def _pairings(ndim):
    """``(axis, along)``: every single profile axis, and two at once
    (the innermost non-advected axis with the outermost)."""
    for axis in range(ndim):
        others = [a for a in range(ndim) if a != axis]
        for a in others:
            yield axis, (a,)
        yield axis, (others[0], others[-1])


def test_the_order_puts_the_profile_first():
    assert advection._row_order(6, 2, (1, 1, 1, 1, 1, 8)) == (
        (5, 0, 1, 3, 4, 2), (1, 2, 5, 3, 4, 0))
    assert advection._row_order(6, 0, (1, 1, 1, 8, 1, 1))[0] == (3, 1, 2, 4, 5, 0)
    # a kick's profile is the spatial axes, which already lead
    assert advection._row_order(6, 3, (16, 8, 8, 1, 1, 1))[0] == (0, 1, 2, 4, 5, 3)
    # a scalar shift keeps the natural order
    assert advection._row_order(4, 1, ())[0] == (0, 2, 3, 1)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("bc", ["periodic", "zero"])
@pytest.mark.parametrize("ndim", [4, 6])
def test_every_profile_axis_equals_the_rows_last_reference(ndim, bc, dtype,
                                                           monkeypatch):
    shape = SHAPES[ndim]
    f = (0.5 + np.random.default_rng(4).random(shape)).astype(dtype)
    arena = ScratchArena()
    for seed, (axis, along) in enumerate(_pairings(ndim)):
        cfl = (0.9, 3.3)[seed % 2]  # every axis sees both, k = 0 and k <= 3
        sh = _profile(shape, axis, along, cfl, seed)
        ref = reference_advect(f, sh, axis, "slmpp5", bc).tobytes()
        where = (f"{ndim}-D {bc} {np.dtype(dtype).name} axis {axis} "
                 f"along {along} cfl {cfl}")
        got = advect(f, sh, axis, bc=bc, arena=arena)
        assert got.tobytes() == ref, where
        with monkeypatch.context() as patch:
            patch.setattr(advection, "BLOCK_CELLS", 200)
            same = f.copy()
            advect(same, sh, axis, bc=bc, out=same, arena=arena)
            assert same.tobytes() == ref, f"{where} blocked out=f"


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_every_scheme_with_the_profile_innermost(scheme):
    """The profile on the innermost axis, every scheme: the case whose
    broadcasts used to run 8-cell inner loops."""
    shape = SHAPES[4]
    f = (0.5 + np.random.default_rng(7).random(shape)).astype(np.float32)
    for axis, bc in itertools.product((0, 1), ("periodic", "zero")):
        if shape[axis] < SCHEMES[scheme].order:
            continue
        sh = _profile(shape, axis, (3,), 2.6, axis)
        got = advect(f, sh, axis, scheme=scheme, bc=bc)
        ref = reference_advect(f, sh, axis, scheme, bc)
        assert got.tobytes() == ref.tobytes(), (scheme, axis, bc)


@pytest.mark.parametrize("cells", [1 << 16, 200])
@pytest.mark.parametrize("along", [(3,), (1, 3)])
def test_halo_with_the_profile_inner_equals_the_serial_slab(monkeypatch, cells,
                                                            along):
    """A periodic row cut in two along axis 0, each half advected with
    its neighbours as ``halo``, is the slab of the whole row's sweep when
    the profile sits on an inner axis (and reorders the rows), below and
    past one cell."""
    monkeypatch.setattr(advection, "BLOCK_CELLS", cells)
    axis = 0
    f = (0.5 + np.random.default_rng(3).random((14, 5, 4, 6))).astype(np.float32)
    n = f.shape[axis]
    for cfl in (0.9, 2.3):
        sh = _profile(f.shape, axis, along, cfl, 1)
        ref = advect(f, sh, axis)
        g = advection.ghost_width(SCHEMES["slmpp5"], cfl)
        for cut in (g, n // 2, n - g):
            lo, hi = f[:cut], f[cut:]
            got = np.concatenate([advect(lo, sh, axis, halo=(hi, hi)),
                                  advect(hi, sh, axis, halo=(lo, lo))], axis=axis)
            assert got.tobytes() == ref.tobytes(), (along, cfl, cut)


def test_reference_drifts_take_the_single_sign_uniform_k_path():
    """On the ``grav6d`` reference shape a drift block holds one velocity
    index: one sign and one ``k``, so no block gathers its lookup and no
    workspace is built for mixed signs — at a CFL where ``k`` and the
    sign both vary over the sweep."""
    grid = PhaseSpaceGrid(nx=(16, 8, 8), nu=(8, 8, 8), box_size=1.0,
                          v_max=1.0, dtype=np.float32)
    solver = VlasovSolver(grid)
    solver.f = 0.5 + np.random.default_rng(2).random(grid.shape, dtype=np.float32)
    dt = 2.5 / grid.nx[0] / grid.v_max  # max |shift| ~ 2.2 cells on x
    assert 1.0 < grid.v_max * dt / min(grid.dx) < 3.0  # drift CFL
    advection.reset_fastpath_counters()
    solver.drift(dt)
    counts = advection.fastpath_counters()
    assert counts["gather_k"] == 0
    # one block per velocity index of the profile axis, three sweeps
    assert counts["uniform_k"] == sum(grid.nu)
    mixed = [key for key in solver.arena._workspaces if key[-1]]
    assert mixed == []
