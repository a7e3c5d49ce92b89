"""Conservative semi-Lagrangian advection along one axis of a phase-space array.

This is the computational heart of the library — the operator ``D_l(dt)``
of the paper's Eq. (5).  A single call advances one 1-D advection equation

    df/dt + v df/dl = 0

for the whole multi-dimensional array at once, vectorized over every other
axis (the NumPy analog of the paper's SIMD vectorization over the
non-advected loop indices, §5.3).

Kernel layout
-------------
A kernel call lands its block once as *planes* — the advected axis first,
every other index contiguous behind it, ghost planes sized from the
stencil on both ends (wrap copies, zeros, or a domain block's
neighbours' edge planes, ``halo=``) — which is the paper's
load-and-transpose of the chunk being worked on (§5.4) and its
stencil-sized ghosts (§5.1.3) in one copy: for a domain block the
landing copy *is* the halo exchange.  From then on the neighbor
``j + m`` of every cell is a slice of planes, a view, and a shift
fraction broadcasts along the leading axis.  The SL-MPP5 flux through
interface ``i`` is ``S(i, k) + phi(j, alpha)`` with donor ``j = i - k``
[23]; neither ``k`` nor ``alpha`` varies along the advected axis, so
``phi`` is a function of the donor cell alone: it is evaluated once per
cell of a window (all ``n`` cells of a periodic row; for ``zero`` only
the donors of the ``n + 1`` interfaces the update reads) and looked up
per interface.  docs/PERFORMANCE.md ("Cell space on ghost-extended
planes") has the pass counts and the measurements.

Every call orders its rows the same way (``_row_order``): the axes the
shift varies along lead, in their own order, then the other
non-advected axes, then the advected axis.  A broadcast of the shift's
profile — alpha, the coefficients c_m(alpha), the sign mask — then runs
over long contiguous inner loops, and the block plan, which cuts the
leading axes first, cuts the profile's axes first: a drift block of the
reference grid holds one velocity index, so one sign and one ``k``
(docs/PERFORMANCE.md, "The shift profile leads the rows").  A kick's
profile is the spatial axes, which lead anyway.

The landing copy also carries the sign of the shift: a row flowing left
is landed reversed and advanced rightward by ``-shift`` (the reversal
symmetry of the flux), and its update is written back reversed.  Every
row of a block then flows the same way, so a block is one kernel run
whatever its shifts' signs (docs/PERFORMANCE.md, "One kernel run per
call").

Schemes
-------
``slmpp5``
    The paper's novel scheme [23]: spatially 5th-order conservative
    semi-Lagrangian flux with the Suresh-Huynh MP limiter and a positivity
    clamp, single-stage time integration, stable for *any* CFL number.
``slp5`` / ``slp3`` / ``slp7`` / ``upwind1``
    Unlimited linear SL variants of order 5/3/7/1 (``upwind1`` is the
    donor-cell scheme; order 7 is the natural extension of the family).
``slmpp3`` / ``slmpp7``
    MP-limited + positive variants of the order-3/7 flux (the MP bounds are
    always evaluated on the 5-cell neighborhood of the donor cell).

Every scheme is a :class:`SchemeSpec` row over one flux path: the
polynomial flux of its order, then the MP limiter and the positivity
clamp where the row asks for them.

Shift convention
----------------
``shift = v * dt / dx`` in cell units, broadcastable to ``f`` with size 1
along the advected axis (the advection velocity never varies along its own
axis: in the Vlasov splitting, the spatial speed u_i/a^2 is a function of
velocity only, and the acceleration -dphi/dx_i a function of position only).

Boundary conditions: ``periodic`` (spatial axes) and ``zero`` (velocity
axes — mass crossing the velocity-space boundary [-V, V) leaves the box,
mirroring the paper's truncated velocity domain).

Allocation discipline
---------------------
``advect`` accepts two optional fast-path arguments:

``out=``
    Preallocated destination with the result shape/dtype.  ``out=f``
    sweeps in place — every block lands in scratch and its fluxes are
    fully computed before its output write, and blocks share no rows —
    which is how the engines step one f without a second copy.
``arena=``
    A :class:`repro.perf.arena.ScratchArena` holding the plane, flux
    and limiter scratch buffers.  Repeated calls reuse the same
    memory, and the arena keeps them with every fixed view of them as
    one :func:`_workspace` per call geometry: a warm call makes one
    lookup and its ufunc passes.  The arithmetic is identical with or
    without an arena (same operations, same order — only the buffer
    placement changes), so results are bitwise-equal.

Cache blocking
--------------
An SL-MPP5 kernel call makes 64 ufunc passes over temporaries the size
of its block, 67 when the block mixes shift signs (docs/PERFORMANCE.md,
"Flux-form limiting, one shared interval", counts them;
``tests/test_layout_engine.py::TestPassBudget`` pins them).
``advect`` therefore validates once and then works through arrays above
:data:`BLOCK_CELLS` one block of non-advected rows at a time (see
:func:`_block_plan`), so the temporaries are block-sized and stay in
cache.  Cells couple only along the advected axis: each block
runs the serial arithmetic on its rows and the result is bitwise the
one-block result.  Every engine ends in this function, so every engine
is blocked.

Precision: the whole-cell sums S(i, k) accumulate in float64 even for
float32 f (``_flux_positive``), and only the telescoped *difference* of
neighbouring fluxes is cast back to the storage dtype, so the update
stays in the input precision.  S adds the k cells upstream of its
interface one by one, nearest first: it has no origin (no prefix sum
that starts at cell 0 or at a block's first ghost plane), so a block
landed with its neighbours (``halo=``) sums the same operands in the
same order as the whole row, at any CFL.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from .limiters import (
    clamp_scratch,
    mp_limit_flux,
    mp_scratch,
    positivity_clamp_fraction,
)
from .stencil import flux_coefficient_polynomials

from typing import NamedTuple


class SchemeSpec(NamedTuple):
    """Configuration of one advection scheme."""

    order: int          # formal spatial order / stencil width
    use_mp: bool        # Suresh-Huynh MP limiting of the fractional flux
    use_pos: bool       # positivity clamp of the fractional flux


#: scheme registry
SCHEMES: dict[str, SchemeSpec] = {
    "upwind1": SchemeSpec(1, False, True),
    "slp3": SchemeSpec(3, False, False),
    "slp5": SchemeSpec(5, False, False),
    "slp7": SchemeSpec(7, False, False),
    "slmpp3": SchemeSpec(3, True, True),
    "slmpp5": SchemeSpec(5, True, True),
    "slmpp7": SchemeSpec(7, True, True),
}

_BCS = ("periodic", "zero")
_LAYOUTS = (None, "in_place", "packed")

#: Cells one kernel call works on.  A sweep above this size runs as a
#: sequence of calls over blocks of the non-advected axes, so the
#: block-sized temporaries of a call stay cache-resident instead of
#: streaming through memory at full-array size.  Counted in cells, not
#: bytes: the scratch per cell (float64 flux beside the storage-dtype
#: planes) barely depends on f's dtype, and a kernel call's fixed cost
#: (~80 ufunc dispatches, 64 of them block-sized passes for SL-MPP5;
#: 130-230 us for 1024 cells) sets the floor — see
#: docs/PERFORMANCE.md ("Cache-blocked sweeps") for the measured table.
BLOCK_CELLS = 1 << 16

#: process-wide advisory counters: kernel calls (one per block) whose
#: lookups were slices (uniform k) vs. calls that had to gather.
_FASTPATH = {"uniform_k": 0, "gather_k": 0}


def fastpath_counters() -> dict[str, int]:
    """Snapshot of the uniform-k fast-path hit counters.

    The counters count kernel calls, not sweeps: a sweep above
    :data:`BLOCK_CELLS` adds one count per block, whatever the signs of
    its shifts, and a block can take the fast path where the whole
    sweep's shift field could not.  ``k`` is the integer part of
    ``|shift|``.
    """
    return dict(_FASTPATH)


def reset_fastpath_counters() -> None:
    """Zero the fast-path hit counters (benchmarks/tests)."""
    for key in _FASTPATH:
        _FASTPATH[key] = 0


def _uniform_int(k: np.ndarray) -> int | None:
    """The single integer shift when ``k`` is constant, else None.

    ``k`` has size 1 along the advected axis, so this scan touches only
    the (small) non-advected profile of the shift.
    """
    if k.size == 1:
        return int(k.reshape(-1)[0])
    kmin = k.min()
    return int(kmin) if kmin == k.max() else None


def _shift_bounds(k: np.ndarray) -> tuple[int | None, int, int]:
    """``(kc, k_min, k_max)``: :func:`_uniform_int` and the range of ``k``."""
    kc = _uniform_int(k)
    if kc is not None:
        return kc, kc, kc
    return None, int(k.min()), int(k.max())


@lru_cache
def _move(ndim: int, src: tuple, dst: tuple) -> tuple[int, ...]:
    """``np.moveaxis(a, src, dst)`` as a ``transpose`` order (~0.4 us, not ~7)."""
    order = [a for a in range(ndim) if a not in src]
    for d, a in sorted(zip(dst, src)):
        order.insert(d, a)
    return tuple(order)


@lru_cache
def _row_order(ndim: int, axis: int, sshape: tuple) -> tuple[tuple, tuple]:
    """The axis-last ``transpose`` order of a call and its inverse: the
    axes the shift varies along (size > 1 in ``sshape``) in their own
    order, the other non-advected axes, the advected axis (module
    docstring, "Kernel layout").  A shift of the wrong ndim keeps the
    natural order; :func:`_normalize_shift` refuses it."""
    vary = ()
    if len(sshape) == ndim:
        vary = tuple(a for a in range(ndim) if a != axis and sshape[a] > 1)
    rest = tuple(a for a in range(ndim) if a != axis and a not in vary)
    order = vary + rest + (axis,)
    return order, tuple(order.index(a) for a in range(ndim))


def _scratch(arena, key, shape, dtype) -> np.ndarray:
    """Uninitialized work buffer — pooled when an arena is supplied."""
    if arena is None:
        return np.empty(shape, dtype=dtype)
    return arena.take(key, shape, dtype)


def stencil_reach(spec: SchemeSpec) -> int:
    """Cells read on each side of the donor cell by a scheme's stencil.

    The MP limiter widens the stencil to the 5-cell Suresh-Huynh
    neighborhood; every other scheme touches exactly ``order`` cells.
    This is the per-scheme bound ghost sizing honors — ghosts as wide as
    the widest reach of the family would over-allocate every
    ``upwind1``/``slp3`` sweep.
    """
    width = max(spec.order, 5) if spec.use_mp else spec.order
    return (width - 1) // 2


def ghost_width(spec: SchemeSpec, max_shift: float = 0.0) -> int:
    """Planes a non-wrapping window reads left of a row shifted by up to
    ``max_shift``: the ``floor(max_shift)`` whole cells and the stencil
    of the donor of interface ``-1/2``, one cell out.  ``zero`` pads the
    left with it, ``halo=`` lands it on both sides (a reversed row reads
    its right neighbour on the left), the domain engine sizes blocks by it.
    """
    return stencil_reach(spec) + 1 + int(math.floor(max_shift))


def advect(
    f: np.ndarray,
    shift,
    axis: int,
    scheme: str = "slmpp5",
    bc: str = "periodic",
    out: np.ndarray | None = None,
    arena=None,
    layout=None,
    halo: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Advance one directional advection by a (possibly >1) CFL shift.

    Parameters
    ----------
    f:
        Cell-average array of any dimensionality.  dtype float32 or float64;
        the computation runs in the input precision (the paper uses float32
        for the whole Vlasov hierarchy).
    shift:
        ``v dt / dx`` — scalar or array broadcastable to ``f`` with length 1
        along ``axis``.
    axis:
        The advected axis.
    scheme:
        One of :data:`SCHEMES`.
    bc:
        ``periodic`` or ``zero``.
    out:
        Optional destination array with the result shape and dtype; may
        alias ``f`` (an ``out`` overlapping ``f`` any other way than as
        the same view is computed as one block).  When omitted a fresh
        array is allocated.
    arena:
        Optional :class:`repro.perf.arena.ScratchArena` supplying the
        internal work buffers.  One arena must serve one caller at a
        time (give each worker thread/process its own).
    layout:
        Validated and ignored: every block is landed in contiguous
        scratch (:func:`_advect_block`), so ``None``, ``"in_place"`` and
        ``"packed"`` are the same program.  The argument stays because
        ``benchmarks/e2e`` ``probe_pack_gain`` passes it — no product
        caller does.
    halo:
        ``(left, right)``: the blocks beside ``f`` in a periodic row cut
        into blocks (``bc`` must be ``periodic``).  They have ``f``'s
        shape except along ``axis``, where each holds at least
        :func:`ghost_width` planes.  Their edge planes are landed as
        ``f``'s ghost planes and the flux runs on the ``zero`` window,
        which never wraps, so the result is bitwise the slab of
        advecting the whole row, at any shift.

    Returns
    -------
    numpy.ndarray
        New cell averages, same shape/dtype as ``f`` (broadcast against
        the shift's non-advected axes).
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; choose from {sorted(SCHEMES)}")
    if bc not in _BCS:
        raise ValueError(f"unknown bc {bc!r}; choose from {_BCS}")
    spec = SCHEMES[scheme]
    order = spec.order

    if not -f.ndim <= axis < f.ndim:
        raise ValueError(f"axis {axis} is out of bounds for f of ndim {f.ndim}")
    ax = axis if axis >= 0 else axis + f.ndim
    sh = np.asarray(shift, dtype=np.float64)
    last, back = _row_order(f.ndim, ax, sh.shape)
    fw = f.transpose(last)
    n = fw.shape[-1]
    if n < order and halo is None:
        raise ValueError(f"axis length {n} too short for order-{order} stencil")

    sh = _normalize_shift(sh, f, last)

    if layout not in _LAYOUTS:
        raise ValueError(f"unknown layout {layout!r}; choose from {_LAYOUTS}")

    if halo is not None:
        if bc != "periodic":
            raise ValueError(f"halo= continues a periodic row; got bc={bc!r}")
        halo = tuple(h.transpose(last) for h in halo)
        g = ghost_width(spec, np.abs(sh).max())
        if any(h.shape[:-1] != fw.shape[:-1] or h.shape[-1] < g for h in halo):
            raise ValueError(
                f"halo blocks need f's shape off axis {axis} and at least "
                f"ghost width {g} planes along it; got {[h.shape for h in halo]}"
            )

    res_shape_w = sh.shape[:-1] + (n,)
    if res_shape_w != fw.shape:
        res_shape_w = np.broadcast_shapes(fw.shape, res_shape_w)
    res_shape = tuple(res_shape_w[i] for i in back)
    if out is None:
        out = np.empty(res_shape, dtype=fw.dtype)
    elif out.shape != res_shape or out.dtype != fw.dtype:
        raise ValueError(
            f"out has shape {out.shape}/{out.dtype}, "
            f"result needs {res_shape}/{fw.dtype}"
        )
    out_w = out.transpose(last)

    if (
        fw.size <= BLOCK_CELLS
        or res_shape_w != fw.shape
        or (np.shares_memory(out, f) and not _same_view(out, f))
    ):
        # small, broadcast-expanding, or partially aliased: one block
        _advect_block(fw, sh, out_w, spec, bc, arena, halo)
    else:
        # rows couple only along the advected axis, so each block runs
        # the serial arithmetic on its rows — bitwise the one-block
        # result, exact out=f aliasing included
        for idx in _block_plan(fw.shape):
            sh_idx = tuple(
                slice(None) if m == 1 else s for s, m in zip(idx, sh.shape)
            )
            _advect_block(fw[idx], sh[sh_idx], out_w[idx], spec, bc, arena,
                          halo and tuple(h[idx] for h in halo))
    return out


def _same_view(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two equal-shape arrays address exactly the same cells."""
    return a is b or (
        a.strides == b.strides
        and a.__array_interface__["data"][0] == b.__array_interface__["data"][0]
    )


def _block_plan(shape: tuple[int, ...]):
    """Index tuples cutting an axis-last array into ~``BLOCK_CELLS`` blocks.

    Walks the leading (non-advected) axes outermost first: an axis whose
    single index already spans more than a block is cut into unit
    slices, the first axis whose indices fit is cut into balanced runs
    of whole indices, and everything inside it — always including the
    advected axis — rides along whole.
    """
    per_axis = []
    inner = math.prod(shape)
    for length in shape[:-1]:
        inner //= length  # cells under one index of this axis
        pieces = -(-length // max(BLOCK_CELLS // inner, 1))
        q, r = divmod(length, pieces)  # the first r runs are one longer
        edges = [i * q + min(i, r) for i in range(pieces + 1)]
        per_axis.append([slice(a, b) for a, b in zip(edges, edges[1:])])
        if inner <= BLOCK_CELLS:
            break
    return itertools.product(*per_axis)


def _land(dst, fwd, rev, neg, some, every) -> None:
    """``dst`` takes ``rev`` on the rows with ``sh < 0``, ``fwd`` elsewhere."""
    dst[...] = rev if every else fwd
    if some and not every:
        np.copyto(dst, rev, where=neg)


def _advect_block(fw, sh, out_w, spec, bc, arena, halo=None) -> None:
    """One kernel call: land an axis-last block as planes, flux, update.

    ``fw``'s rows are in the call's row order (:func:`_row_order`): the
    axes ``sh`` varies along first, the advected axis last, so ``sh``'s
    profile and its sign mask broadcast along contiguous rows, and a
    block cut within one index of the profile's axis has one sign, one
    ``k`` and a scalar ``alpha``.

    The block is copied once into ``planes[ghosts + n + ghosts, *rows]`` —
    advected axis first, every plane contiguous — and the copy carries the
    sign: a row with ``sh < 0`` lands reversed and is advanced by ``-sh``.
    Interface ``i`` of the reversed row is interface ``n - 2 - i`` of the
    row itself with the flux negated, and ``(-a) - (-b)`` rounds like
    ``b - a``, so the reversed row's update, written back reversed, is
    bitwise that of the left-flowing row.  Every row then flows rightward
    and :func:`_flux_positive` runs once.  ``-0.0`` rows are not negative:
    they keep their shift and their orientation.

    Ghosts are ``stencil_reach`` wrap copies on each side (``periodic``;
    a reversed row's wraps are its own, the two sides being equal), zeros
    (``zero``: :func:`ghost_width` planes on the left, ``stencil_reach``
    on the right, which is all the window reads past the last cell), or
    the neighbours' edge planes (``halo``:
    :func:`ghost_width` on both sides, a reversed row landing its whole
    extended row reversed, and the flux on the ``zero`` window).  The
    landing is the transpose a strided axis needs, the ghost pad, and
    what makes ``out`` free to alias ``f``; from here on cell ``j + m``
    of every row is the view ``planes[lo + m : lo + m + count]``, held
    with every other buffer and view of the call in its :func:`_workspace`.
    """
    n = fw.shape[-1]
    front = _move(fw.ndim, (fw.ndim - 1,), (0,))
    sh = sh.transpose(front)
    neg = sh < 0.0
    some, every = bool(neg.any()), bool(neg.all())
    if every:
        sh = -sh
    elif some:
        sh = np.where(neg, -sh, sh)
    k = np.floor(sh).astype(np.int64)
    alpha = (sh - k).astype(fw.dtype)
    kc, k_min, k_max = _shift_bounds(k)
    if bc == "periodic" and halo is None and k_max >= n:
        # each whole wrap adds the row's mass to every interface, which
        # the flux difference cancels: k mod n cells move the same mass
        k %= n
        kc, k_min, k_max = _shift_bounds(k)
    if bc == "periodic" and halo is None:
        g_l = g_r = stencil_reach(spec)
        count = n
    else:  # the window: donors of interfaces -1 .. n-1, cells -1 - k_max ..
        g_l = ghost_width(spec, k_max)
        g_r = stencil_reach(spec) if halo is None else g_l
        count = n + 1 + k_max - k_min
    key = (out_w.shape[:-1], n, fw.dtype, spec, bc, halo is not None,
           g_l, g_r, count, sh.shape, some and not every)
    ws = _workspace(None, *key) if arena is None else arena.workspace(key, _workspace)

    src = fw.transpose(front)
    signs = (neg, some, every)
    _land(ws.cells, src, src[::-1], *signs)
    if halo is not None:
        left, right = (h.transpose(front) for h in halo)
        left, right = left[left.shape[0] - g_l :], right[:g_r]
        _land(ws.ghost_l, left, right[::-1], *signs)
        _land(ws.ghost_r, right, left[::-1], *signs)
    elif bc == "zero":
        ws.ghost_l[...] = 0
        ws.ghost_r[...] = 0
    else:
        ws.ghost_l[...] = ws.wrap_l
        ws.ghost_r[...] = ws.wrap_r

    _flux_positive(ws, alpha, k, kc, k_min, k_max, spec)

    d = ws.delta
    np.subtract(ws.flux_hi, ws.flux_lo, out=d)
    dst = out_w.transpose(front)
    if not some:
        np.subtract(ws.cells, d, out=dst)
    elif every:
        np.subtract(ws.cells, d, out=dst[::-1])
    else:
        np.subtract(ws.cells, d, out=ws.res)
        np.copyto(dst, ws.res, where=~neg)
        np.copyto(dst, ws.res[::-1], where=neg)


def _workspace(arena, rows, n, dtype, spec, bc, halo, g_l, g_r, count, ashape, mixed):
    """Every buffer of one kernel call and every fixed view of them, for
    the call geometry after ``arena`` (``ScratchArena.workspace`` keeps
    one per geometry; without an arena it is a throwaway)."""
    ws = SimpleNamespace()
    reach, order, half = stencil_reach(spec), spec.order, (spec.order - 1) // 2
    ws.periodic = bc == "periodic" and not halo
    # donor cells first .. first + count - 1, read by the m interfaces
    # n - m .. n - 1; interface p of them is cell off + p of the cells
    # first .. n - 1, which wrap (periodic) with that period
    first = reach - g_l  # 0, or -1 - k_max
    ws.n, ws.lo, ws.count = n, g_l, count
    ws.m = m = n if ws.periodic else n + 1
    ws.off, ws.period = n - m - first, n - first
    ws.planes = planes = _scratch(arena, ("plane", "f"), (g_l + n + g_r,) + rows, dtype)
    ws.cells = cells = planes[g_l : g_l + n]
    ws.ghost_l, ws.ghost_r = planes[:g_l], planes[g_l + n :]
    ws.wrap_l, ws.wrap_r = cells[n - g_l :], cells[:g_r]
    window = planes[: count + 2 * reach]  # the donors and their stencils
    ws.st = st = tuple(
        window[reach + c : reach + c + count] for c in range(-half, half + 1)
    )
    poly = flux_coefficient_polynomials(order)
    col = (order,) + (1,) * len(ashape)  # one polynomial per c_m
    ws.coef = tuple(poly[:, dgr].reshape(col) for dgr in range(order + 1))
    ws.c_work = _scratch(arena, "phi_cw", (order,) + ashape, dtype)
    ws.c_acc = _scratch(arena, "phi_ca", (order,) + ashape, np.float64)
    ws.c_rows = tuple(ws.c_work)
    ws.phi = _scratch(arena, "phi", st[0].shape, dtype)
    ws.term = _scratch(arena, "phi_term", st[0].shape, dtype)
    if spec.use_mp:
        ws.mp = mp_scratch(window[reach - 2 : reach + count + 2], arena)
    if spec.use_pos:  # phi has the donors' shape and dtype
        ws.clamp = clamp_scratch(st[half], st[half], arena)
    ws.flux = flux = _scratch(arena, "flux", (n + 1,) + rows, np.float64)
    ws.flux_out, ws.flux_hi, ws.flux_lo = flux[n + 1 - m :], flux[1:], flux[:-1]
    ws.delta = _scratch(arena, ("upd", "delta"), cells.shape, np.float64)
    if mixed:
        ws.res = _scratch(arena, ("upd", "res"), cells.shape, dtype)
    return ws


def _normalize_shift(sh, f, last) -> np.ndarray:
    """Validate the float64 shift and move it onto the axis-last layout
    ``last``.

    The shift always carries float64: it encodes the departure points,
    and rounding it to float32 storage perturbs them by |shift| * eps32
    cells — ~3e-5 cells at a 450-cell kick, orders of magnitude above
    the cell-scale rounding the storage cast is allowed to introduce.
    Only the *fractional* part (a cell-scale quantity) is cast to the
    working dtype, inside :func:`_advect_block`.
    """
    if sh.ndim:
        if sh.ndim != f.ndim:
            raise ValueError(
                f"shift must be scalar or have ndim == f.ndim ({f.ndim}), got {sh.ndim}"
            )
        sh = sh.transpose(last)
        if sh.shape[-1] != 1:
            raise ValueError(
                "shift must have size 1 along the advected axis "
                f"(got {sh.shape[-1]}); the advection velocity cannot vary "
                "along its own axis"
            )
    else:
        # scalar: carry the full dimensionality so every downstream
        # shape (window, flux planes) broadcasts against f
        sh = sh.reshape((1,) * max(f.ndim, 1))
    if not np.isfinite(sh).all():
        raise ValueError("shift contains non-finite values")
    return sh


def _flux_positive(ws, alpha, k, kc, k_min, k_max, spec):
    """Flux for shifts >= 0 everywhere: ``S(i, k) + phi[i - k]``.

    ``ws.planes[lo : lo + n]`` are the cells (see :func:`_advect_block`)
    and entry ``i + 1`` of the result ``ws.flux`` is interface ``i +
    1/2``, ``i = -1 .. n - 1``.

    Neither the integer shift ``k`` nor the fraction ``alpha`` varies
    along the advected axis, so the fractional flux ``phi`` is a function
    of the donor cell ``j = i - k`` alone: it is evaluated once per cell
    of a window and looked up per interface.  ``periodic`` evaluates the
    ``n`` cells; ``zero`` only the donors of interfaces ``-1 .. n-1``,
    cells ``-1 - k_max .. n - 1 - k_min``.

    S(i, k), the mass of the k whole cells upstream of interface i+1/2,
    is summed cell by cell: S = 0 + f_i + f_(i-1) + ... + f_(i-k+1), in
    that order — one slice add per ``j < k_max``, masked to the rows
    with ``k > j`` once ``j`` reaches ``k_min``; a periodic row reads
    cell ``(i - j) mod n`` (and arrives with ``k < n``: the caller
    reduces it), a ``zero`` window the landed ghost planes.
    Every operand is a cell of the row and the order is fixed by the
    interface alone, so S has no origin: a block landed with ``halo=``
    adds exactly what the whole row adds, at any shift.

    S accumulates — and the flux stays — in float64 regardless of
    storage dtype: even an exact S rounds to ulp(S) when stored at the
    float32 magnitude of k whole cells.  Keeping S (and hence the flux)
    in float64 defers the cast to the *telescoped difference* of
    neighboring fluxes — a cell-scale quantity — which
    ``_advect_block`` rounds back to the storage dtype exactly once.

    A uniform ``k`` (``kc`` from :func:`_uniform_int`) makes the phi
    lookup a rotation: two slice adds replace the index array and the
    indexed lookup (:func:`_add_lookup`) — the same adds on the same
    values, bitwise-identical.
    """
    _FASTPATH["uniform_k" if kc is not None else "gather_k"] += 1
    phi = _fractional_flux(ws, alpha, spec)

    planes, lo, n, m, count = ws.planes, ws.lo, ws.n, ws.m, ws.count
    out = ws.flux_out
    out[...] = 0
    for j in range(k_max):  # S: cell i - j joins the rows with k > j
        where = True if j < k_min else k > j
        if ws.periodic:  # cell (p - j) mod n, split where it wraps
            s = j % n
            np.add(out[:s], planes[lo + n - s : lo + n], out=out[:s], where=where)
            np.add(out[s:], planes[lo : lo + n - s], out=out[s:], where=where)
        else:  # interface p - 1 reads plane lo + p - 1 - j
            np.add(out, planes[lo - 1 - j : lo + n - j], out=out, where=where)
    if kc is not None:
        # donor index off + p - kc wraps below p = r
        r = (kc - ws.off) % ws.period
        out[:r] += phi[count - r :]
        out[r:] += phi[: m - r]
    else:
        idx = np.arange(ws.off, ws.off + m).reshape((m,) + (1,) * (planes.ndim - 1)) - k
        _add_lookup(out, phi, idx % ws.period)
    if ws.periodic:
        ws.flux[0] = ws.flux[n]  # interface -1 is interface n-1
    return ws.flux


def _add_lookup(out, planes, idx) -> None:
    """``out[p, row] += planes[idx[p, row], row]`` for every row.

    ``idx`` has size 1 along the row axes the shift does not vary along.
    Only the axes it does vary along are indexed (moved behind the plane
    axis, on both sides, so the result needs no transpose); the others are
    sliced, so rows that share an index are copied as whole runs — ~50x
    cheaper than a ``take_along_axis`` with ``idx`` broadcast to every
    element when a 512-cell run shares each index.
    """
    vary = tuple(a for a in range(1, idx.ndim) if idx.shape[a] > 1)
    front = _move(idx.ndim, vary, tuple(range(1, 1 + len(vary))))
    which = idx.transpose(front)
    which = which.reshape(which.shape[: 1 + len(vary)])
    rows = np.ix_(*map(range, which.shape))[1:]  # open mesh, plane axis dropped
    out = out.transpose(front)
    np.add(out, planes.transpose(front)[(which, *rows)], out=out)


def _fractional_flux(ws, alpha, spec):
    """phi of every donor cell: mass donated from its right alpha-fraction.

    ``ws.st[m]`` is cell ``j + m - r`` of all donors at once, a view of
    the landed planes (:func:`_workspace`).  ``alpha`` has their dtype
    and one value per row: it broadcasts into ``st[m]``'s shape along the
    leading axis.
    """
    order, use_mp, use_pos = spec
    # One Horner pass over the (order,) + alpha.shape stack of all
    # coefficient polynomials c_m(alpha).  Elementwise it replays
    # evaluate_flux_coefficients bit for bit: with float32 alpha the
    # leading product rounds in float32, the first add promotes to
    # float64 (a float64 operand, as the scalar coefficient was under
    # NEP 50), the remaining steps stay float64, and one cast back to
    # the working dtype precedes the stencil multiply.
    c_work, c_acc, coef = ws.c_work, ws.c_acc, ws.coef
    c_work[...] = coef[order]
    np.multiply(c_work, alpha, out=c_work)
    np.add(c_work, coef[order - 1], out=c_acc)
    for dgr in range(order - 2, -1, -1):
        np.multiply(c_acc, alpha, out=c_acc)
        np.add(c_acc, coef[dgr], out=c_acc)
    c_work[...] = c_acc
    # phi starts at +0 and adds every term: starting from c_0 * st[0]
    # would keep a -0.0 term that 0 + term turns into +0.0
    phi, term = ws.phi, ws.term
    phi[...] = 0
    for c_m, st_m in zip(ws.c_rows, ws.st):
        np.multiply(c_m, st_m, out=term)
        phi += term

    if use_mp:
        phi = mp_limit_flux(phi, alpha, ws.mp)
    if use_pos:
        phi = positivity_clamp_fraction(phi, ws.clamp)
    return phi

