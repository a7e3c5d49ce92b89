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
``slweno5``
    Conservative semi-Lagrangian WENO-5 (Qiu & Christlieb 2010, paper
    ref. [19]): nonlinear smoothness weights with alpha-dependent ideal
    weights, positivity-clamped.
``pfc2``
    Filbet-style positive-flux-conservative scheme: minmod piecewise-
    linear reconstruction — the robust 2nd-order baseline the SL-MPP5
    family improves upon.

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
    Preallocated destination with the result shape/dtype (aliasing the
    input is allowed — every flux of a block is fully computed before
    its output write, and blocks share no rows).  Callers stepping in a
    loop double-buffer instead of allocating a fresh f every sweep.
``arena=``
    A :class:`repro.perf.arena.ScratchArena` holding the plane, flux
    and limiter scratch buffers.  Repeated calls reuse the same
    memory, so steady-state sweeps stop churning the allocator.  The
    arithmetic is identical with or without an arena (same operations,
    same order — only the buffer placement changes), so results are
    bitwise-equal.

Cache blocking
--------------
An SL-MPP5 sweep makes ~110 ufunc passes over temporaries the size of
its input (docs/PERFORMANCE.md, "Cell space on ghost-extended planes",
counts them).  ``advect`` therefore validates once and then works through
arrays above :data:`BLOCK_CELLS` one block of non-advected rows at a
time (see :func:`_block_plan`), so the temporaries are block-sized and
stay in cache.  Cells couple only along the advected axis: each block
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

import numpy as np

from .limiters import (
    minmod_into,
    mp_limit_departure_average,
    positivity_clamp_fraction,
    weno_smoothness,
)
from .stencil import flux_coefficient_polynomials, weno_substencil_polynomials

from typing import NamedTuple


class SchemeSpec(NamedTuple):
    """Configuration of one advection scheme."""

    order: int          # formal spatial order / stencil width
    use_mp: bool        # Suresh-Huynh MP departure-average limiting
    use_pos: bool       # positivity clamp of the fractional flux
    use_weno: bool      # nonlinear WENO-5 sub-stencil weighting
    use_pfc: bool = False  # minmod piecewise-linear flux (Filbet PFC)


#: scheme registry
SCHEMES: dict[str, SchemeSpec] = {
    "upwind1": SchemeSpec(1, False, True, False),
    "pfc2": SchemeSpec(3, False, True, False, True),
    "slp3": SchemeSpec(3, False, False, False),
    "slp5": SchemeSpec(5, False, False, False),
    "slp7": SchemeSpec(7, False, False, False),
    "slmpp3": SchemeSpec(3, True, True, False),
    "slmpp5": SchemeSpec(5, True, True, False),
    "slmpp7": SchemeSpec(7, True, True, False),
    "slweno5": SchemeSpec(5, False, True, True),
}

_BCS = ("periodic", "zero")
_LAYOUTS = (None, "in_place", "packed")

#: Cells one kernel call works on.  A sweep above this size runs as a
#: sequence of calls over blocks of the non-advected axes, so the
#: block-sized temporaries of a call stay cache-resident instead of
#: streaming through memory at full-array size.  Counted in cells, not
#: bytes: the scratch per cell (float64 flux beside the storage-dtype
#: planes) barely depends on f's dtype, and a kernel call
#: costs ~0.5 ms of Python/ufunc dispatch, which sets the floor — see
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
    ``upwind1``/``pfc2``/``slp3`` sweep.
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

    fw = np.moveaxis(f, axis, -1)
    n = fw.shape[-1]
    if n < order and halo is None:
        raise ValueError(f"axis length {n} too short for order-{order} stencil")

    sh = _normalize_shift(sh=shift, f=f, fw=fw, axis=axis)

    if layout not in _LAYOUTS:
        raise ValueError(f"unknown layout {layout!r}; choose from {_LAYOUTS}")

    ax = axis if axis >= 0 else axis + f.ndim
    if halo is not None:
        if bc != "periodic":
            raise ValueError(f"halo= continues a periodic row; got bc={bc!r}")
        halo = tuple(np.moveaxis(h, ax, -1) for h in halo)
        g = ghost_width(spec, np.abs(sh).max())
        if any(h.shape[:-1] != fw.shape[:-1] or h.shape[-1] < g for h in halo):
            raise ValueError(
                f"halo blocks need f's shape off axis {axis} and at least "
                f"ghost width {g} planes along it; got {[h.shape for h in halo]}"
            )

    res_shape_w = np.broadcast_shapes(fw.shape, sh.shape[:-1] + (n,))
    res_shape = res_shape_w[:-1][:ax] + (res_shape_w[-1],) + res_shape_w[:-1][ax:]
    if out is None:
        out = np.empty(res_shape, dtype=fw.dtype)
    elif out.shape != res_shape or out.dtype != fw.dtype:
        raise ValueError(
            f"out has shape {out.shape}/{out.dtype}, "
            f"result needs {res_shape}/{fw.dtype}"
        )
    out_w = np.moveaxis(out, ax, -1)

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
    (``zero``: :func:`ghost_width` planes on the left, the width at no
    shift on the right), or the neighbours' edge planes (``halo``:
    :func:`ghost_width` on both sides, a reversed row landing its whole
    extended row reversed, and the flux on the ``zero`` window).  The
    landing is the transpose a strided axis needs, the ghost pad, and
    what makes ``out`` free to alias ``f``; from here on cell ``j + m``
    of every row is the view ``planes[lo + m : lo + m + count]``.
    """
    n = fw.shape[-1]
    sh = np.moveaxis(sh, -1, 0)
    neg = sh < 0.0
    some, every = bool(neg.any()), bool(neg.all())
    if every:
        sh = -sh
    elif some:
        sh = np.where(neg, -sh, sh)
    if bc == "periodic" and halo is None:
        g_l = g_r = stencil_reach(spec)
    else:
        g_l = ghost_width(spec, sh.max())
        g_r = ghost_width(spec) if halo is None else g_l
    planes = _scratch(
        arena, ("plane", "f"), (g_l + n + g_r,) + out_w.shape[:-1], fw.dtype
    )
    cells = planes[g_l : g_l + n]
    src = np.moveaxis(fw, -1, 0)
    signs = (neg, some, every)
    _land(cells, src, src[::-1], *signs)
    if halo is not None:
        left, right = (np.moveaxis(h, -1, 0) for h in halo)
        left, right = left[left.shape[0] - g_l :], right[:g_r]
        _land(planes[:g_l], left, right[::-1], *signs)
        _land(planes[g_l + n :], right, left[::-1], *signs)
        bc = "zero"  # the window reads only landed planes: it must not wrap
    elif bc == "zero":
        planes[:g_l] = 0
        planes[g_l + n :] = 0
    else:
        planes[:g_l] = cells[n - g_l :]
        planes[g_l + n :] = cells[:g_r]

    flux = _flux_positive(planes, g_l, n, sh, spec, bc, arena)

    d = _scratch(arena, ("upd", "delta"), cells.shape, flux.dtype)
    np.subtract(flux[1:], flux[:-1], out=d)
    dst = np.moveaxis(out_w, -1, 0)
    if not some:
        np.subtract(cells, d, out=dst)
    elif every:
        np.subtract(cells, d, out=dst[::-1])
    else:
        res = _scratch(arena, ("upd", "res"), cells.shape, dst.dtype)
        np.subtract(cells, d, out=res)
        np.copyto(dst, res, where=~neg)
        np.copyto(dst, res[::-1], where=neg)


def _normalize_shift(sh, f, fw, axis) -> np.ndarray:
    """Validate and move the shift onto the axis-last layout.

    The shift always carries float64: it encodes the departure points,
    and rounding it to float32 storage perturbs them by |shift| * eps32
    cells — ~3e-5 cells at a 450-cell kick, orders of magnitude above
    the cell-scale rounding the storage cast is allowed to introduce.
    Only the *fractional* part (a cell-scale quantity) is cast to the
    working dtype, inside :func:`_flux_positive`.
    """
    sh = np.asarray(sh, dtype=np.float64)
    if sh.ndim:
        ax = axis if axis >= 0 else axis + f.ndim
        if sh.ndim != f.ndim:
            raise ValueError(
                f"shift must be scalar or have ndim == f.ndim ({f.ndim}), got {sh.ndim}"
            )
        sh = np.moveaxis(sh, ax, -1)
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
    if not np.all(np.isfinite(sh)):
        raise ValueError("shift contains non-finite values")
    return sh


def _flux_positive(planes, lo, n, sh, spec, bc, arena=None):
    """Flux for shifts >= 0 everywhere: ``S(i, k) + phi[i - k]``.

    ``planes[lo : lo + n]`` are the cells (see :func:`_advect_block`) and
    entry ``i + 1`` of the result is interface ``i + 1/2``, ``i = -1 ..
    n - 1``.

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
    cell ``(i - j) mod n``, a ``zero`` window the landed ghost planes.
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
    k = np.floor(sh).astype(np.int64)
    alpha = (sh - k).astype(planes.dtype)

    kc = _uniform_int(k)
    _FASTPATH["uniform_k" if kc is not None else "gather_k"] += 1
    k_min, k_max = (kc, kc) if kc is not None else (int(k.min()), int(k.max()))

    # the window: donor cells first .. first + count - 1, read by the m
    # interfaces n - m .. n - 1; interface p of them is cell off + p of
    # the cells first .. n - 1, which wrap (periodic) with that period
    periodic = bc == "periodic"
    first, count = (0, n) if periodic else (-1 - k_max, n + 1 + k_max - k_min)
    m = n if periodic else n + 1
    off, period = n - m - first, n - first
    reach = stencil_reach(spec)
    phi = _fractional_flux(
        planes[lo + first - reach : lo + first + count + reach], alpha, spec, arena
    )

    flux = _scratch(arena, "flux", (n + 1,) + planes.shape[1:], np.float64)
    out = flux[n + 1 - m :]
    out[...] = 0
    for j in range(k_max):  # S: cell i - j joins the rows with k > j
        where = True if j < k_min else k > j
        if periodic:  # cell (p - j) mod n, split where it wraps
            s = j % n
            np.add(out[:s], planes[lo + n - s : lo + n], out=out[:s], where=where)
            np.add(out[s:], planes[lo : lo + n - s], out=out[s:], where=where)
        else:  # interface p - 1 reads plane lo + p - 1 - j
            np.add(out, planes[lo - 1 - j : lo + n - j], out=out, where=where)
    if kc is not None:
        # donor index off + p - kc wraps below p = r
        r = (kc - off) % period
        out[:r] += phi[count - r :]
        out[r:] += phi[: m - r]
    else:
        idx = np.arange(off, off + m).reshape((m,) + (1,) * (planes.ndim - 1)) - k
        _add_lookup(out, phi, idx % period)
    if periodic:
        flux[0] = flux[n]  # interface -1 is interface n-1
    return flux


def _add_lookup(out, planes, idx) -> None:
    """``out[p, row] += planes[idx[p, row], row]`` for every row.

    ``idx`` has size 1 along the row axes the shift does not vary along.
    Only the axes it does vary along are indexed (moved behind the plane
    axis, on both sides, so the result needs no transpose); the others are
    sliced, so rows that share an index are copied as whole runs — ~50x
    cheaper than a ``take_along_axis`` with ``idx`` broadcast to every
    element when a 512-cell run shares each index.
    """
    vary = [a for a in range(1, idx.ndim) if idx.shape[a] > 1]
    front = range(1, 1 + len(vary))
    which = np.moveaxis(idx, vary, front)
    which = which.reshape(which.shape[: 1 + len(vary)])
    rows = np.ix_(*map(range, which.shape))[1:]  # open mesh, plane axis dropped
    out = np.moveaxis(out, vary, front)
    np.add(out, np.moveaxis(planes, vary, front)[(which, *rows)], out=out)


def _fractional_flux(cells, alpha, spec, arena=None):
    """phi of every donor cell: mass donated from its right alpha-fraction.

    ``cells`` holds the donor cells as planes with ``stencil_reach(spec)``
    neighbor planes on each side; ``st[m]`` below is cell ``j + m - r`` of
    all donors at once, a view.  ``alpha`` has their dtype and one value
    per row: it broadcasts into ``st[m]``'s shape along the leading axis.
    """
    order, use_mp, use_pos, use_weno, use_pfc = spec
    reach = stencil_reach(spec)
    count = cells.shape[0] - 2 * reach
    half = (order - 1) // 2
    st = tuple(
        cells[reach + m : reach + m + count] for m in range(-half, half + 1)
    )
    if use_weno:
        phi = _weno_fractional(st, alpha, arena)
    elif use_pfc:
        phi = _pfc_fractional(st, alpha, arena)
    else:
        poly = flux_coefficient_polynomials(order)
        col = (order,) + (1,) * alpha.ndim  # one polynomial per c_m
        # One Horner pass over the (order,) + alpha.shape stack of all
        # coefficient polynomials c_m(alpha).  Elementwise it replays
        # evaluate_flux_coefficients bit for bit: with float32 alpha the
        # leading product rounds in float32, the first add promotes to
        # float64 (a float64 operand, as the scalar coefficient was under
        # NEP 50), the remaining steps stay float64, and one cast back to
        # the working dtype precedes the stencil multiply.
        c_work = _scratch(arena, "phi_cw", (order,) + alpha.shape, alpha.dtype)
        c_acc = _scratch(arena, "phi_ca", (order,) + alpha.shape, np.float64)
        c_work[...] = poly[:, -1].reshape(col)
        np.multiply(c_work, alpha, out=c_work)
        np.add(c_work, poly[:, order - 1].reshape(col), out=c_acc)
        for dgr in range(order - 2, -1, -1):
            np.multiply(c_acc, alpha, out=c_acc)
            np.add(c_acc, poly[:, dgr].reshape(col), out=c_acc)
        c_work[...] = c_acc
        # phi starts at +0 and adds every term: starting from c_0 * st[0]
        # would keep a -0.0 term that 0 + term turns into +0.0
        phi = _scratch(arena, "phi", st[0].shape, cells.dtype)
        term = _scratch(arena, "phi_term", st[0].shape, cells.dtype)
        phi[...] = 0
        for m in range(order):
            np.multiply(c_work[m], st[m], out=term)
            phi += term

    if use_mp:
        # u must be rescaled by the *true* alpha on both sides: flooring
        # the divisor (the old max(alpha, 1e-7)) shrank u for sub-floor
        # alphas, the limiter clamped it back into physical bounds, and
        # the re-multiply then overstated the flux by up to floor/alpha.
        # Dividing by tiny alpha may produce round-off garbage in u, but
        # the MP clamp bounds it and alpha * u_limited stays monotone
        # for any alpha in [0, 1].
        pos = alpha > 0.0
        safe_alpha = np.where(pos, alpha, np.asarray(1.0, dtype=cells.dtype))
        # the full-size quotient, limiter temporaries and masked
        # recombination all run through pooled scratch
        u = _scratch(arena, "mp_u", phi.shape, phi.dtype)
        np.divide(phi, safe_alpha, out=u)
        u = mp_limit_departure_average(
            u, alpha, cells[reach - 2 : reach + count + 2], arena=arena
        )
        lim = _scratch(arena, "mp_lim", phi.shape, phi.dtype)
        np.multiply(safe_alpha, u, out=lim)
        sel = _scratch(arena, "mp_sel", phi.shape, phi.dtype)
        # np.where(pos, lim, phi) as fill + masked overwrite
        np.copyto(sel, phi)
        np.copyto(sel, lim, where=pos)
        phi = sel
    if use_pos:
        phi = positivity_clamp_fraction(phi, st[half], arena=arena)
    return phi


def _pfc_fractional(st, alpha, arena=None):
    """Filbet-style positive-flux-conservative fractional flux.

    Piecewise-linear reconstruction with the minmod slope: 2nd-order,
    TVD, and positive after the clamp — the robust workhorse scheme the
    SL-MPP5 family improves upon (used as an ablation baseline).

    phi(alpha) = alpha * (f_j + (1 - alpha)/2 * slope).

    Every temporary of the expression (and of its
    :func:`~repro.core.limiters.minmod`) lives in pooled scratch.
    """
    fm1, f0, fp1 = st
    sshape = f0.shape
    a = _scratch(arena, "pfc_a", sshape, f0.dtype)
    b = _scratch(arena, "pfc_b", sshape, f0.dtype)
    slope = _scratch(arena, "pfc_slope", sshape, f0.dtype)
    sb = _scratch(arena, "pfc_sb", sshape, f0.dtype)
    np.subtract(fp1, f0, out=a)
    np.subtract(f0, fm1, out=b)
    minmod_into(slope, a, b, sb)
    # phi = alpha * (f0 + 0.5*(1 - alpha) * slope)
    w = _scratch(arena, "pfc_w", alpha.shape, alpha.dtype)
    np.subtract(1.0, alpha, out=w)
    np.multiply(w, 0.5, out=w)
    phi = _scratch(arena, "phi", sshape, f0.dtype)
    np.multiply(w, slope, out=phi)
    np.add(f0, phi, out=phi)
    np.multiply(alpha, phi, out=phi)
    return phi


def _weno_fractional(st, alpha, arena=None):
    """Semi-Lagrangian WENO-5 fractional flux (Qiu & Christlieb 2010).

    The full-array float64 temporaries — three sub-stencil fluxes, the
    per-term products, the smoothness/weight fields and the final blend
    — run through pooled scratch; each pooled ufunc replays the
    allocating expression's operation order exactly, so the result is
    bitwise-identical.  (The small alpha-shaped polynomial evaluations
    stay plain allocations: the shift profile is tiny next to f.)
    """
    polyval = np.polynomial.polynomial.polyval
    sub = weno_substencil_polynomials()  # (3, 5, 4)
    p5 = flux_coefficient_polynomials(5)  # (5, 6)

    a = alpha.astype(np.float64)
    bshape = st[0].shape
    term = _scratch(arena, "weno_term", bshape, np.float64)
    phis = []
    for s in range(3):
        acc = _scratch(arena, ("weno_acc", s), bshape, np.float64)
        acc[...] = 0.0
        for m in range(5):
            if np.any(sub[s, m] != 0.0):
                np.multiply(polyval(a, sub[s, m]), st[m], out=term)
                acc += term
        phis.append(acc)

    # alpha-dependent ideal weights: match the outermost-cell coefficients
    # of the order-5 flux.  Both numerator and denominator have a zero
    # constant term, so divide the polynomials by alpha for stability.
    num0 = polyval(a, p5[0, 1:])
    den0 = polyval(a, sub[0, 0, 1:])
    num2 = polyval(a, p5[4, 1:])
    den2 = polyval(a, sub[2, 4, 1:])
    with np.errstate(divide="ignore", invalid="ignore"):
        d0 = np.where(np.abs(den0) > 1e-300, num0 / den0, 0.1)
        d2 = np.where(np.abs(den2) > 1e-300, num2 / den2, 0.3)
    d0 = np.clip(d0, 0.0, 1.0)
    d2 = np.clip(d2, 0.0, 1.0)
    d1 = np.clip(1.0 - d0 - d2, 0.0, 1.0)

    beta32 = weno_smoothness(st)
    beta = _scratch(arena, "weno_beta", beta32.shape, np.float64)
    beta[...] = beta32
    eps = 1.0e-6
    wden = _scratch(arena, "weno_wden", bshape, np.float64)
    ws = []
    for idx, dd in enumerate((d0, d1, d2)):
        w = _scratch(arena, ("weno_w", idx), bshape, np.float64)
        np.add(eps, beta[idx], out=wden)
        np.power(wden, 2, out=wden)
        np.divide(dd, wden, out=w)
        ws.append(w)
    w0, w1, w2 = ws
    wsum = _scratch(arena, "weno_wsum", w0.shape, np.float64)
    np.add(w0, w1, out=wsum)
    np.add(wsum, w2, out=wsum)
    num = _scratch(arena, "weno_num", bshape, np.float64)
    np.multiply(w0, phis[0], out=num)
    np.multiply(w1, phis[1], out=term)
    num += term
    np.multiply(w2, phis[2], out=term)
    num += term
    np.divide(num, wsum, out=num)
    phi = _scratch(arena, "phi", bshape, st[0].dtype)
    phi[...] = num
    return phi
