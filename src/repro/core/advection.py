"""Conservative semi-Lagrangian advection along one axis of a phase-space array.

This is the computational heart of the library — the operator ``D_l(dt)``
of the paper's Eq. (5).  A single call advances one 1-D advection equation

    df/dt + v df/dl = 0

for the whole multi-dimensional array at once, vectorized over every other
axis (the NumPy analog of the paper's SIMD vectorization over the
non-advected loop indices, §5.3).

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
    A :class:`repro.perf.arena.ScratchArena` holding the stencil, flux
    and prefix-sum scratch buffers.  Repeated calls reuse the same
    memory, so steady-state sweeps stop churning the allocator.  The
    arithmetic is identical with or without an arena (same operations,
    same order — only the buffer placement changes), so results are
    bitwise-equal.

Cache blocking
--------------
An SL-MPP5 sweep makes ~120 ufunc passes over temporaries the size of
its input (docs/PERFORMANCE.md, "One flux direction per row", counts
them).  ``advect`` therefore validates once and then works through
arrays above :data:`BLOCK_CELLS` one block of non-advected rows at a
time (see :func:`_block_plan`), so the temporaries are block-sized and
stay in cache.  Cells couple only along the advected axis: each block
runs the serial arithmetic on its rows and the result is bitwise the
one-block result.  Every engine ends in this function, so every engine
is blocked.

Precision: the conservative prefix sums S(i, k) accumulate in float64
even for float32 f (``_integer_mass``); float32 cumsums drift by
~1e3 cell-ulps over 1024-cell axes, which leaked into the fluxes.  The
*difference* of prefix sums is cast back to the storage dtype, so the
flux array — and the telescoped update — stay in the input precision.
"""

from __future__ import annotations

import contextlib
import itertools
import math

import numpy as np

from .limiters import (
    minmod_into,
    roll_into,
    mp_limit_departure_average,
    positivity_clamp_fraction,
    weno_smoothness,
)
from .stencil import (
    SUPPORTED_ORDERS,
    flux_coefficient_polynomials,
    weno_substencil_polynomials,
)

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
#: bytes: the scratch per cell (float64 prefix sums and flux beside the
#: storage-dtype stencil) barely depends on f's dtype, and a kernel call
#: costs ~0.5 ms of Python/ufunc dispatch, which sets the floor — see
#: docs/PERFORMANCE.md ("Cache-blocked sweeps") for the measured table.
BLOCK_CELLS = 1 << 16

#: process-wide advisory counters: kernel calls (one per block and flux
#: direction) that hit the uniform-k fast path vs. calls that fell back
#: to the gather path.
_FASTPATH = {"uniform_k": 0, "gather_k": 0}


def fastpath_counters() -> dict[str, int]:
    """Snapshot of the uniform-k fast-path hit counters.

    The counters count kernel calls, not sweeps: a sweep above
    :data:`BLOCK_CELLS` adds one count per block (two where a block's
    shifts mix signs), and a block can take the fast path where the
    whole sweep's shift field could not.
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

    The MP limiter widens the gather to the 5-cell Suresh-Huynh
    neighborhood; every other scheme touches exactly ``order`` cells.
    This is the per-scheme bound ghost/pad sizing must honor — padding
    with the widest reach of the family (as ``_zero_pad`` once did)
    over-allocates every ``upwind1``/``pfc2``/``slp3`` sweep.
    """
    width = max(spec.order, 5) if spec.use_mp else spec.order
    return (width - 1) // 2


def advect(
    f: np.ndarray,
    shift,
    axis: int,
    scheme: str = "slmpp5",
    bc: str = "periodic",
    out: np.ndarray | None = None,
    arena=None,
    layout=None,
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
        Measurement hook for the chunk-level LAT of paper §5.4, kept for
        ``benchmarks/e2e`` ``probe_pack_gain`` — no product caller
        passes it.  ``None`` / ``"in_place"`` run each block on the
        strided ``moveaxis`` view; ``"packed"`` first copies a periodic
        block into contiguous scratch (a ``zero`` block's ghost pad
        already is that copy).  Bitwise-identical either way.

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
    if n < order:
        raise ValueError(f"axis length {n} too short for order-{order} stencil")

    sh = _normalize_shift(sh=shift, f=f, fw=fw, axis=axis)

    if layout not in _LAYOUTS:
        raise ValueError(f"unknown layout {layout!r}; choose from {_LAYOUTS}")
    pack = layout == "packed" and bc == "periodic"

    res_shape_w = np.broadcast_shapes(fw.shape, sh.shape[:-1] + (n,))
    ax = axis if axis >= 0 else axis + f.ndim
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
        _advect_block(fw, sh, out_w, spec, bc, arena, pack)
    else:
        # rows couple only along the advected axis, so each block runs
        # the serial arithmetic on its rows — bitwise the one-block
        # result, exact out=f aliasing included
        for idx in _block_plan(fw.shape):
            sh_idx = tuple(
                slice(None) if m == 1 else s for s, m in zip(idx, sh.shape)
            )
            _advect_block(fw[idx], sh[sh_idx], out_w[idx], spec, bc, arena, pack)
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


def _advect_block(fw, sh, out_w, spec, bc, arena, pack) -> None:
    """One kernel call: flux and conservative update of an axis-last block.

    ``pack`` lands a periodic block in contiguous scratch first (see
    ``advect``'s ``layout``).
    """
    n = fw.shape[-1]
    if pack:
        packed = _scratch(arena, ("layout", "pack"), fw.shape, fw.dtype)
        packed[...] = fw
        fw = packed

    if bc == "zero":
        fw, pad_l, _ = _zero_pad(fw, sh, spec, arena)

    flux = interface_flux(fw, sh, spec, arena)

    # d(i) = flux(i+1/2) - flux(i-1/2), periodic wrap of the first cell
    d = _scratch(arena, ("upd", "delta"), flux.shape, flux.dtype)
    roll_into(d, flux, 1)
    np.subtract(flux, d, out=d)

    if bc == "zero":
        fw = fw[..., pad_l : pad_l + n]
        d = d[..., pad_l : pad_l + n]

    np.subtract(fw, d, out=out_w)


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
        # shape (gathers, prefix sums) broadcasts against f
        sh = sh.reshape((1,) * max(f.ndim, 1))
    if not np.all(np.isfinite(sh)):
        raise ValueError("shift contains non-finite values")
    return sh


def _zero_pad(fw, sh, spec, arena=None):
    """Pad with the narrowest zero ghost layers this call needs.

    The pad is sized from the *per-call* bound: the largest integer
    shift actually present in ``sh`` (per sign) plus the stencil reach
    of the *requested scheme* — not the widest reach of the scheme
    family.  An ``upwind1`` sweep pads 1 ghost cell per side, not 3;
    a one-sided shift field pays the CFL-sized pad on one side only.
    Pencil-sharded callers shrink this further for free: each pencil
    pads from its own local shift bound.
    """
    k_max = max(int(np.floor(float(np.max(sh)))), 0)
    k_min = min(int(np.floor(float(np.min(sh)))), 0)
    r = stencil_reach(spec)
    pad_l = k_max + r + 1
    pad_r = -k_min + r + 1
    n = fw.shape[-1]
    padded = _scratch(arena, ("pad", "f"), fw.shape[:-1] + (n + pad_l + pad_r,), fw.dtype)
    padded[..., :pad_l] = 0
    padded[..., pad_l : pad_l + n] = fw
    padded[..., pad_l + n :] = 0
    return padded, pad_l, pad_r


def interface_flux(fw: np.ndarray, sh: np.ndarray, spec: SchemeSpec, arena=None) -> np.ndarray:
    """Time-integrated flux through every right interface ``i+1/2``.

    Works on the advected-axis-last view with periodic wrap-around.
    Negative shifts go through the reversal symmetry: the flux of the
    mirrored problem (array and shift reversed) maps back with a sign flip
    and an index shift.  Where the shifts of a call mix signs, its rows
    are split on ``sh >= 0`` and each subset is advanced once, in its own
    direction — rows couple only along the advected axis, so a subset's
    flux is bitwise the flux those rows get in any other company.
    """
    if spec.order not in SUPPORTED_ORDERS:
        raise ValueError(f"unsupported order {spec.order}")
    if not np.any(sh < 0.0):
        return _flux_positive(fw, sh, spec, arena, "pos")
    if not np.any(sh > 0.0):
        return _mirror_flux(fw, sh, spec, arena)

    n = fw.shape[-1]
    shape = np.broadcast_shapes(fw.shape, sh.shape[:-1] + (n,))
    flux = _scratch(arena, ("mix", "flux"), shape, np.float64)
    # the axes the shift varies along, moved to the front, index the rows
    vary = [a for a, m in enumerate(sh.shape) if m > 1]
    front = range(len(vary))
    rows = np.moveaxis(np.broadcast_to(fw, shape), vary, front)
    flux_rows = np.moveaxis(flux, vary, front)
    sh_rows = np.moveaxis(sh, vary, front).reshape(rows.shape[: len(vary)])
    pos = sh_rows >= 0.0
    tail = (1,) * (fw.ndim - len(vary))
    for mask, kernel in ((pos, _flux_positive), (~pos, _mirror_flux)):
        part = sh_rows[mask]
        # a subset's scratch is its share of the block's: let the arena
        # size what it has to grow for the whole block, so the sign
        # pattern of later calls cannot make it allocate
        with (
            contextlib.nullcontext() if arena is None
            else arena.scaled(pos.size, part.size)
        ):
            flux_rows[mask] = kernel(
                rows[mask], part.reshape(part.shape + tail), spec, arena
            )
    return flux


def _mirror_flux(fw, sh, spec, arena=None):
    """Flux for non-positive shifts via the reversal symmetry.

    Interface ``m+1/2`` of the reversed array is interface ``(N-2-m)+1/2``
    of the original with the flux sign flipped; as an index map that is a
    reversal followed by a one-step left roll.
    """
    g = fw[..., ::-1]
    gs = -(sh[..., ::-1] if sh.shape[-1] != 1 else sh)
    fg = _flux_positive(g, gs, spec, arena, "neg")
    # one fused pass: negate straight out of the (unreversed) mirror
    # flux into the rolled slots, instead of copy-then-negate.  The
    # wrap slot flips sign via * -1.0 — bitwise the same flip (IEEE
    # multiplication by -1 is exact, including signed zeros) — because
    # this platform's float64 np.negative miscomputes on row-stride
    # hyperplane views (stride exactly 64 bytes); the bulk negation's
    # kernel stride is +-itemsize and unaffected.
    rev = fg[..., ::-1]
    out = _scratch(arena, ("neg", "mirror"), fg.shape, fg.dtype)
    np.negative(rev[..., 1:], out=out[..., :-1])
    np.multiply(fg[..., -1], -1.0, out=out[..., -1])
    return out


def _flux_positive(fw, sh, spec, arena=None, tag="pos"):
    """Flux for shifts >= 0 everywhere (periodic layout)."""
    k = np.floor(sh).astype(np.int64)
    alpha = (sh - k).astype(fw.dtype)

    kc = _uniform_int(k)
    _FASTPATH["uniform_k" if kc is not None else "gather_k"] += 1

    flux = _integer_mass(fw, k, arena, tag, kc=kc)
    st = _gather_stencil(fw, k, spec.order, widen=spec.use_mp, arena=arena,
                         tag=tag, kc=kc)
    flux += _fractional_flux(st, alpha, spec, arena, tag)
    return flux


def _integer_mass(fw, k, arena=None, tag="pos", kc=None):
    """S(i, k) = mass of the k whole cells upstream of interface i+1/2.

    Uses extended prefix sums: S = C(i) - C_ext(i-k) with
    C_ext(q) = total * (q // N) + C[q mod N], valid for any integer q
    (negative k yields the negative downstream sum, as required by the
    mirror symmetry caller never exercises here but tests do).

    The prefix sums accumulate — and the result stays — in float64
    regardless of storage dtype: a float32 cumsum over a long axis
    carries O(n) rounding that leaks straight into the fluxes (~1e3
    cell-ulps at n = 1024), and even an exact S rounds to ulp(S) when
    stored at the float32 magnitude of k whole cells.  Keeping S (and
    hence the flux) in float64 defers the cast to the *telescoped
    difference* of neighboring fluxes — a cell-scale quantity — which
    ``advect`` rounds back to the storage dtype exactly once.

    ``kc`` (from :func:`_uniform_int`) enables the uniform-shift fast
    path: for constant k the extended-index lookup ``C_ext(i - k)`` is a
    rotation of C plus a whole number of wraps, so two slice copies
    replace the ``q``/``wraps``/``qmod`` index arrays and the
    ``take_along_axis`` gather — same multiply/add/subtract ufuncs on
    the same values in the same order, bitwise-identical.
    """
    n = fw.shape[-1]
    out_shape = np.broadcast_shapes(fw.shape, k.shape[:-1] + (n,))
    out = _scratch(arena, (tag, "int_mass"), out_shape, np.float64)
    if kc == 0 or (kc is None and np.all(k == 0)):
        out[...] = 0
        return out
    csum = _scratch(arena, (tag, "csum"), fw.shape, np.float64)
    np.cumsum(fw, axis=-1, dtype=np.float64, out=csum)
    total = csum[..., -1:]
    if kc is not None and out_shape == fw.shape:
        # q = i - kc splits at i = r (kc = w*n + r, 0 <= r < n):
        # i <  r: wraps = -(w+1), qmod = i - r + n
        # i >= r: wraps = -w,     qmod = i - r
        w, r = divmod(kc, n)
        np.multiply(total, -(w + 1), out=out[..., :r])
        np.multiply(total, -w, out=out[..., r:])
        out[..., :r] += csum[..., n - r :]
        out[..., r:] += csum[..., : n - r]
        np.subtract(csum, out, out=out)
        return out
    i = np.arange(n, dtype=np.int64)
    q = i - k  # broadcasts to (..., n)
    wraps = q // n
    qmod = q - wraps * n
    cb = np.broadcast_to(csum, np.broadcast_shapes(csum.shape, qmod.shape))
    np.multiply(total, wraps, out=out)
    out += np.take_along_axis(cb, qmod, axis=-1)
    np.subtract(np.broadcast_to(csum, out_shape), out, out=out)
    return out


def _gather_stencil(fw, k, order, widen=False, arena=None, tag="pos", kc=None):
    """Cell averages around the donor cell j = i - k for every interface.

    Returns array of shape ``(width,) + broadcast(fw, k)`` with the donor
    cell at the center index; ``width`` is ``order`` widened to at least 5
    when the MP limiter needs the full 5-cell neighborhood.

    A constant integer shift (``kc`` from :func:`_uniform_int`, or any
    size-1 ``k``) turns every gather into a roll — two slice copies per
    stencil row instead of a full ``take_along_axis`` with an index
    array, reading memory sequentially instead of permuted.

    Either way the rows are a roll family — ``k`` never varies along the
    advected axis, so ``st[m]`` is ``st[m - 1]`` rolled one cell left —
    which is what lets the MP limiter derive its neighbor curvatures by
    rolling (:func:`repro.core.limiters.mp_bounds`, ``roll``).
    """
    n = fw.shape[-1]
    width = max(order, 5) if widen else order
    r = (width - 1) // 2
    if kc is None and k.size == 1:
        kc = int(k.reshape(-1)[0])
    if kc is not None and np.broadcast_shapes(fw.shape, k.shape[:-1] + (n,)) == fw.shape:
        st = _scratch(arena, (tag, "stencil"), (width,) + fw.shape, fw.dtype)
        for m in range(width):
            roll_into(st[m], fw, kc - (m - r))
        return st
    i = np.arange(n, dtype=np.int64)
    j = i - k  # donor index, broadcast (..., n)
    out_shape = (width,) + np.broadcast_shapes(fw.shape, j.shape)
    st = _scratch(arena, (tag, "stencil"), out_shape, fw.dtype)
    fb = np.broadcast_to(fw, out_shape[1:])
    for m in range(width):
        idx = (j + (m - r)) % n
        st[m] = np.take_along_axis(fb, idx, axis=-1)
    return st


def _fractional_flux(st, alpha, spec, arena=None, tag="pos"):
    """phi: mass donated from the right alpha-fraction of the donor cell."""
    order, use_mp, use_pos, use_weno, use_pfc = spec
    width = st.shape[0]
    center = (width - 1) // 2
    if use_weno:
        phi = _weno_fractional(st, alpha, arena, tag)
    elif use_pfc:
        phi = _pfc_fractional(st, alpha, arena, tag)
    else:
        poly = flux_coefficient_polynomials(order)
        lo = center - (order - 1) // 2
        pshape = np.broadcast_shapes(st.shape[1:], alpha.shape)
        phi = _scratch(arena, (tag, "phi"), pshape, st.dtype)
        term = _scratch(arena, (tag, "phi_term"), pshape, st.dtype)
        # Fused Horner pass: evaluate each cell's coefficient polynomial
        # c_m(alpha) in place and accumulate its term immediately —
        # no (order,) + shape coefficient stack, two alpha-sized
        # buffers total.  Replays evaluate_flux_coefficients bit for
        # bit: with float32 alpha the leading product rounds in
        # float32, the first add promotes to float64 (NEP 50 strong
        # scalar), the remaining steps stay float64, and one cast back
        # to the working dtype precedes the stencil multiply.
        c_work = _scratch(arena, (tag, "phi_cw"), alpha.shape, alpha.dtype)
        c_acc = _scratch(arena, (tag, "phi_ca"), alpha.shape, np.float64)
        phi[...] = 0
        for m in range(order):
            c_work[...] = poly[m, -1]
            np.multiply(c_work, alpha, out=c_work)
            np.add(c_work, poly[m, order - 1], out=c_acc)
            for dgr in range(order - 2, -1, -1):
                np.multiply(c_acc, alpha, out=c_acc)
                np.add(c_acc, poly[m, dgr], out=c_acc)
            c_work[...] = c_acc
            np.multiply(c_work, st[lo + m], out=term)
            phi += term

    if use_mp:
        if width < 5:
            raise AssertionError("MP limiting requires the widened 5-cell stencil")
        st5 = st[center - 2 : center + 3]
        # u must be rescaled by the *true* alpha on both sides: flooring
        # the divisor (the old max(alpha, 1e-7)) shrank u for sub-floor
        # alphas, the limiter clamped it back into physical bounds, and
        # the re-multiply then overstated the flux by up to floor/alpha.
        # Dividing by tiny alpha may produce round-off garbage in u, but
        # the MP clamp bounds it and alpha * u_limited stays monotone
        # for any alpha in [0, 1].
        pos = alpha > 0.0
        safe_alpha = np.where(pos, alpha, np.asarray(1.0, dtype=st.dtype))
        # the full-size quotient, limiter temporaries and masked
        # recombination all run through pooled scratch
        u = _scratch(
            arena, (tag, "mp_u"),
            np.broadcast_shapes(phi.shape, safe_alpha.shape),
            np.result_type(phi, safe_alpha),
        )
        np.divide(phi, safe_alpha, out=u)
        u = mp_limit_departure_average(
            u, alpha, st5, arena=arena, tag=(tag, "mp"), rolled=True
        )
        lim = _scratch(
            arena, (tag, "mp_lim"),
            np.broadcast_shapes(safe_alpha.shape, u.shape),
            np.result_type(safe_alpha, u),
        )
        np.multiply(safe_alpha, u, out=lim)
        sel = _scratch(
            arena, (tag, "mp_sel"),
            np.broadcast_shapes(pos.shape, lim.shape, phi.shape),
            np.result_type(lim, phi),
        )
        # np.where(pos, lim, phi) as fill + masked overwrite
        np.copyto(sel, phi)
        np.copyto(sel, lim, where=pos)
        phi = sel
    if use_pos:
        phi = positivity_clamp_fraction(
            phi, st[center], arena=arena, tag=(tag, "clamp")
        )
    return phi


def _pfc_fractional(st, alpha, arena=None, tag="pos"):
    """Filbet-style positive-flux-conservative fractional flux.

    Piecewise-linear reconstruction with the minmod slope: 2nd-order,
    TVD, and positive after the clamp — the robust workhorse scheme the
    SL-MPP5 family improves upon (used as an ablation baseline).

    phi(alpha) = alpha * (f_j + (1 - alpha)/2 * slope).

    Every temporary of the expression (and of its
    :func:`~repro.core.limiters.minmod`) lives in pooled scratch.
    """
    center = (st.shape[0] - 1) // 2
    fm1, f0, fp1 = st[center - 1], st[center], st[center + 1]
    sshape = st.shape[1:]
    pshape = np.broadcast_shapes(sshape, alpha.shape)
    a = _scratch(arena, (tag, "pfc_a"), sshape, st.dtype)
    b = _scratch(arena, (tag, "pfc_b"), sshape, st.dtype)
    slope = _scratch(arena, (tag, "pfc_slope"), sshape, st.dtype)
    sb = _scratch(arena, (tag, "pfc_sb"), sshape, st.dtype)
    np.subtract(fp1, f0, out=a)
    np.subtract(f0, fm1, out=b)
    minmod_into(slope, a, b, sb)
    # phi = alpha * (f0 + 0.5*(1 - alpha) * slope)
    w = _scratch(arena, (tag, "pfc_w"), alpha.shape, alpha.dtype)
    np.subtract(1.0, alpha, out=w)
    np.multiply(w, 0.5, out=w)
    phi = _scratch(arena, (tag, "phi"), pshape, st.dtype)
    np.multiply(w, slope, out=phi)
    np.add(f0, phi, out=phi)
    np.multiply(alpha, phi, out=phi)
    return phi


def _weno_fractional(st, alpha, arena=None, tag="pos"):
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
    pshape = np.broadcast_shapes(st.shape[1:], alpha.shape)
    term = _scratch(arena, (tag, "weno_term"), pshape, np.float64)
    phis = []
    for s in range(3):
        acc = _scratch(arena, (tag, "weno_acc", s), pshape, np.float64)
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

    bshape = st.shape[1:]
    beta32 = weno_smoothness(st)
    beta = _scratch(arena, (tag, "weno_beta"), beta32.shape, np.float64)
    beta[...] = beta32
    eps = 1.0e-6
    wden = _scratch(arena, (tag, "weno_wden"), bshape, np.float64)
    ws = []
    for idx, dd in enumerate((d0, d1, d2)):
        w = _scratch(arena, (tag, "weno_w", idx),
                     np.broadcast_shapes(dd.shape, bshape), np.float64)
        np.add(eps, beta[idx], out=wden)
        np.power(wden, 2, out=wden)
        np.divide(dd, wden, out=w)
        ws.append(w)
    w0, w1, w2 = ws
    wsum = _scratch(arena, (tag, "weno_wsum"), w0.shape, np.float64)
    np.add(w0, w1, out=wsum)
    np.add(wsum, w2, out=wsum)
    num = _scratch(arena, (tag, "weno_num"), pshape, np.float64)
    np.multiply(w0, phis[0], out=num)
    np.multiply(w1, phis[1], out=term)
    num += term
    np.multiply(w2, phis[2], out=term)
    num += term
    np.divide(num, wsum, out=num)
    phi = _scratch(arena, (tag, "phi"), pshape, st.dtype)
    phi[...] = num
    return phi
