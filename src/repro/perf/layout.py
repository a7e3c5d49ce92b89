"""Contiguity-aware sweep layout — the LAT analog (paper §5.4, Figs. 2-3).

Every directional sweep in :func:`repro.core.advection.advect` runs on an
``np.moveaxis`` view with the advected axis last.  For the outer
phase-space axes that view is enormously strided: on a ``(N,)*6`` grid
the x-sweep walks memory with an ``N**5``-element stride, the exact
cache-hostile access pattern the paper's u_z direction exhibits before
the "load and transpose" (LAT) method (§5.4) packs it contiguous.

:class:`LayoutEngine` is the memory-level analog of LAT.  Per sweep it
decides — from the advected-axis stride and a size threshold — between:

``in_place``
    Run the kernels directly on the strided view (correct always; best
    when the array fits in cache or the axis is already contiguous).
``packed``
    Copy the axis-last view into contiguous scratch with a cache-blocked
    transpose (block edges from
    :func:`repro.simd.transpose.pick_block_shape`, the same tile model
    as the 16x16 register transpose), run every kernel on contiguous
    memory, and fuse the transpose-back into the final flux-difference
    update (one blocked ``np.subtract`` straight into the strided
    output — no separate unpack traversal).

Both modes execute the identical floating-point operations in the
identical order; only the buffer placement differs, so results are
**bitwise-identical** (the same contract the :class:`ScratchArena`
already meets, asserted by ``tests/test_layout_engine.py``).

Scratch is pooled in the caller's :class:`~repro.perf.arena.ScratchArena`;
``layout/pack`` and ``layout/unpack`` :class:`StepTimer` sections record
the transpose cost; every decision is published as a ``layout_decision``
telemetry event (mode, axis, stride, bytes moved) so
:func:`repro.runtime.telemetry.summarize` can report the packed fraction
of a run.
"""

from __future__ import annotations

import threading
from contextlib import nullcontext
from typing import NamedTuple

import numpy as np

from ..simd.transpose import pick_block_shape
from .substrate import emit

__all__ = [
    "LayoutDecision",
    "LayoutEngine",
    "get_default_layout",
    "set_default_layout",
]


class LayoutDecision(NamedTuple):
    """Outcome of one per-sweep layout decision."""

    mode: str           # "in_place" | "packed"
    axis: int           # the advected axis
    stride_bytes: int   # |stride| of the advected axis in f
    nbytes: int         # payload of f
    reason: str         # why this mode won


class LayoutEngine:
    """Per-sweep contiguity decisions plus the blocked pack/unpack kernels.

    Parameters
    ----------
    mode:
        ``"auto"`` (threshold model, default), ``"packed"`` (always pack
        eligible sweeps), or ``"in_place"`` (never pack).  All three are
        bitwise-identical; only wall clock differs.
    min_packed_bytes:
        ``auto`` packs only arrays at least this large — below it the
        whole problem sits in the outer cache and strided access costs
        nothing (measured flat on this repo's benchmarks; see
        docs/PERFORMANCE.md).
    min_stride_bytes:
        ``auto`` packs only when the advected-axis stride is at least
        this many bytes (default one 64-byte cache line: smaller strides
        still land consecutive elements on the same line).
    block_bytes:
        Cache budget handed to :func:`pick_block_shape` for the blocked
        copy tiles.
    timer:
        Optional :class:`repro.diagnostics.timers.StepTimer`; pack and
        unpack time is recorded under ``layout/pack`` / ``layout/unpack``
        (qualified by the enclosing sweep section when nested).
    """

    MODES = ("auto", "packed", "in_place")

    def __init__(
        self,
        mode: str = "auto",
        min_packed_bytes: int = 1 << 25,
        min_stride_bytes: int = 64,
        block_bytes: int = 1 << 18,
        timer=None,
    ) -> None:
        if mode not in self.MODES:
            raise ValueError(f"unknown layout mode {mode!r}; choose from {self.MODES}")
        self.mode = mode
        self.min_packed_bytes = int(min_packed_bytes)
        self.min_stride_bytes = int(min_stride_bytes)
        self.block_bytes = int(block_bytes)
        self.timer = timer
        #: cumulative decision counters
        self.packed_sweeps = 0
        self.in_place_sweeps = 0
        #: bytes actually moved through the blocked transpose kernels
        self.bytes_transposed = 0
        self.last_decision: LayoutDecision | None = None

    # -- decision -------------------------------------------------------

    def decide(self, f: np.ndarray, axis: int, eligible: bool = True) -> str:
        """Pick the layout for one sweep; records counters and telemetry.

        ``eligible`` is the caller's structural go/no-go (the kernel can
        only pack sweeps whose result shape equals ``f.shape``); the
        engine layers its cost model on top.
        """
        ax = axis % f.ndim if f.ndim else 0
        stride = abs(f.strides[ax]) if f.ndim else 0
        contiguous = f.ndim == 0 or stride <= f.itemsize
        if not eligible or contiguous:
            mode, reason = "in_place", ("contiguous" if eligible else "ineligible")
        elif self.mode == "in_place":
            mode, reason = "in_place", "forced"
        elif self.mode == "packed":
            mode, reason = "packed", "forced"
        elif f.nbytes < self.min_packed_bytes:
            mode, reason = "in_place", "below size threshold"
        elif stride < self.min_stride_bytes:
            mode, reason = "in_place", "below stride threshold"
        else:
            mode, reason = "packed", "strided and large"
        decision = LayoutDecision(mode, ax, stride, f.nbytes, reason)
        self.last_decision = decision
        if mode == "packed":
            self.packed_sweeps += 1
        else:
            self.in_place_sweeps += 1
        emit(
            "layout_decision",
            mode=mode,
            axis=ax,
            stride_bytes=stride,
            nbytes=f.nbytes,
            bytes_moved=2 * f.nbytes if mode == "packed" else 0,
            reason=reason,
        )
        return mode

    def stats(self) -> dict[str, int]:
        """Cumulative decision and traffic counters."""
        total = self.packed_sweeps + self.in_place_sweeps
        return {
            "packed_sweeps": self.packed_sweeps,
            "in_place_sweeps": self.in_place_sweeps,
            "packed_fraction": self.packed_sweeps / total if total else 0.0,
            "bytes_transposed": self.bytes_transposed,
        }

    # -- blocked transpose kernels --------------------------------------

    def _timed(self, name: str):
        return self.timer.section(name) if self.timer is not None else nullcontext()

    def blocked_copy(self, dst: np.ndarray, src: np.ndarray) -> None:
        """``dst[...] = src`` tiled over the trailing two axes.

        The pack copy reads huge-stride source columns and writes
        contiguous destination rows (or vice versa on unpack); tiling
        the trailing two axes — the strided pair a ``moveaxis`` view
        exposes — keeps each tile's working set inside ``block_bytes``.
        Leading axes ride inside each slice assignment, where NumPy
        iterates them outermost.  Plain elementwise copies, so the
        result is exactly ``dst[...] = src``.
        """
        if dst.ndim < 2:
            dst[...] = src
            return
        rows, cols = dst.shape[-2], dst.shape[-1]
        tr, tc = pick_block_shape(rows, cols, dst.itemsize, self.block_bytes)
        if tr >= rows and tc >= cols:
            dst[...] = src
            return
        for r0 in range(0, rows, tr):
            r1 = min(r0 + tr, rows)
            for c0 in range(0, cols, tc):
                c1 = min(c0 + tc, cols)
                dst[..., r0:r1, c0:c1] = src[..., r0:r1, c0:c1]

    def pack(self, fw: np.ndarray, arena=None) -> np.ndarray:
        """Blocked copy of the axis-last view into contiguous scratch."""
        if arena is None:
            buf = np.empty(fw.shape, dtype=fw.dtype)
        else:
            buf = arena.take(("layout", "pack"), fw.shape, fw.dtype)
        self.pack_into(buf, fw)
        return buf

    def pack_into(self, dst: np.ndarray, src: np.ndarray) -> None:
        """Timed blocked copy into a caller-provided destination (the
        zero-bc ghost pad doubles as the pack)."""
        with self._timed("layout/pack"):
            self.blocked_copy(dst, src)
        self.bytes_transposed += dst.nbytes

    def unpack_subtract(
        self, fw: np.ndarray, d: np.ndarray, out_w: np.ndarray
    ) -> None:
        """Fused transpose-back: ``out_w = fw - d`` tiled into strided out.

        The final flux-difference update of the sweep doubles as the
        unpack — one blocked ``np.subtract`` writes the strided output
        view directly, instead of a contiguous subtract plus a second
        full-array transpose traversal.  Elementwise, so bitwise equal
        to ``np.subtract(fw, d, out=out_w)``.
        """
        with self._timed("layout/unpack"):
            if out_w.ndim < 2:
                np.subtract(fw, d, out=out_w)
            else:
                rows, cols = out_w.shape[-2], out_w.shape[-1]
                tr, tc = pick_block_shape(
                    rows, cols, out_w.itemsize, self.block_bytes
                )
                if tr >= rows and tc >= cols:
                    np.subtract(fw, d, out=out_w)
                else:
                    for r0 in range(0, rows, tr):
                        r1 = min(r0 + tr, rows)
                        for c0 in range(0, cols, tc):
                            c1 = min(c0 + tc, cols)
                            np.subtract(
                                fw[..., r0:r1, c0:c1],
                                d[..., r0:r1, c0:c1],
                                out=out_w[..., r0:r1, c0:c1],
                            )
        self.bytes_transposed += out_w.nbytes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LayoutEngine(mode={self.mode!r}, "
            f"packed={self.packed_sweeps}, in_place={self.in_place_sweeps})"
        )


# -- per-thread default --------------------------------------------------
#
# `advect(layout="packed")` from a pencil worker needs the blocked-copy
# machinery but must not record decisions (the engine that sharded the
# sweep already did); the default carries the kernels, timer-less.  It is
# per-thread, not per-process: the engine's decision history, counters
# and timers are single-caller state, and concurrent in-process runs
# (the campaign layer's thread executor) must not interleave them.

_DEFAULTS = threading.local()


def get_default_layout() -> LayoutEngine:
    """This thread's engine backing plain-string ``layout=`` modes."""
    engine = getattr(_DEFAULTS, "engine", None)
    if engine is None:
        engine = _DEFAULTS.engine = LayoutEngine()
    return engine


def set_default_layout(engine: LayoutEngine | None) -> LayoutEngine | None:
    """Swap this thread's default engine; returns the previous one."""
    prev = getattr(_DEFAULTS, "engine", None)
    _DEFAULTS.engine = engine
    return prev
