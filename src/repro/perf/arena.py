"""Preallocated scratch buffers for the hot advection path.

A directional semi-Lagrangian sweep allocates roughly ten large
temporaries per call — prefix sums, stencil gathers, fractional fluxes,
ghost-padded copies, the flux-difference update.  At one sweep that is
noise; at the six sweeps per Strang step times thousands of steps the
allocator (and the page-faulting of fresh memory) becomes a measurable
tax on the paper's hot loop.

:class:`ScratchArena` is a keyed pool of uninitialized work buffers.
The advection kernels request buffers by ``(key, shape, dtype)``.  A
slot is one flat buffer per ``(key, dtype)``, grown to the largest
element count ever requested; a request is served as a reshaped view of
its head, so the six axis-last block shapes of a Strang step share one
set of buffers instead of pinning one set each.  In steady state — fixed
grid, fixed scheme — every sweep runs allocation-free, whatever the
shift field does: a kernel call that works on a data-dependent subset of
a block's rows sizes what it has to grow for the whole block
(:meth:`ScratchArena.scaled`).

Discipline
----------
* Buffers come back **uninitialized** (whatever the previous call left
  in them); consumers must overwrite every element they read.
* One arena serves **one caller at a time**.  It is deliberately not
  locked: give each worker thread/process of a
  :class:`repro.perf.pencil.PencilEngine` its own arena.
* Two buffers live at the same time need two keys, whatever their
  shapes: same ``(key, dtype)`` means same memory.
* An arena pins its high-water memory until :meth:`clear` — size it to
  the workload by simply letting the workload make its requests.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

__all__ = ["ScratchArena"]


class ScratchArena:
    """Keyed pool of reusable uninitialized NumPy work buffers."""

    __slots__ = ("_pool", "_scale", "hits", "misses")

    #: Cached views per slot.  A workload cycling through a few shapes
    #: (the six axis-last block shapes of a Strang step, plasma kick
    #: pads) stays inside it; one whose shapes follow the data (row
    #: subsets of a changing sign pattern) resets the cache instead of
    #: growing it without bound.
    MAX_VIEWS = 8

    def __init__(self) -> None:
        #: (key, dtype) -> (flat buffer, {shape: view of its head})
        self._pool: dict[tuple, tuple[np.ndarray, dict]] = {}
        self._scale = (1, 1)
        self.hits = 0
        self.misses = 0

    def take(self, key, shape, dtype) -> np.ndarray:
        """Return pooled scratch of ``shape`` from slot ``(key, dtype)``.

        Contents are unspecified — the caller must fully overwrite.
        ``key`` is any hashable tag distinguishing concurrent uses of
        scratch within one computation.  A request the slot's capacity
        covers is a hit (and a repeated shape returns the very same
        array object: up to :attr:`MAX_VIEWS` views are cached per
        slot, so a workload cycling through a few shapes pays two dict
        lookups per request); a larger one reallocates the slot — to
        the request times the :meth:`scaled` factor in force — and is a
        miss.
        """
        shape = tuple(shape)
        dt = np.dtype(dtype)
        slot = (key, dt)
        held = self._pool.get(slot)
        if held is not None:
            view = held[1].get(shape)
            if view is not None:
                self.hits += 1
                return view
        n = math.prod(shape)
        if held is not None and held[0].size >= n:
            self.hits += 1
            flat, views = held
        else:
            self.misses += 1
            whole, part = self._scale
            flat, views = np.empty(-(-n * whole // part), dtype=dt), {}
            self._pool[slot] = (flat, views)
        if len(views) >= self.MAX_VIEWS:
            views.clear()
        view = views[shape] = flat[:n].reshape(shape)
        return view

    @contextlib.contextmanager
    def scaled(self, whole: int, part: int):
        """Scope in which requests cover ``part`` of ``whole`` equal rows.

        Scratch is proportional to the rows a kernel call works on.  A
        call on a data-dependent subset of a block's rows (the rows of
        one shift sign) would otherwise make every slot's high-water
        mark follow the data; inside this scope a slot that has to grow
        grows to what the whole block would have requested, so steady
        state is reached after one pass whatever the subsets do.
        """
        outer = self._scale
        self._scale = (whole, part)
        try:
            yield self
        finally:
            self._scale = outer

    @property
    def nbytes(self) -> int:
        """Total bytes currently pinned by the pool."""
        return sum(flat.nbytes for flat, _ in self._pool.values())

    @property
    def n_buffers(self) -> int:
        """Number of distinct pooled buffers."""
        return len(self._pool)

    def clear(self) -> None:
        """Drop every pooled buffer (and reset the hit/miss counters)."""
        self._pool.clear()
        self.hits = 0
        self.misses = 0

    def stats(self) -> dict[str, int]:
        """Pool health: buffer count, pinned bytes, hit/miss counters."""
        return {
            "n_buffers": self.n_buffers,
            "nbytes": self.nbytes,
            "hits": self.hits,
            "misses": self.misses,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ScratchArena(buffers={self.n_buffers}, "
            f"pinned={self.nbytes / 2**20:.1f} MiB, "
            f"hits={self.hits}, misses={self.misses})"
        )
