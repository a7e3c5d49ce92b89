"""Preallocated scratch buffers for the hot advection path.

A directional semi-Lagrangian sweep allocates roughly ten large
temporaries per call — landed planes, the flux, fractional fluxes,
limiter bounds, the flux-difference update.  At one sweep that is
noise; at the six sweeps per Strang step times thousands of steps the
allocator (and the page-faulting of fresh memory) becomes a measurable
tax on the paper's hot loop.

:class:`ScratchArena` is a keyed pool of uninitialized work buffers.
The advection kernels request buffers by ``(key, shape, dtype)``.  A
slot is one flat buffer per ``(key, dtype)``, grown to the largest
element count ever requested; a request is served as a reshaped view of
its head, so the six axis-last block shapes of a Strang step share one
set of buffers instead of pinning one set each.  A kernel call works on
a whole block, whatever the signs of its shifts, so the only shapes that
follow the data are those a ``zero``-BC call sizes from its integer
shifts: the window of ``n + 1 + k_max - k_min`` donor planes and the
ghosts in front of it.  Once a slot has seen the largest shift of a
workload, every sweep runs allocation-free.

Discipline
----------
* Buffers come back **uninitialized** (whatever the previous call left
  in them); consumers must overwrite every element they read.
* One arena serves **one caller at a time**.  It is deliberately not
  locked: give each worker thread of a
  :class:`repro.perf.pencil.PencilEngine` (and each domain worker
  process) its own arena.
* Two buffers live at the same time need two keys, whatever their
  shapes: same ``(key, dtype)`` means same memory.
* An arena pins its high-water memory until :meth:`clear` — size it to
  the workload by simply letting the workload make its requests.
* A kernel call's ~20 buffers and ~40 fixed views of them are one
  *workspace* per call geometry (:meth:`ScratchArena.workspace`), made
  of :meth:`take` views and so sharing the one set of slots.  A slot
  that grows drops every cached workspace (they view the buffer it let
  go), and the cache is bounded like the views.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["ScratchArena"]


class ScratchArena:
    """Keyed pool of reusable uninitialized NumPy work buffers."""

    __slots__ = ("_pool", "_workspaces", "hits", "misses")

    #: Cached views per slot.  A workload cycling through a few shapes
    #: (the six axis-last block shapes of a Strang step) stays inside
    #: it; one whose shapes follow the data (``zero``-BC windows whose
    #: length tracks the spread of the integer shifts) resets the cache
    #: instead of growing it without bound.
    MAX_VIEWS = 8

    #: Cached workspaces.  The benchmark workloads hold at most five per
    #: arena (their distinct sweep geometries; docs/PERFORMANCE.md, "One
    #: workspace per call geometry").  A run whose ``zero``-BC windows
    #: follow the data resets the cache, and a rebuilt workspace costs
    #: about the takes and slices a call made before there was a cache.
    MAX_WORKSPACES = 8

    def __init__(self) -> None:
        #: (key, dtype) -> (flat buffer, {shape: view of its head})
        self._pool: dict[tuple, tuple[np.ndarray, dict]] = {}
        self._workspaces: dict = {}
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
        lookups per request); a larger one reallocates the slot to the
        request and is a miss.
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
            self._workspaces.clear()  # they may hold views of the old buffer
            flat, views = np.empty(n, dtype=dt), {}
            self._pool[slot] = (flat, views)
        if len(views) >= self.MAX_VIEWS:
            views.clear()
        view = views[shape] = flat[:n].reshape(shape)
        return view

    def workspace(self, key, build):
        """``build(self, *key)``, built once per ``key`` from :meth:`take`
        views; a cached workspace is one hit."""
        ws = self._workspaces.get(key)
        if ws is not None:
            self.hits += 1
            return ws
        if len(self._workspaces) >= self.MAX_WORKSPACES:
            self._workspaces.clear()
        ws = self._workspaces[key] = build(self, *key)
        return ws

    @property
    def nbytes(self) -> int:
        """Total bytes currently pinned by the pool."""
        return sum(flat.nbytes for flat, _ in self._pool.values())

    @property
    def n_buffers(self) -> int:
        """Number of distinct pooled buffers."""
        return len(self._pool)

    def clear(self) -> None:
        """Drop every pooled buffer and workspace (and reset the counters)."""
        self._pool.clear()
        self._workspaces.clear()
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
