"""Pencil-sharded multicore execution of directional SL sweeps.

The paper decomposes *physical space* across nodes and keeps velocity
space whole on every rank (§5.1.3), so each directional sweep is
embarrassingly parallel over any axis it does not advect.  The
:class:`PencilEngine` is the single-node thread analog: it cuts the
phase-space array into contiguous pencils along a non-advected axis (the
shard geometry of :func:`repro.parallel.decomposition.pencil_slices`)
and runs one serial :func:`repro.core.advection.advect` per pencil on a
thread pool.

Because the advection operator only couples cells *along* the advected
axis, pencils need no halo exchange and every worker executes exactly
the floating-point operations the serial sweep would execute on its
slice — the sharded result is **bitwise-identical** to the serial one
(a property the test suite asserts for every scheme and BC).

Pencils are views of the caller's arrays (zero copies); NumPy releases
the GIL inside the array kernels, so the sweeps overlap on multicore
hosts.  Each worker slot owns a private
:class:`~repro.perf.arena.ScratchArena`, so steady-state sweeps are
allocation-free in every thread.  Arrays under :data:`MIN_SHARD_BYTES`,
single-worker engines and arrays with no shardable axis run the serial
kernel.

There is no supervision here: a thread cannot die apart from its
process, and a stalled one cannot be stopped, so a retry or a timeout
would only race the stuck thread for the same arena and output.  The
process transport, with its retry → degrade ladder, is
:class:`repro.parallel.domain.DomainEngine`, whose ladder steps down to
this engine.

The engine is a :class:`repro.core.engine.SweepEngine` whose per-sweep
kernel is the sharded :meth:`PencilEngine.advect`; f, plans, reductions
and timing are the serial base's.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

from ..core.advection import SCHEMES, advect
from ..core.engine import SweepEngine
from ..parallel.decomposition import pencil_slices
from .arena import ScratchArena
from .substrate import available_cores

__all__ = ["MIN_SHARD_BYTES", "PencilEngine"]

#: Arrays smaller than this run serially — dispatch overhead beats the
#: win on small problems (see docs/PERFORMANCE.md).  A module attribute
#: read per call, so tests set it to 0 to force sharding.
MIN_SHARD_BYTES = 1 << 16


class PencilEngine(SweepEngine):
    """Shard directional sweeps into pencils and run them on threads.

    ``n_workers`` is the thread count, one pencil each; it defaults to
    the CPUs this process may run on.
    """

    def __init__(self, n_workers: int | None = None) -> None:
        if n_workers is not None and n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.n_workers = int(n_workers) if n_workers else available_cores()
        super().__init__()
        self._executor: ThreadPoolExecutor | None = None
        #: one arena per worker slot; slot 0 is the base engine's
        self._arenas: list[ScratchArena] = [self.arena]
        #: plan of the most recent ``advect`` call, for tests/benchmarks:
        #: dict with shard_axis / n_pencils (or None if it ran serially).
        self.last_plan: dict | None = None

    def close(self) -> None:
        """Shut the thread pool down (idempotent; the engine is reusable)."""
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)

    def __del__(self) -> None:  # pragma: no cover - GC timing
        try:
            self.close()
        except Exception:
            pass

    @staticmethod
    def pick_shard_axis(shape: tuple[int, ...], axis: int) -> int | None:
        """Longest non-advected axis (ties favor the leading — spatial —
        axes, mirroring the paper's space-only decomposition)."""
        best, best_len = None, 1
        for d, ln in enumerate(shape):
            if d == axis:
                continue
            if ln > best_len:
                best, best_len = d, ln
        return best

    def advect(
        self,
        f: np.ndarray,
        shift,
        axis: int,
        scheme: str = "slmpp5",
        bc: str = "periodic",
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Sharded equivalent of :func:`repro.core.advection.advect`.

        Returns the same result, bitwise, for any scheme/BC/shift.  The
        engine requires the result shape to equal ``f.shape`` (shift
        axes of size 1 or matching f), which is the solver's case; an
        exotic broadcast falls back to the serial kernel.
        """
        if scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r}")
        axis %= f.ndim
        sh = np.asarray(shift)
        shard = self.pick_shard_axis(f.shape, axis)
        parts = 1 if shard is None else min(self.n_workers, f.shape[shard])
        broadcast_ok = sh.ndim == 0 or (
            sh.ndim == f.ndim
            and all(s in (1, fs) for s, fs in zip(sh.shape, f.shape))
        )
        if parts < 2 or f.nbytes < MIN_SHARD_BYTES or not broadcast_ok:
            self.last_plan = None
            return super().advect(f, shift, axis, scheme, bc, out)
        if out is None:
            out = np.empty_like(f)
        elif out.shape != f.shape or out.dtype != f.dtype:
            raise ValueError(
                f"out has shape {out.shape}/{out.dtype}, "
                f"engine needs {f.shape}/{f.dtype}"
            )
        slices = pencil_slices(f.shape[shard], parts)
        self.last_plan = {"shard_axis": shard, "n_pencils": len(slices)}
        while len(self._arenas) < len(slices):
            self._arenas.append(ScratchArena())
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self.n_workers, thread_name_prefix="pencil",
            )

        def one(sl: slice, arena: ScratchArena) -> None:
            idx = tuple(
                sl if d == shard else slice(None) for d in range(f.ndim)
            )
            pencil_shift = sh[idx] if sh.ndim and sh.shape[shard] != 1 else sh
            advect(f[idx], pencil_shift, axis, scheme=scheme, bc=bc,
                   out=out[idx], arena=arena)

        futures = [
            self._executor.submit(one, sl, arena)
            for sl, arena in zip(slices, self._arenas)
        ]
        wait(futures)  # no pencil may still write ``out`` when we return
        for fut in futures:
            fut.result()  # re-raise the first pencil's failure
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PencilEngine(n_workers={self.n_workers})"
