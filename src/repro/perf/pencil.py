"""Pencil-sharded multicore execution of directional SL sweeps.

The paper decomposes *physical space* across nodes and keeps velocity
space whole on every rank (§5.1.3), so each directional sweep is
embarrassingly parallel over any axis it does not advect.  The
:class:`PencilEngine` is the single-node analog: it cuts the phase-space
array into contiguous pencils along a non-advected axis (the shard
geometry of :func:`repro.parallel.decomposition.pencil_slices`) and
dispatches one serial :func:`repro.core.advection.advect` per pencil
across a worker pool.

Because the advection operator only couples cells *along* the advected
axis, pencils need no halo exchange and every worker executes exactly
the floating-point operations the serial sweep would execute on its
slice — the sharded result is **bitwise-identical** to the serial one
(a property the test suite asserts for every scheme and BC).

Backends
--------
``threads``
    ``ThreadPoolExecutor``; pencils are views of the caller's arrays
    (zero copies).  NumPy releases the GIL inside the array kernels, so
    the sweeps overlap on multicore hosts.  This is the default and the
    fast path.
``processes``
    ``ProcessPoolExecutor`` over POSIX shared memory: f is staged into a
    ``multiprocessing.shared_memory`` block, workers attach and write
    their pencil of the output block in place — the two full-array
    copies (stage in, copy out) are the price of true OS-process
    isolation.  Useful when the kernel is Python-bound (small pencils)
    or a future accelerator backend holds the GIL.
``serial``
    Run in the calling thread (still arena-pooled).  The engine also
    falls back to serial when the array is too small to amortize
    dispatch (``min_shard_bytes``) or has no shardable axis.

Each worker slot owns a private :class:`~repro.perf.arena.ScratchArena`,
so steady-state sweeps are allocation-free in every worker.

Supervision
-----------
Process pools fail in ways thread pools cannot: a worker can be OOM- or
operator-killed (``BrokenProcessPool``), or wedge on a bad node.  The
engine supervises every process sweep: a broken pool or a sweep that
exceeds ``task_timeout`` tears the pool down, waits a bounded
exponential backoff, and retries on a fresh pool up to ``max_retries``
times; when the budget is exhausted the engine **degrades permanently**
(``processes`` → ``threads`` → ``serial``), finishes the sweep on the
surviving backend, and publishes an ``engine_degraded`` telemetry event.
Because every backend executes identical floating-point operations,
degradation never changes the answer — only the wall clock.

Shared-memory segments are registered with the
:mod:`repro.perf.substrate` leak guard and unlinked by its ``atexit``
hook, so segments cannot leak even when the parent dies mid-``advect``
(the historical leak: ``close()``/``unlink`` lived only on the happy
path of the sweep).

The engine is a :class:`repro.core.engine.SweepEngine` whose per-sweep
kernel is the sharded :meth:`PencilEngine.advect`; f, plans, reductions
and timing are the serial base's.

``fault_hook`` (an attribute, wired by the chaos harness) is called as
``hook(engine, pool)`` at the start of each *process* sweep — the
injection point for :meth:`repro.runtime.faults.FaultPlan.worker_fault`.
"""

from __future__ import annotations

from concurrent.futures import BrokenExecutor, ThreadPoolExecutor, wait

import numpy as np

from ..core.advection import SCHEMES, advect
from ..core.engine import SweepEngine
from ..parallel.decomposition import pencil_slices
from .arena import ScratchArena
from .substrate import (
    attach_shm,
    available_cores,
    emit,
    register_segment,
    release_segment,
    retry_with_backoff,
)

__all__ = ["PencilEngine", "SweepTimeout"]


class SweepTimeout(RuntimeError):
    """A sharded sweep exceeded the engine's ``task_timeout``."""


# -- process-backend worker machinery ---------------------------------------
#
# The worker function must be a module-level callable (picklable by
# reference); each worker process keeps one arena alive across tasks.

_WORKER_ARENA: ScratchArena | None = None


def _pencil_worker(task) -> None:
    """Advect one pencil of the shared-memory arrays, in place."""
    global _WORKER_ARENA
    if _WORKER_ARENA is None:
        _WORKER_ARENA = ScratchArena()
    (in_name, out_name, shape, dtype, shard_axis, start, stop,
     shift, axis, scheme, bc) = task
    shm_in = attach_shm(in_name)
    shm_out = attach_shm(out_name)
    try:
        f = np.ndarray(shape, dtype=dtype, buffer=shm_in.buf)
        out = np.ndarray(shape, dtype=dtype, buffer=shm_out.buf)
        idx = tuple(
            slice(start, stop) if d == shard_axis else slice(None)
            for d in range(len(shape))
        )
        advect(f[idx], shift, axis, scheme=scheme, bc=bc,
               out=out[idx], arena=_WORKER_ARENA)
    finally:
        shm_in.close()
        shm_out.close()


class PencilEngine(SweepEngine):
    """Shard directional sweeps into pencils and run them concurrently.

    Parameters
    ----------
    n_workers:
        Worker pool size; defaults to the CPUs this process may run on.
    backend:
        ``"threads"`` (default), ``"processes"``, or ``"serial"``.
    pencils_per_worker:
        Pencils per worker (>1 trades dispatch overhead for load balance
        when per-pencil cost varies, e.g. where the integer part of the
        shift varies across pencils: gathers instead of slices, wider
        ``zero``-BC windows).  The signs of the shifts do not matter —
        every block is one kernel run.
    min_shard_bytes:
        Arrays smaller than this run serially — dispatch overhead beats
        the win on small problems (see docs/PERFORMANCE.md).  Set 0 to
        force sharding (the tests do).
    max_retries:
        Process-sweep retry budget: how many times a broken/timed-out
        pool is rebuilt and the sweep re-run before the engine degrades
        to the next backend down.
    backoff_base:
        First retry delay [s]; doubles per retry (bounded exponential).
    task_timeout:
        Wall-clock budget [s] for one sharded sweep; ``None`` (default)
        waits forever.  Exceeding it counts as a worker failure.
    """

    #: Degradation ladder: each backend's fallback when supervision
    #: exhausts its retry budget.  Serial has nowhere left to go.
    FALLBACK = {"processes": "threads", "threads": "serial"}

    def __init__(
        self,
        n_workers: int | None = None,
        backend: str = "threads",
        pencils_per_worker: int = 1,
        min_shard_bytes: int = 1 << 16,
        max_retries: int = 2,
        backoff_base: float = 0.05,
        task_timeout: float | None = None,
    ) -> None:
        if backend not in ("threads", "processes", "serial"):
            raise ValueError(f"unknown backend {backend!r}")
        if n_workers is not None and n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if pencils_per_worker < 1:
            raise ValueError("pencils_per_worker must be >= 1")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.n_workers = int(n_workers) if n_workers else available_cores()
        self.backend = backend
        self.pencils_per_worker = int(pencils_per_worker)
        self.min_shard_bytes = int(min_shard_bytes)
        self.max_retries = int(max_retries)
        self.backoff_base = float(backoff_base)
        self.task_timeout = task_timeout
        super().__init__()
        self._executor = None
        #: one arena per worker slot; slot 0 is the base engine's
        self._arenas: list[ScratchArena] = [self.arena]
        #: plan of the most recent ``advect`` call, for tests/benchmarks:
        #: dict with backend / shard_axis / n_pencils (or None if serial).
        self.last_plan: dict | None = None
        #: cumulative supervision counters (survive degradation).
        self.retries = 0
        #: backends abandoned by supervision, in order ("processes", ...).
        self.degradations: list[str] = []

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Shut the worker pool down (idempotent; the engine is reusable)."""
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)

    def __del__(self) -> None:  # pragma: no cover - GC timing
        try:
            self.close()
        except Exception:
            pass

    def _pool(self):
        if self._executor is None:
            if self.backend == "threads":
                self._executor = ThreadPoolExecutor(
                    max_workers=self.n_workers,
                    thread_name_prefix="pencil",
                )
            else:
                from concurrent.futures import ProcessPoolExecutor
                import multiprocessing as mp

                ctx = mp.get_context(
                    "fork" if "fork" in mp.get_all_start_methods() else "spawn"
                )
                self._executor = ProcessPoolExecutor(
                    max_workers=self.n_workers, mp_context=ctx
                )
        return self._executor

    def _arena(self, slot: int) -> ScratchArena:
        while len(self._arenas) <= slot:
            self._arenas.append(ScratchArena())
        return self._arenas[slot]

    # -- planning -------------------------------------------------------

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

    def _plan(self, f: np.ndarray, sh: np.ndarray, axis: int, shard_axis):
        """Decide shard axis and pencil count; None means run serial."""
        if self.backend == "serial" or self.n_workers < 2:
            return None
        if f.nbytes < self.min_shard_bytes:
            return None
        if shard_axis is None:
            shard_axis = self.pick_shard_axis(f.shape, axis)
        else:
            shard_axis %= f.ndim
            if shard_axis == axis:
                raise ValueError("cannot shard along the advected axis")
        if shard_axis is None:
            return None
        parts = min(
            self.n_workers * self.pencils_per_worker, f.shape[shard_axis]
        )
        if parts < 2:
            return None
        return shard_axis, parts

    @staticmethod
    def _slice_shift(sh: np.ndarray, shard_axis: int, sl: slice):
        if sh.ndim and sh.shape[shard_axis] != 1:
            idx = tuple(
                sl if d == shard_axis else slice(None) for d in range(sh.ndim)
            )
            return sh[idx]
        return sh

    # -- execution ------------------------------------------------------

    def advect(
        self,
        f: np.ndarray,
        shift,
        axis: int,
        scheme: str = "slmpp5",
        bc: str = "periodic",
        out: np.ndarray | None = None,
        shard_axis: int | None = None,
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
        broadcast_ok = sh.ndim == 0 or (
            sh.ndim == f.ndim
            and all(s in (1, fs) for s, fs in zip(sh.shape, f.shape))
        )
        plan = None
        if broadcast_ok:
            plan = self._plan(f, sh, axis, shard_axis)
        if plan is None:
            self.last_plan = None
            return super().advect(f, shift, axis, scheme, bc, out)
        shard, parts = plan
        slices = pencil_slices(f.shape[shard], parts)
        if out is None:
            out = np.empty_like(f)
        elif out.shape != f.shape or out.dtype != f.dtype:
            raise ValueError(
                f"out has shape {out.shape}/{out.dtype}, "
                f"engine needs {f.shape}/{f.dtype}"
            )
        self.last_plan = {
            "backend": self.backend,
            "shard_axis": shard,
            "n_pencils": len(slices),
        }
        if self.backend == "threads":
            self._run_threads(f, sh, axis, scheme, bc, out, shard, slices)
        else:
            self._run_processes(f, sh, axis, scheme, bc, out, shard, slices)
        return out

    # -- supervision ----------------------------------------------------

    def _await(self, futures) -> None:
        """Wait for a sweep's futures within budget; re-raise failures."""
        done, pending = wait(futures, timeout=self.task_timeout)
        if pending:
            for fut in pending:
                fut.cancel()
            raise SweepTimeout(
                f"{len(pending)}/{len(futures)} pencils still pending "
                f"after {self.task_timeout}s"
            )
        for fut in done:
            fut.result()  # re-raise the first worker failure

    def _teardown_pool(self) -> None:
        """Abandon the (possibly broken/stalled) pool without blocking."""
        executor, self._executor = self._executor, None
        if executor is not None:
            try:
                executor.shutdown(wait=False, cancel_futures=True)
            except Exception:  # pragma: no cover - broken-pool teardown
                pass

    def _degrade(self, reason: str) -> None:
        """Step down the backend ladder permanently; record and publish."""
        fallback = self.FALLBACK[self.backend]
        self.degradations.append(self.backend)
        emit(
            "engine_degraded",
            from_backend=self.backend, to_backend=fallback, reason=reason,
        )
        self.backend = fallback

    def _run_serial(self, f, sh, axis, scheme, bc, out) -> None:
        """Last-resort path: the plain serial kernel (same bits)."""
        self.last_plan = None
        super().advect(f, sh, axis, scheme, bc, out)

    def _run_threads(self, f, sh, axis, scheme, bc, out, shard, slices):
        try:
            self._threads_sweep(f, sh, axis, scheme, bc, out, shard, slices)
        except (BrokenExecutor, SweepTimeout) as exc:
            # Thread pools don't lose workers; the only infra failure is
            # a stall past task_timeout — no point retrying a stall on
            # the same pool, degrade straight to serial and finish.
            self._teardown_pool()
            self.retries += 1
            emit("worker_failure", backend="threads", error=repr(exc))
            self._degrade(repr(exc))
            self._run_serial(f, sh, axis, scheme, bc, out)

    def _threads_sweep(self, f, sh, axis, scheme, bc, out, shard, slices):
        def one(slot: int, sl: slice) -> None:
            idx = tuple(
                sl if d == shard else slice(None) for d in range(f.ndim)
            )
            advect(
                f[idx], self._slice_shift(sh, shard, sl), axis,
                scheme=scheme, bc=bc, out=out[idx], arena=self._arena(slot),
            )

        self._await([
            self._pool().submit(one, slot, sl)
            for slot, sl in enumerate(slices)
        ])

    def _run_processes(self, f, sh, axis, scheme, bc, out, shard, slices):
        """Process sweep under supervision: retry, rebuild, degrade.

        A worker death (``BrokenExecutor``) or sweep timeout tears the
        pool down and retries on a fresh one after an exponential
        backoff; ``max_retries`` failures degrade the engine to threads
        (then serial) for this sweep and every one after.  The output
        array is only written on a fully successful sweep, so a retry
        (or the degraded backend) always starts from pristine inputs.
        """
        def failed(attempt: int, exc: Exception) -> None:
            self._teardown_pool()
            self.retries += 1
            emit(
                "worker_failure",
                backend="processes", attempt=attempt, error=repr(exc),
            )

        try:
            retry_with_backoff(
                lambda: self._processes_sweep(
                    f, sh, axis, scheme, bc, out, shard, slices
                ),
                (BrokenExecutor, SweepTimeout),
                self.max_retries, self.backoff_base, failed,
            )
            return
        except (BrokenExecutor, SweepTimeout) as exc:
            self._degrade(repr(exc))
        # Degraded mid-sweep: finish on the surviving backend (the result
        # is bitwise-identical on every backend, so nothing is lost but
        # wall clock).
        if self.backend == "threads":
            self._run_threads(f, sh, axis, scheme, bc, out, shard, slices)
        else:
            self._run_serial(f, sh, axis, scheme, bc, out)

    def _processes_sweep(self, f, sh, axis, scheme, bc, out, shard, slices):
        from multiprocessing import shared_memory

        shm_in = shared_memory.SharedMemory(create=True, size=f.nbytes)
        register_segment(shm_in)
        shm_out = shared_memory.SharedMemory(create=True, size=f.nbytes)
        register_segment(shm_out)
        try:
            stage = np.ndarray(f.shape, dtype=f.dtype, buffer=shm_in.buf)
            stage[...] = f
            del stage  # release the buffer view before close()
            tasks = [
                (
                    shm_in.name, shm_out.name, f.shape, f.dtype.str, shard,
                    sl.start, sl.stop,
                    np.ascontiguousarray(self._slice_shift(sh, shard, sl))
                    if sh.ndim else sh,
                    axis, scheme, bc,
                )
                for sl in slices
            ]
            pool = self._pool()
            if self.fault_hook is not None:
                self.fault_hook(self, pool)
            self._await([pool.submit(_pencil_worker, t) for t in tasks])
            result = np.ndarray(f.shape, dtype=f.dtype, buffer=shm_out.buf)
            out[...] = result
            del result
        finally:
            release_segment(shm_in)
            release_segment(shm_out)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PencilEngine(backend={self.backend!r}, "
            f"n_workers={self.n_workers}, "
            f"pencils_per_worker={self.pencils_per_worker})"
        )
