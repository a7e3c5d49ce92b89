"""Persistent domain-decomposition worker processes (paper §5 layout).

One worker per spatial block, alive for the whole run: the block's slab
of the distribution function lives in two ``multiprocessing.shared_memory``
segments (a double buffer: neighbours read a block's planes as halos
while it sweeps, so unlike the host engines' in-place f a block cannot
be overwritten mid-round), and every command from the parent addresses those
segments by *role* index — the worker itself is stateless about which
buffer currently holds f, so a killed-and-respawned worker resumes from
the untouched current-role segment without any re-scatter.

The sweep command is one kernel call.  On a partitioned spatial axis the
neighbor blocks' source-role segments are ``advect``'s ``halo``: the
landing copy reads their edge planes out of shared memory into the
block's ghost planes (§5.1.3's stencil-sized ghosts, filled once per
sweep).  That is bitwise the serial sweep's slab at any CFL; the engine
refuses, before the round, a plan whose ghost width exceeds the thinnest
block.

There are no FFT commands: the field solve runs on the parent, which
holds the whole density mesh the ``density`` command assembles (the
paper's pencil-FFT traffic is modelled by
:mod:`repro.parallel.fft_decomp`, not run here).

Everything here must stay importable under the ``spawn`` start method:
module-level functions only, specs picklable.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass

import numpy as np

from ..core.advection import advect
from ..core.engine import Sweep, sweep_shift
from ..core.mesh import PhaseSpaceGrid
from ..core.moments import finite_stats, kinetic_sums
from ..perf.arena import ScratchArena
from ..perf.substrate import attach_shm

__all__ = ["WorkerSpec", "worker_main"]


@dataclass(frozen=True)
class WorkerSpec:
    """Everything one worker needs to attach and serve (picklable).

    ``seg_names`` / ``block_shapes`` cover *all* ranks: halo exchange
    reads the neighbors' current-role segments directly, so every worker
    can attach every block segment (attachment is an mmap, not a copy).
    """

    rank: int
    grid: PhaseSpaceGrid
    scheme: str
    #: per-rank (role-0 name, role-1 name) block segments
    seg_names: tuple[tuple[str, str], ...]
    #: per-rank spatial block shape (trailing velocity axes are grid.nu)
    block_shapes: tuple[tuple[int, ...], ...]
    #: this rank's (start, stop) per spatial axis in the global mesh
    own_bounds: tuple[tuple[int, int], ...]
    #: this rank's (left, right) neighbor rank per spatial axis
    neighbors: tuple[tuple[int, int], ...]
    rho_name: str
    accel_name: str


class _WorkerState:
    """Attached segments, cached views and kernel arena of one worker."""

    def __init__(self, spec: WorkerSpec) -> None:
        self.spec = spec
        self.grid = spec.grid
        self.arena = ScratchArena()
        self._shm: dict[str, object] = {}
        self._views: dict = {}

    def _segment(self, name: str):
        shm = self._shm.get(name)
        if shm is None:
            shm = self._shm[name] = attach_shm(name)
        return shm

    def block(self, rank: int, role: int) -> np.ndarray:
        key = ("block", rank, role)
        view = self._views.get(key)
        if view is None:
            shape = self.spec.block_shapes[rank] + self.grid.nu
            shm = self._segment(self.spec.seg_names[rank][role])
            view = np.ndarray(shape, dtype=self.grid.dtype, buffer=shm.buf)
            self._views[key] = view
        return view

    def mesh(self, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        key = ("mesh", name)
        view = self._views.get(key)
        if view is None:
            shm = self._segment(name)
            view = np.ndarray(shape, dtype=dtype, buffer=shm.buf)
            self._views[key] = view
        return view

    def close(self) -> None:
        self._views.clear()
        for shm in self._shm.values():
            try:
                shm.close()
            except BufferError:  # pragma: no cover - view teardown order
                pass
        self._shm.clear()


# -- sweep ------------------------------------------------------------------


def _sweep(state: _WorkerState, sweep: Sweep, src: int, dst_role: int) -> float:
    """One directional advection of the local block, role ``src`` into
    role ``dst_role``; returns its seconds.

    On a partitioned spatial axis the neighbours' ``src``-role blocks
    are the ``halo``: the kernel lands their edge planes as the block's
    ghost planes, which is the whole halo exchange.
    """
    spec, grid = state.spec, state.grid
    cur = state.block(spec.rank, src)
    dst = state.block(spec.rank, dst_role)
    # the serial solver's shift, this block's slab of the shared
    # acceleration mesh standing in for the full one
    accel = state.mesh(spec.accel_name, (grid.dim,) + grid.nx, np.float64)
    own = tuple(slice(lo, hi) for lo, hi in spec.own_bounds)
    shift = sweep_shift(grid, sweep, accel[(slice(None),) + own])
    left, right = spec.neighbors[sweep.d]
    partitioned = sweep.kind == "x" and left != spec.rank
    halo = (state.block(left, src), state.block(right, src)) if partitioned else None
    t0 = time.perf_counter()
    advect(cur, shift, sweep.axis, scheme=spec.scheme, bc=sweep.bc,
           out=dst, arena=state.arena, halo=halo)
    return time.perf_counter() - t0


# -- moments / guards -------------------------------------------------------


def _density(state: _WorkerState, role: int) -> None:
    """Write this block's density slab into the shared rho mesh.

    Velocity space is whole on every rank (§5.1.3), so the per-cell
    reduction is the serial one exactly — bitwise — on the block's cells.
    """
    grid = state.spec.grid
    blk = state.block(state.spec.rank, role)
    rho = state.mesh(state.spec.rho_name, grid.nx, np.float64)
    own = tuple(slice(lo, hi) for lo, hi in state.spec.own_bounds)
    vel_axes = tuple(range(grid.dim, 2 * grid.dim))
    rho[own] = blk.sum(axis=vel_axes, dtype=np.float64) * grid.cell_volume_u


def _reduce(state: _WorkerState, role: int) -> dict:
    """This block's partials for the ledger (mass, kinetic) and the
    guards (non-finite count, min) — everything a step's bookkeeping
    asks of f, in one reply."""
    blk = state.block(state.spec.rank, role)
    return {"mass": float(blk.sum(dtype=np.float64)),
            "ke": kinetic_sums(blk, state.spec.grid),
            "stats": finite_stats(blk)}


# -- main loop --------------------------------------------------------------


def worker_main(conn, spec: WorkerSpec, inherited=()) -> None:
    """Serve commands over ``conn`` until 'close' or EOF.

    ``inherited`` (the parent's pipe ends a forked worker holds copies
    of) are closed first, so that the parent's death reads as EOF.

    Protocol: every command gets exactly one ``("ok", value)`` or
    ``("err", traceback)`` reply, except ``"call"`` (fire-and-forget —
    the chaos harness injects ``_kill_self`` through it, which never
    returns) and ``"close"``.
    """
    for end in inherited:
        end.close()
    state = _WorkerState(spec)
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            cmd = msg[0]
            if cmd == "close":
                break
            if cmd == "call":
                fn, args = msg[1], msg[2]
                try:
                    fn(*args)
                except Exception:  # pragma: no cover - injected faults
                    pass
                continue
            try:
                if cmd == "sweep":
                    value = _sweep(state, *msg[1:])
                elif cmd == "density":
                    value = _density(state, msg[1])
                elif cmd == "reduce":
                    value = _reduce(state, msg[1])
                elif cmd == "ping":
                    value = spec.rank
                else:
                    raise ValueError(f"unknown command {cmd!r}")
                reply = ("ok", value)
            except Exception:
                reply = ("err", traceback.format_exc())
            try:
                conn.send(reply)
            except (BrokenPipeError, OSError):  # pragma: no cover
                break
    finally:
        state.close()
        try:
            conn.close()
        except OSError:  # pragma: no cover - teardown
            pass
