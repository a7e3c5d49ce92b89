"""Real-transport 3-D domain decomposition: the ``DomainEngine``.

The spatial grid is partitioned into 3-D blocks (paper §5.1.3 —
velocity space is never split), each block is pinned to a **persistent
worker process** that sweeps its subdomain in
``multiprocessing.shared_memory`` across *all* steps, and halo exchange
is the kernel's landing copy reading the neighbors' edge planes straight
out of shared memory as the block's ghost planes (see
:mod:`repro.parallel.workers`).  f lives in two whole-f shared buffers
for the lifetime of the run: each worker sweeps its block of the
current buffer into its block of the other, and ``engine.f`` is
whichever buffer holds the current state.  The parent reads and writes
that buffer directly (checkpoints, diagnostics, initial conditions), so
f is never gathered or scattered; the halo planes are the only data
that move.

Bitwise identity with the serial solver is a hard invariant, inherited
from two empirically pinned facts (asserted by the test suite):

* a block sweep landed with its neighbors' edge planes equals the
  serial sweep exactly, at any CFL: the kernel's whole-cell sums have
  no origin.  The one limit is the ghost width — a sweep shifting by up
  to ``c`` cells lands ``ghost_width(spec, c)`` planes from each
  neighbour, so no block along a partitioned axis may be thinner.
  :meth:`DomainEngine.run` checks the whole plan against that before
  any worker round and refuses with a ``ValueError`` naming the largest
  dt/dx that fits; velocity kicks never cross block boundaries and
  have no limit;
* per-cell velocity moments are block-local (§5.1.3), so the density
  mesh assembled from worker slabs is the serial one bit for bit.

The field solve itself runs on the parent, on the process-default
:class:`repro.perf.fft.SpectralBackend` like every other engine's: the
parent holds the whole density mesh anyway, so a worker-staged
transform would move the mesh twice and distribute nothing.  The
paper's pencil-FFT traffic, and its n_x·n_y cap on FFT ranks, is
modelled by :mod:`repro.machine.costmodel`.

This is the package's one supervised process transport: a dead or
wedged worker tears the fleet down and the round is retried on fresh
processes (the parent-owned segments survive, and no round writes the
current buffer, so it is the recovery state — SIGKILL loses no data).
A worker still lost after ``max_retries`` raises
:class:`DomainWorkerError` and ends the run, as a Fugaku job that loses
a rank ends: the checkpoint chain is the recovery past that point
(``repro resume``, or a campaign retry).  All segments register with
the :mod:`repro.perf.substrate` atexit leak sweep.
"""

from __future__ import annotations

import time

import numpy as np

from ..core.advection import SCHEMES, ghost_width, stencil_reach
from ..core.engine import Sweep, SweepEngine, sweep_shift
from ..core.mesh import PhaseSpaceGrid
from ..perf.substrate import (
    available_cores,
    emit,
    register_segment,
    release_segment,
    segment_view,
)
from .decomposition import BlockDecomposition
from .workers import WorkerSpec, worker_main

__all__ = ["DomainEngine", "DomainWorkerError"]


class DomainWorkerError(RuntimeError):
    """A domain worker died, answered garbage, or timed out."""


def _auto_topology(nx: tuple[int, ...], n_workers: int) -> tuple[int, ...]:
    """Factor ``n_workers`` over the spatial axes, longest-first.

    Greedy: each prime factor of ``n_workers`` (largest first) goes to
    the axis with the most cells per current block — the same heuristic
    a human uses filling in Table 2's (n_x, n_y, n_z).
    """
    factors = []
    n = max(1, int(n_workers))
    p = 2
    while p * p <= n:
        while n % p == 0:
            factors.append(p)
            n //= p
        p += 1
    if n > 1:
        factors.append(n)
    topo = [1] * len(nx)
    for f in sorted(factors, reverse=True):
        ax = max(range(len(nx)), key=lambda d: nx[d] / topo[d])
        topo[ax] *= f
    return tuple(topo)


class DomainEngine(SweepEngine):
    """Persistent-worker spatial domain decomposition (see module doc).

    Parameters
    ----------
    topology:
        Workers per spatial axis, e.g. ``(2, 2, 1)``; ``None`` factors
        ``n_workers`` automatically over the grid's axes at bind time.
    n_workers:
        Worker count when ``topology`` is ``None`` (default: available
        cores, capped at 4 — domain workers hold whole subdomains, they
        are not cheap threads).
    max_retries:
        How many times a failed command round is retried on a fresh
        fleet before :class:`DomainWorkerError` ends the run.
    backoff_base:
        First retry delay [s]; doubles per retry (bounded exponential).
    task_timeout:
        Wall-clock budget [s] for one command round; ``None`` (default)
        waits forever.  Exceeding it counts as a worker failure.
    """

    def __init__(
        self,
        topology: tuple[int, ...] | None = None,
        n_workers: int | None = None,
        max_retries: int = 2,
        backoff_base: float = 0.05,
        task_timeout: float | None = None,
    ) -> None:
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if backoff_base < 0:
            raise ValueError("backoff_base must be >= 0")
        if n_workers is not None and n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.topology = tuple(int(p) for p in topology) if topology else None
        if self.topology is not None and any(p < 1 for p in self.topology):
            raise ValueError("topology entries must be >= 1")
        self.n_workers = n_workers
        self.max_retries = int(max_retries)
        self.backoff_base = float(backoff_base)
        self.task_timeout = task_timeout
        super().__init__()

        # supervision counters (observable by tests & bench)
        self.retries = 0
        self.halo_bytes = 0

        # bound geometry (set by bind)
        self.scheme = ""
        self.velocity_bc = "zero"
        self.ghost = 0
        self.decomp: BlockDecomposition | None = None

        # runtime state
        self._cur = 0  # which of the two f buffers holds the current f
        self._bufs: tuple[np.ndarray, ...] = ()  # the two f buffers
        #: the shared segments by role: "f0", "f1", "rho", "accel"
        self._segments: dict[str, object] = {}
        self._procs: list = []
        self._conns: list = []
        self._victim = 0
        self._started = False
        self._partials_key: int | None = None  # f_version of the replies
        self._partials_replies: list | None = None

    # -- binding --------------------------------------------------------

    @property
    def size(self) -> int:
        """Worker count (1 before bind when topology is automatic)."""
        if self.decomp is not None:
            return self.decomp.size
        if self.topology is not None:
            return int(np.prod(self.topology))
        return self.n_workers or 1

    def bind(self, grid: PhaseSpaceGrid, scheme: str,
             velocity_bc: str = "zero", timer=None) -> None:
        """Fix the engine to one grid geometry and restart f as zeros.

        Rebinding to a different grid/scheme tears everything down
        first; rebinding to the same one (a rollback's fresh solver)
        keeps the workers and the buffers.  The segments are created
        here, so a bind that cannot create them raises (``close()``
        then releases the ones that were made).
        """
        if not (self.grid == grid and self.scheme == scheme
                and self.velocity_bc == velocity_bc):
            if self.grid is not None:
                self.close()
            topo = self.topology
            if topo is None:
                workers = self.n_workers or min(available_cores(), 4)
                topo = _auto_topology(grid.nx, workers)
            if len(topo) != grid.dim:
                raise ValueError(
                    f"topology {topo} does not match grid dimension {grid.dim}"
                )
            if scheme not in SCHEMES:
                raise ValueError(f"unknown scheme {scheme!r}")
            ghost = ghost_width(SCHEMES[scheme])  # the thinnest halo a sweep lands
            decomp = BlockDecomposition(grid.nx, topo)
            for d in range(grid.dim):
                if topo[d] > 1 and grid.nx[d] // topo[d] < ghost:
                    raise ValueError(
                        f"axis {d}: {topo[d]} blocks over {grid.nx[d]} cells "
                        f"leaves {grid.nx[d] // topo[d]} < ghost width "
                        f"{ghost}; use fewer workers or a larger mesh"
                    )
            self.ghost = ghost
            self.decomp = decomp
            self.topology = topo
            self._create_segments(grid)
        super().bind(grid, scheme, velocity_bc, timer)  # marks f mutated

    def _zeroed_f(self, grid: PhaseSpaceGrid) -> np.ndarray:
        """The current buffer, zeroed.

        The other buffer needs no zeroing: the next sweep writes every
        block of it before anything reads it."""
        f = self._bufs[self._cur]
        f[...] = 0
        return f

    # -- segments & workers ---------------------------------------------

    def _create_segments(self, grid: PhaseSpaceGrid) -> None:
        """The two f buffers and the float64 ``rho`` and ``accel`` meshes.

        Each segment is registered as soon as it exists, so a creation
        that fails (``/dev/shm`` full) leaves the ones before it for
        :meth:`close` to release."""
        from multiprocessing import shared_memory

        f_bytes = int(np.prod(grid.shape, dtype=np.int64)) \
            * np.dtype(grid.dtype).itemsize
        nx_cells = int(np.prod(grid.nx, dtype=np.int64))
        for role, nbytes in (("f0", f_bytes), ("f1", f_bytes),
                             ("rho", nx_cells * 8),
                             ("accel", grid.dim * nx_cells * 8)):
            shm = shared_memory.SharedMemory(create=True, size=max(1, nbytes))
            register_segment(shm)
            self._segments[role] = shm
        self._bufs = (self._view("f0", grid.shape, grid.dtype),
                      self._view("f1", grid.shape, grid.dtype))

    def _view(self, role: str, shape, dtype) -> np.ndarray:
        """A view of one segment; one that outlives :meth:`close` keeps
        its mapping alive (:func:`repro.perf.substrate.segment_view`)."""
        return segment_view(self._segments[role], shape, dtype)

    def _worker_spec(self, rank: int) -> WorkerSpec:
        decomp, grid = self.decomp, self.grid
        return WorkerSpec(
            rank=rank,
            grid=grid,
            scheme=self.scheme,
            f_names=(self._segments["f0"].name, self._segments["f1"].name),
            bounds=tuple(
                tuple((sl.start, sl.stop) for sl in decomp.local_slice(r))
                for r in range(decomp.size)
            ),
            neighbors=tuple(
                (decomp.neighbor(rank, d, -1), decomp.neighbor(rank, d, +1))
                for d in range(grid.dim)
            ),
            rho_name=self._segments["rho"].name,
            accel_name=self._segments["accel"].name,
        )

    def _ensure_workers(self) -> None:
        if self._procs:
            return
        import multiprocessing as mp

        fork = "fork" in mp.get_all_start_methods()
        ctx = mp.get_context("fork" if fork else "spawn")
        procs, conns = [], []
        for r in range(self.decomp.size):
            parent, child = ctx.Pipe()
            # a forked worker closes the parent's pipe ends it inherited,
            # its own among them: otherwise no worker reads EOF when the
            # parent dies, and the fleet outlives a SIGKILLed run
            inherited = (*conns, parent) if fork else ()
            proc = ctx.Process(
                target=worker_main,
                args=(child, self._worker_spec(r), inherited),
                daemon=True, name=f"domain-{r}",
            )
            proc.start()
            child.close()
            procs.append(proc)
            conns.append(parent)
        self._procs, self._conns = procs, conns
        self._round([("ping",)] * len(procs))
        if not self._started:
            self._started = True
            emit(
                "domain_started",
                topology=list(self.topology), workers=len(procs),
                ghost=self.ghost,
            )

    def _ensure_ready(self) -> None:
        if self.grid is None:
            raise RuntimeError("DomainEngine.bind() was never called")
        self._ensure_workers()

    def _teardown_workers(self, graceful: bool = False) -> None:
        procs, self._procs = self._procs, []
        conns, self._conns = self._conns, []
        for conn in conns:
            if graceful:
                try:
                    conn.send(("close",))
                except (BrokenPipeError, OSError):
                    pass
            try:
                conn.close()
            except OSError:  # pragma: no cover - already gone
                pass
        for proc in procs:
            proc.join(timeout=0.5 if graceful else 0.0)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=1.0)

    def _release_segments(self, keep_f: bool = True) -> None:
        """Unlink every segment.  ``keep_f`` copies f out of its buffer
        first, so :attr:`f` still reads back."""
        if self._bufs:
            self._f = np.array(self._f) if keep_f else None
            self._bufs = ()
        for shm in self._segments.values():
            release_segment(shm)
        self._segments.clear()

    def close(self) -> None:
        """Stop workers and unlink segments (engine stays re-bindable;
        :attr:`f` still reads the last state)."""
        had_workers = bool(self._procs)
        self._teardown_workers(graceful=True)
        self._release_segments()
        if had_workers:
            emit("domain_closed")
        self.grid = None
        self.decomp = None
        self.scheme = ""
        self._started = False

    def __del__(self) -> None:  # pragma: no cover - GC timing
        try:
            self._teardown_workers()
            self._release_segments(keep_f=False)
        except Exception:
            pass

    # -- command rounds --------------------------------------------------

    def _round(self, payloads: list) -> list:
        """Send one command per worker, collect every reply (a barrier)."""
        conns = self._conns
        if len(conns) != len(payloads):
            raise DomainWorkerError("worker fleet is down")
        try:
            for conn, payload in zip(conns, payloads):
                conn.send(payload)
        except (BrokenPipeError, OSError) as exc:
            raise DomainWorkerError(f"send failed: {exc!r}") from exc
        deadline = None if self.task_timeout is None \
            else time.monotonic() + self.task_timeout
        replies = []
        for r, conn in enumerate(conns):
            try:
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not conn.poll(remaining):
                        raise DomainWorkerError(
                            f"worker {r} timed out after {self.task_timeout}s"
                        )
                status, value = conn.recv()
            except (EOFError, OSError) as exc:
                raise DomainWorkerError(f"worker {r} died: {exc!r}") from exc
            if status != "ok":
                raise DomainWorkerError(f"worker {r} failed:\n{value}")
            replies.append(value)
        return replies

    def _supervised_round(self, payloads: list) -> list:
        """A command round, retried on a fresh fleet.

        Worker death tears the fleet down, waits ``backoff_base * 2**n``
        seconds and runs the round again on fresh processes (segments
        survive, and no round writes the current buffer).  The
        ``max_retries + 1``-th failure re-raises: the run ends there.
        """
        attempt = 0
        while True:
            try:
                self._ensure_ready()
                return self._round(payloads)
            except DomainWorkerError as exc:
                self.retries += 1
                self._teardown_workers()
                emit("domain_worker_failure", attempt=attempt, error=repr(exc))
                if attempt == self.max_retries:
                    raise
            time.sleep(self.backoff_base * 2.0 ** attempt)
            attempt += 1

    def inject(self, fn, *args) -> None:
        """Have one worker, round-robin, call ``fn(*args)`` without a
        reply (the chaos harness's kill and stall)."""
        if not self._conns:
            return
        r = self._victim % len(self._conns)
        self._victim += 1
        try:
            self._conns[r].send(("call", fn, args))
        except (BrokenPipeError, OSError):  # pragma: no cover - racing death
            pass

    # -- sweeps ----------------------------------------------------------

    def run(self, plan, accel) -> None:
        """Run the plan on the workers, one command round per sweep.

        A plan whose halo would not fit the blocks is refused up front
        (:meth:`_check_ghosts`), with f, ``f_version`` and the fleet
        untouched.  A worker lost past its retries raises
        :class:`DomainWorkerError` mid-plan: f then holds the sweeps
        before the failed one."""
        self._check_ghosts(plan)
        self.f_version += 1
        if accel is not None:
            self._view(
                "accel", (self.grid.dim,) + self.grid.nx, np.float64,
            )[...] = accel
        for sweep in plan:
            self._one_sweep(sweep)

    def _ghost(self, sweep: Sweep) -> int:
        """Planes a spatial sweep lands from each neighbour: the kernel's
        ``ghost_width`` of the very shift array the workers compute."""
        shift = sweep_shift(self.grid, sweep, None)
        return ghost_width(SCHEMES[self.scheme], np.abs(shift).max())

    def _check_ghosts(self, plan: list[Sweep]) -> None:
        """Raise ``ValueError`` if a partitioned drift of ``plan`` needs
        more ghost planes than the thinnest block along its axis has."""
        for sweep in plan:
            d = sweep.d
            if sweep.kind != "x" or self.topology[d] == 1:
                continue
            g = self._ghost(sweep)
            thin = min(self.decomp.local_shape(r)[d] for r in range(self.decomp.size))
            if g > thin:
                max_u = float(np.abs(self.grid.u_center_broadcast(d)).max())
                limit = (thin - stencil_reach(SCHEMES[self.scheme])) / max_u
                raise ValueError(
                    f"axis {d}: the drift at CFL {max_u * abs(sweep.factor):.3g} "
                    f"lands {g} ghost planes, but the thinnest of "
                    f"{self.topology[d]} blocks over {self.grid.nx[d]} cells "
                    f"has {thin}; dt/dx must stay below {limit:.6g} on this "
                    "topology (or use fewer blocks along the axis)"
                )

    def _one_sweep(self, sweep: Sweep) -> None:
        d, spatial = sweep.d, sweep.kind == "x"
        with self._section(sweep.name):
            if self.fault_hook is not None:
                self.fault_hook(self)
            replies = self._supervised_round(
                [("sweep", sweep, self._cur, 1 - self._cur)] * self.decomp.size
            )
            self._cur = 1 - self._cur
            self._f = self._bufs[self._cur]
            if self.timer is not None:
                self.timer.add("domain/interior", max(replies))
            if spatial and self.topology[d] > 1:
                self._log_halo(d, self._ghost(sweep))

    def _log_halo(self, d: int, g: int) -> None:
        """Account the ``g`` ghost planes per side a sweep along
        partitioned axis ``d`` lands: every block reads ``g`` planes of
        its transverse face from each neighbour, and the faces summed
        over the blocks are ``n_proc[d]`` whole cross-sections of the
        mesh, even or uneven."""
        grid = self.grid
        cross_section = int(np.prod(grid.nx, dtype=np.int64)) // grid.nx[d]
        nbytes = (2 * g * self.topology[d] * cross_section
                  * int(np.prod(grid.nu, dtype=np.int64))
                  * np.dtype(grid.dtype).itemsize)
        self.halo_bytes += nbytes
        emit("domain_halo_exchange", axis=d, nbytes=nbytes,
             messages=2 * self.decomp.size)

    # -- moments / guards ------------------------------------------------

    def _reduce(self, command: str) -> list:
        """One reduction command on every block of the current f."""
        return self._supervised_round([(command, self._cur)] * self.decomp.size)

    def density(self) -> np.ndarray:
        """The density mesh assembled from worker slabs (bitwise serial)."""
        self._reduce("density")
        return np.array(self._view("rho", self.grid.nx, np.float64))

    def _partials(self) -> list:
        """Every block's ledger and guard partials of the current f.

        One worker round per f state: the replies are kept under
        ``f_version`` (the key rule of the drivers' field slot), so a
        step's mass, kinetic energy and guard probe share one round.
        """
        if self._partials_key != self.f_version:
            self._partials_replies = self._reduce("reduce")
            self._partials_key = self.f_version
        return self._partials_replies

    # Mass and kinetic energy are summed per block then across blocks —
    # not bitwise against the serial engine's sums in general (the
    # summation order differs), but exact to the ledger's drift
    # tolerances.

    def total_mass(self) -> float:
        replies = self._partials()
        return float(sum(r["mass"] for r in replies) * self.grid.cell_volume)

    def kinetic_energy(self) -> float:
        replies = self._partials()
        ke = 0.0
        for d in range(self.grid.dim):
            ke += sum(r["ke"][d] for r in replies)
        return float(0.5 * ke * self.grid.cell_volume)

    def f_stats(self) -> tuple[int, float]:
        """(non-finite count, global min) of f — exact under aggregation."""
        replies = self._partials()
        return (
            int(sum(r["stats"][0] for r in replies)),
            float(min(r["stats"][1] for r in replies)),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DomainEngine(topology={self.topology}, ghost={self.ghost})"
