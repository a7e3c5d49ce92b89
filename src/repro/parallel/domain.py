"""Real-transport 3-D domain decomposition: the ``DomainEngine``.

This is the production promotion of the virtual layout in
:mod:`repro.parallel.vmpi`: the spatial grid is partitioned into 3-D
blocks (paper §5.1.3 — velocity space is never split), each block is
pinned to a **persistent worker process** that holds its subdomain in
``multiprocessing.shared_memory`` across *all* steps, and halo exchange
is the kernel's landing copy reading the neighbors' edge planes straight
out of shared memory as the block's ghost planes (see
:mod:`repro.parallel.workers`).  Unlike
:class:`repro.perf.pencil.PencilEngine`, whose threads sweep the host
array, the distribution function lives in the workers'
segments for the lifetime of the run, and the parent only gathers when
someone actually asks for the full array (checkpoints, diagnostics) —
the ``gather_count`` counter makes that observable and the benchmarks
assert it stays zero across steps.

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
paper's pencil-FFT traffic is modelled by
:mod:`repro.parallel.fft_decomp` and :mod:`repro.machine.costmodel`.

This is the package's one supervised process transport
(:func:`repro.perf.substrate.retry_with_backoff`): a dead or wedged
worker tears the fleet down and retries on fresh processes (the
parent-owned segments survive, so the current-role buffers are the
recovery state — SIGKILL loses no data); an exhausted retry budget
degrades permanently down the ladder **domain → pencil(threads)**.  A
degraded engine *is* its base class: the state is gathered into the
host array and every protocol method falls through to
:class:`repro.core.engine.SweepEngine`, with a threads ``PencilEngine``
as the per-sweep kernel — so the failing step finishes host-side,
bitwise.  All segments register with the :mod:`repro.perf.substrate`
atexit leak sweep.
"""

from __future__ import annotations

import time

import numpy as np

from ..core.advection import SCHEMES, ghost_width, stencil_reach
from ..core.engine import Sweep, SweepEngine, sweep_shift
from ..core.mesh import PhaseSpaceGrid
from ..perf.pencil import PencilEngine
from ..perf.substrate import (
    available_cores,
    emit,
    register_segment,
    release_segment,
    retry_with_backoff,
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


class _FaultPool:
    """Pool facade handed to ``FaultPlan.worker_fault``.

    The chaos harness calls ``pool.submit(_kill_self)`` /
    ``pool.submit(_occupy, seconds)``; here a submit becomes a
    fire-and-forget ``"call"`` command to one worker, round-robin.
    """

    def __init__(self, engine: "DomainEngine") -> None:
        self._engine = engine

    def submit(self, fn, *args) -> None:
        self._engine._inject_call(fn, args)


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
        fleet before the engine degrades.
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

        # supervision / residency counters (observable by tests & bench)
        self.retries = 0
        self.degradations: list[str] = []
        self.degraded = False
        self.gather_count = 0
        self.scatter_count = 0
        self.halo_bytes = 0
        #: halo accounting, ``(src, dst, tag) -> [messages, nbytes]`` —
        #: the VirtualComm log's messages, aggregated (bounded by the
        #: topology, not the step count); the vmpi parity test diffs them.
        self.halo_traffic: dict[tuple[int, int, str], list[int]] = {}

        # bound geometry (set by bind)
        self.scheme = ""
        self.velocity_bc = "zero"
        self.ghost = 0
        self.decomp: BlockDecomposition | None = None

        # runtime state
        self._cur = 0  # role index of the current-f segments
        self._host_dirty = False  # host f has writes the segments lack
        self._host_stale = False  # segments have writes the host f lacks
        self._segments: dict[str, object] = {}
        self._seg_names: list[tuple[str, str]] = []
        self._mesh_names: dict[str, str] = {}
        self._procs: list = []
        self._conns: list = []
        self._victim = 0
        self._started = False
        self._fallback: PencilEngine | None = None  # kernel once degraded
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
        keeps workers and segments.
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
        super().bind(grid, scheme, velocity_bc, timer)  # marks f mutated

    # -- segments & workers ---------------------------------------------

    def _create_segment(self, nbytes: int):
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(create=True, size=max(1, nbytes))
        register_segment(shm)
        self._segments[shm.name] = shm
        return shm

    def _ensure_segments(self) -> None:
        if self._seg_names:
            return
        grid, decomp = self.grid, self.decomp
        nu_cells = int(np.prod(grid.nu, dtype=np.int64))
        itemsize = np.dtype(grid.dtype).itemsize
        for r in range(decomp.size):
            cells = int(np.prod(decomp.local_shape(r), dtype=np.int64))
            nbytes = cells * nu_cells * itemsize
            self._seg_names.append(
                (self._create_segment(nbytes).name,
                 self._create_segment(nbytes).name)
            )
        nx_cells = int(np.prod(grid.nx, dtype=np.int64))
        self._mesh_names = {
            "rho": self._create_segment(nx_cells * 8).name,
            "accel": self._create_segment(grid.dim * nx_cells * 8).name,
        }

    def _view(self, name: str, shape, dtype) -> np.ndarray:
        return np.ndarray(shape, dtype=dtype, buffer=self._segments[name].buf)

    def _block_view(self, rank: int, role: int) -> np.ndarray:
        shape = self.decomp.local_shape(rank) + self.grid.nu
        return self._view(self._seg_names[rank][role], shape, self.grid.dtype)

    def _worker_spec(self, rank: int) -> WorkerSpec:
        decomp, grid = self.decomp, self.grid
        return WorkerSpec(
            rank=rank,
            grid=grid,
            scheme=self.scheme,
            seg_names=tuple(self._seg_names),
            block_shapes=tuple(
                decomp.local_shape(r) for r in range(decomp.size)
            ),
            own_bounds=tuple(
                (sl.start, sl.stop) for sl in decomp.local_slice(rank)
            ),
            neighbors=tuple(
                (decomp.neighbor(rank, d, -1), decomp.neighbor(rank, d, +1))
                for d in range(grid.dim)
            ),
            rho_name=self._mesh_names["rho"],
            accel_name=self._mesh_names["accel"],
        )

    def _ensure_workers(self) -> None:
        if self._procs:
            return
        import multiprocessing as mp

        ctx = mp.get_context(
            "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        )
        procs, conns = [], []
        for r in range(self.decomp.size):
            parent, child = ctx.Pipe()
            proc = ctx.Process(
                target=worker_main, args=(child, self._worker_spec(r)),
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
        self._ensure_segments()
        self._ensure_workers()
        if self._host_dirty:
            self._scatter_host()
            self._host_dirty = False
            self.scatter_count += 1

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

    def _release_segments(self) -> None:
        for shm in list(self._segments.values()):
            release_segment(shm)
        self._segments.clear()
        self._seg_names = []
        self._mesh_names = {}

    def close(self) -> None:
        """Stop workers and unlink segments (engine stays re-bindable)."""
        had_workers = bool(self._procs)
        self._teardown_workers(graceful=True)
        self._release_segments()
        if self._fallback is not None:
            self._fallback.close()
        if had_workers:
            emit("domain_closed")
        self.grid = None
        self.decomp = None
        self.scheme = ""
        self._started = False

    def __del__(self) -> None:  # pragma: no cover - GC timing
        try:
            self._teardown_workers()
            self._release_segments()
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
        """A command round under the retry → degrade supervision policy.

        Worker death tears the fleet down and retries on fresh processes
        (segments survive — the current-role buffers are authoritative);
        an exhausted budget degrades the engine permanently, after
        syncing the host array from the surviving segments, and
        re-raises for the caller to fall through to the base engine.
        """
        if self.degraded:
            raise DomainWorkerError("engine is permanently degraded")

        def attempt() -> list:
            self._ensure_ready()
            return self._round(payloads)

        def failed(n: int, exc: Exception) -> None:
            self.retries += 1
            self._teardown_workers()
            emit("domain_worker_failure", attempt=n, error=repr(exc))

        try:
            return retry_with_backoff(
                attempt, DomainWorkerError,
                self.max_retries, self.backoff_base, failed,
            )
        except DomainWorkerError as exc:
            self._permanent_degrade(repr(exc))
            raise

    def _permanent_degrade(self, reason: str) -> None:
        if self.degraded:
            return
        # the parent created the segments: they outlive any worker death,
        # so the current-role blocks are intact recovery state (unless the
        # host mirror is the newer of the two — then it already wins)
        if self._seg_names and not self._host_dirty:
            self._gather_into_host()
        self.degradations.append("domain")
        self.degraded = True
        self._fallback = PencilEngine(n_workers=self.size)
        emit(
            "domain_degraded",
            from_engine="domain", to_backend="pencil-threads", reason=reason,
        )
        self._teardown_workers()
        self._release_segments()

    def _inject_call(self, fn, args) -> None:
        if not self._conns:
            return
        r = self._victim % len(self._conns)
        self._victim += 1
        try:
            self._conns[r].send(("call", fn, args))
        except (BrokenPipeError, OSError):  # pragma: no cover - racing death
            pass

    # -- host f --------------------------------------------------------

    def _gather_into_host(self) -> None:
        for r in range(self.decomp.size):
            self._f[self.decomp.local_slice(r)] = \
                self._block_view(r, self._cur)
        self._host_stale = False

    def _scatter_host(self) -> None:
        for r in range(self.decomp.size):
            self._block_view(r, self._cur)[...] = \
                self._f[self.decomp.local_slice(r)]
        self._host_stale = False
        emit("domain_scatter", nbytes=int(self._f.nbytes))

    @SweepEngine.f.getter
    def f(self) -> np.ndarray:
        """The host array, gathered from the workers first if stale."""
        if self._host_stale and not self.degraded:
            self._gather_into_host()
            self.gather_count += 1
            emit("domain_gather", nbytes=int(self._f.nbytes), reason="host")
        return self._f

    def mark_mutated(self) -> None:
        """The host array is now the newer copy; re-scatter before use."""
        super().mark_mutated()
        self._host_dirty = True
        self._host_stale = False

    # -- sweeps ----------------------------------------------------------

    def advect(self, f, shift, axis, **kwargs) -> np.ndarray:
        """Host kernel: serial, or the ladder's pencil rung once degraded."""
        if self._fallback is not None:
            return self._fallback.advect(f, shift, axis, **kwargs)
        return super().advect(f, shift, axis, **kwargs)

    def run(self, plan, accel) -> None:
        """Run the plan on the workers; whatever a mid-plan degradation
        leaves over finishes on the host array through the base engine
        (bitwise, only slower); that call also bumps ``f_version``.

        A plan whose halo would not fit the blocks is refused up front
        (:meth:`_check_ghosts`), with f, ``f_version`` and the fleet
        untouched."""
        if not self.degraded:
            self._check_ghosts(plan)
            plan = plan[self._run_on_workers(plan, accel):]
        super().run(plan, accel)

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

    def _run_on_workers(self, plan: list[Sweep], accel) -> int:
        """How many leading sweeps of ``plan`` completed on the fleet."""
        try:
            self._ensure_ready()
        except DomainWorkerError:
            self._permanent_degrade("fleet unavailable")
            return 0
        if accel is not None:
            self._view(
                self._mesh_names["accel"],
                (self.grid.dim,) + self.grid.nx, np.float64,
            )[...] = accel
        for k, sweep in enumerate(plan):
            try:
                self._one_sweep(sweep)
            except DomainWorkerError:
                return k
        return len(plan)

    def _one_sweep(self, sweep: Sweep) -> None:
        d, spatial = sweep.d, sweep.kind == "x"
        with self._section(sweep.name):
            if self.fault_hook is not None:
                self.fault_hook(self, _FaultPool(self))
            replies = self._supervised_round(
                [("sweep", sweep, self._cur, 1 - self._cur)] * self.decomp.size
            )
            self._cur = 1 - self._cur
            self._host_stale = True
            if self.timer is not None:
                self.timer.add("domain/interior", max(replies))
            if spatial and self.topology[d] > 1:
                self._log_halo(d, self._ghost(sweep))

    def _log_halo(self, d: int, g: int) -> None:
        """Account the sweep's ``g`` ghost planes per side as the
        messages they replace.

        Reading the left neighbor's high slab is the message that
        neighbor would have sent rightward (``ghost+{axis}``), and
        symmetrically — identical pairs, sizes and tags to
        :func:`repro.parallel.exchange.exchange_ghosts`, which the vmpi
        parity test holds us to.  Self-sends (single block on the axis)
        are never logged, matching ``VirtualComm.sendrecv``.
        """
        grid, decomp = self.grid, self.decomp
        nu_cells = int(np.prod(grid.nu, dtype=np.int64))
        itemsize = np.dtype(grid.dtype).itemsize
        swept = 0
        for r in range(decomp.size):
            shape = decomp.local_shape(r)
            transverse = int(np.prod(shape, dtype=np.int64)) // shape[d]
            nbytes = g * transverse * nu_cells * itemsize
            left = decomp.neighbor(r, d, -1)
            right = decomp.neighbor(r, d, +1)
            for key in ((left, r, f"ghost+{d}"), (right, r, f"ghost-{d}")):
                tally = self.halo_traffic.setdefault(key, [0, 0])
                tally[0] += 1
                tally[1] += nbytes
            swept += 2 * nbytes
        self.halo_bytes += swept
        emit("domain_halo_exchange", axis=d, nbytes=swept,
             messages=2 * decomp.size)

    # -- moments / guards ------------------------------------------------

    def _reduce_on_workers(self, command: str) -> list | None:
        """One reduction command on every block; None once the engine
        is (or just became) degraded — the host array is then current
        and the base engine answers from it."""
        if self.degraded:
            return None
        try:
            return self._supervised_round(
                [(command, self._cur)] * self.decomp.size
            )
        except DomainWorkerError:
            return None

    def density(self) -> np.ndarray:
        """The density mesh assembled from worker slabs (bitwise serial)."""
        if self._reduce_on_workers("density") is None:
            return super().density()
        return np.array(
            self._view(self._mesh_names["rho"], self.grid.nx, np.float64)
        )

    def _partials(self) -> list | None:
        """Every block's ledger and guard partials of the current f.

        One worker round per f state: the replies are kept under
        ``f_version`` (the key rule of the drivers' field slot), so a
        step's mass, kinetic energy and guard probe share one round.
        """
        if self._partials_key == self.f_version:
            return self._partials_replies
        replies = self._reduce_on_workers("reduce")
        if replies is not None:
            self._partials_key, self._partials_replies = self.f_version, replies
        return replies

    # Mass and kinetic energy are summed per block then across blocks —
    # not bitwise against the serial full-array ``np.sum`` (pairwise
    # order differs), but exact to the ledger's drift tolerances.

    def total_mass(self) -> float:
        replies = self._partials()
        if replies is None:
            return super().total_mass()
        return float(sum(r["mass"] for r in replies) * self.grid.cell_volume)

    def kinetic_energy(self) -> float:
        replies = self._partials()
        if replies is None:
            return super().kinetic_energy()
        ke = 0.0
        for d in range(self.grid.dim):
            ke += sum(r["ke"][d] for r in replies)
        return float(0.5 * ke * self.grid.cell_volume)

    def f_stats(self) -> tuple[int, float]:
        """(non-finite count, global min) of f — exact under aggregation."""
        replies = self._partials()
        if replies is None:
            return super().f_stats()
        return (
            int(sum(r["stats"][0] for r in replies)),
            float(min(r["stats"][1] for r in replies)),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DomainEngine(topology={self.topology}, "
            f"ghost={self.ghost}, degraded={self.degraded})"
        )
