"""Parallel runtime: decomposition, vMPI, ghost exchange, pencil FFT —
and the real-transport :class:`~repro.parallel.domain.DomainEngine`
(persistent shared-memory domain workers whose halos are the kernel's
ghost planes — see ``docs/PARALLEL.md``)."""

from .decomposition import (
    BlockDecomposition,
    DomainDecomposition,
    pencil_slices,
)
from .exchange import (
    decomposed_spatial_advect,
    decomposed_velocity_advect,
    exchange_ghosts,
    exchange_ghosts_full,
)
from .fft_decomp import PencilGrid, pencil_fft3d
from .particle_exchange import (
    decompose_particles,
    exchange_boundary_particles,
    migrate_particles,
    owner_of,
)
from .vmpi import CollectiveRecord, CommLog, MessageRecord, VirtualComm

__all__ = [
    "BlockDecomposition",
    "DomainDecomposition",
    "DomainEngine",
    "DomainWorkerError",
    "pencil_slices",
    "decomposed_spatial_advect",
    "decomposed_velocity_advect",
    "exchange_ghosts",
    "exchange_ghosts_full",
    "PencilGrid",
    "decompose_particles",
    "exchange_boundary_particles",
    "migrate_particles",
    "owner_of",
    "pencil_fft3d",
    "CollectiveRecord",
    "CommLog",
    "MessageRecord",
    "VirtualComm",
]

#: Lazily exported: :mod:`.domain` imports :mod:`repro.perf.pencil`,
#: which itself imports :mod:`.decomposition` from this package — an
#: eager import here would re-enter perf.pencil mid-initialization.
_LAZY = ("DomainEngine", "DomainWorkerError")


def __getattr__(name: str):
    if name in _LAZY:
        from . import domain

        return getattr(domain, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
