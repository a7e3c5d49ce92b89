"""Parallel runtime: decomposition, vMPI, ghost exchange, pencil FFT —
and the real-transport :class:`~repro.parallel.domain.DomainEngine`
(persistent shared-memory domain workers whose halos are the kernel's
ghost planes — see ``docs/PARALLEL.md``)."""

from .decomposition import BlockDecomposition, pencil_slices
from .domain import DomainEngine, DomainWorkerError
from .exchange import decomposed_spatial_advect, exchange_ghosts
from .fft_decomp import PencilGrid, pencil_fft3d
from .vmpi import CollectiveRecord, CommLog, MessageRecord, VirtualComm

__all__ = [
    "BlockDecomposition",
    "DomainEngine",
    "DomainWorkerError",
    "pencil_slices",
    "decomposed_spatial_advect",
    "exchange_ghosts",
    "PencilGrid",
    "pencil_fft3d",
    "CollectiveRecord",
    "CommLog",
    "MessageRecord",
    "VirtualComm",
]
