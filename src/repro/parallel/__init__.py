"""Parallel runtime: the block decomposition and the real-transport
:class:`~repro.parallel.domain.DomainEngine` (persistent shared-memory
domain workers whose halos are the kernel's ghost planes — see
``docs/PARALLEL.md``)."""

from .. import lazy_exports

#: Public name -> the submodule that defines it, imported on first use.
_EXPORTS = {
    "BlockDecomposition": "decomposition",
    "DomainEngine": "domain",
    "DomainWorkerError": "domain",
    "pencil_slices": "decomposition",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
