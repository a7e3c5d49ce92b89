"""Single-node performance substrate: scratch arenas and pencil sharding.

The paper's performance model has three pillars — SIMD over non-advected
indices, spatial domain decomposition with velocity space kept whole,
and bandwidth-bounded float32 streaming.  NumPy gives us the first; this
package supplies the single-node analog of the second and stops the
allocator from taxing the third:

* :class:`~repro.perf.arena.ScratchArena` — preallocated plane /
  flux / limiter buffers so repeated ``advect`` calls are
  allocation-free in steady state;
* :class:`~repro.perf.pencil.PencilEngine` — shards any directional
  sweep into pencils along a non-advected axis and runs them on a
  thread pool, bitwise-identical to the serial kernel (the process
  transport is :class:`repro.parallel.domain.DomainEngine`);
* :class:`~repro.perf.fft.SpectralBackend` — the ``numpy.fft`` executor
  behind every field solve (separable, in the order the recorded
  checksums were made with), with pooled complex workspaces and
  transform counters the FFT-budget tests assert against.

See docs/PERFORMANCE.md ("The pencil engine", "The fused spectral
pipeline") for when each one pays.
"""

from .. import lazy_exports

#: Public name -> the submodule that defines it, imported on first use.
_EXPORTS = {
    "PencilEngine": "pencil",
    "ScratchArena": "arena",
    "SpectralBackend": "fft",
    "get_default_backend": "fft",
    "set_default_backend": "fft",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
