"""Plan-cached, worker-threaded FFT backend for the spectral field solves.

Every Strang step of a Vlasov-Poisson driver solves the Poisson equation
twice (paper Eq. 2/5), and the PM half of the TreePM split solves it once
per force evaluation.  Those solves are pure FFT convolutions, so their
cost is set by (a) how many transforms each solve performs and (b) how
fast one transform runs.  This module owns (b); the fused
:meth:`repro.gravity.poisson.PeriodicPoissonSolver.solve_fields` owns (a).

:class:`SpectralBackend` wraps ``scipy.fft`` (pocketfft) when available,
falling back to ``numpy.fft`` otherwise — nothing is installed, only
detected:

* **worker threads** — every transform passes ``workers=`` through to
  pocketfft, which splits the independent 1-D passes of a multi-D
  transform across threads (``REPRO_FFT_WORKERS`` overrides the
  default of all available cores);
* **plan cache** — pocketfft computes twiddle-factor plans per
  (shape, axis) signature and caches them process-wide; a long-lived
  backend keeps those plans warm, and the backend records the
  signatures it has executed so the cache state is observable
  (:meth:`SpectralBackend.stats`);
* **pooled k-space workspaces** — the complex products of a field
  solve (``phi_k`` gradients, kernel multiplies) draw reusable buffers
  from a :class:`repro.perf.arena.ScratchArena`, so steady-state solves
  stop churning the allocator exactly like the advection sweeps do.

The backend also counts its forward/inverse transforms
(:attr:`n_forward` / :attr:`n_inverse`), which is what the FFT-budget
regression tests assert against: a field solve must perform **exactly
one** forward transform of the source, never ``1 + dim``.

A **per-thread** default backend serves every solver that is not handed
an explicit one; swap it with :func:`set_default_backend` (tests install
a counting instance, benchmarks a tuned one).  Per-thread, not
per-process, because the pooled workspaces are single-caller scratch:
concurrent in-process runs (the campaign layer's thread executor) must
not share them.
"""

from __future__ import annotations

import os
import threading

import numpy as np

from .arena import ScratchArena
from .substrate import available_cores

try:  # pragma: no cover - exercised implicitly on hosts with scipy
    import scipy.fft as _scipy_fft
except ImportError:  # pragma: no cover - scipy is a declared dependency
    _scipy_fft = None

__all__ = [
    "SpectralBackend",
    "get_default_backend",
    "set_default_backend",
]


def _default_workers() -> int:
    """Worker-thread count: ``REPRO_FFT_WORKERS`` or all available cores."""
    env = os.environ.get("REPRO_FFT_WORKERS", "")
    if env:
        return max(1, int(env))
    return available_cores()


class SpectralBackend:
    """Counting FFT executor with worker threads and pooled workspaces.

    Parameters
    ----------
    workers:
        Threads per transform (scipy.fft ``workers=``).  ``None`` reads
        ``REPRO_FFT_WORKERS`` or uses every available core; the numpy
        fallback ignores it (numpy.fft is single-threaded).
    arena:
        Scratch pool for the complex k-space workspaces; a private one
        is created when omitted.  One backend serves one caller at a
        time (same discipline as :class:`~repro.perf.arena.ScratchArena`).
    """

    __slots__ = ("workers", "arena", "n_forward", "n_inverse", "n_fallbacks",
                 "_plans")

    def __init__(self, workers: int | None = None,
                 arena: ScratchArena | None = None) -> None:
        self.workers = _default_workers() if workers is None else int(workers)
        self.arena = ScratchArena() if arena is None else arena
        self.n_forward = 0
        self.n_inverse = 0
        #: transforms where scipy.fft raised and the numpy path answered
        #: instead (see :meth:`_fallback`).
        self.n_fallbacks = 0
        #: (kind, shape) signatures executed at least once — the plans
        #: pocketfft has built and cached for this process.
        self._plans: set[tuple] = set()

    # ------------------------------------------------------------------

    @property
    def library(self) -> str:
        """Which FFT library backs the transforms."""
        return "scipy.fft" if _scipy_fft is not None else "numpy.fft"

    def _fallback(self, kind: str, exc: Exception) -> None:
        """Record one scipy-path failure answered by numpy instead.

        A scipy transform failing (a worker-pool hiccup, a platform bug)
        must degrade the run's speed, never its correctness or survival:
        the same transform is re-run on ``numpy.fft``, the ``fallbacks``
        counter ticks, and a telemetry warning is published.
        """
        self.n_fallbacks += 1
        try:
            from ..runtime.telemetry import emit_event

            emit_event(
                "fft_fallback", transform=kind,
                error=f"{type(exc).__name__}: {exc}",
            )
        except Exception:  # pragma: no cover - teardown-order imports
            pass

    def rfftn(self, x: np.ndarray, axes=None) -> np.ndarray:
        """Forward real-to-complex N-D transform (counted)."""
        self.n_forward += 1
        self._plans.add(("rfftn", x.shape))
        if _scipy_fft is not None:
            try:
                return _scipy_fft.rfftn(x, axes=axes, workers=self.workers)
            except Exception as exc:
                self._fallback("rfftn", exc)
        return np.fft.rfftn(x, axes=axes)

    def irfftn(self, x_k: np.ndarray, s, axes=None) -> np.ndarray:
        """Inverse complex-to-real N-D transform (counted).

        Evaluated as the *separable* composition — one complex ``ifft``
        per leading axis, then one ``irfft`` along the last axis — rather
        than the fused ``irfftn`` kernel.  The two differ by ~1 ulp, and
        every recorded final-f checksum was produced by the separable
        order: switching kernels would change the bits of every
        reproduced run, so the order stays.
        """
        self.n_inverse += 1
        self._plans.add(("irfftn", tuple(s)))
        s = tuple(s)
        axes = tuple(range(len(s))) if axes is None else tuple(axes)
        if _scipy_fft is not None:
            try:
                out = x_k
                for n, ax in zip(s[:-1], axes[:-1]):
                    out = _scipy_fft.ifft(out, n=n, axis=ax, workers=self.workers)
                return _scipy_fft.irfft(
                    out, n=s[-1], axis=axes[-1], workers=self.workers
                )
            except Exception as exc:
                self._fallback("irfftn", exc)
        out = x_k
        for n, ax in zip(s[:-1], axes[:-1]):
            out = np.fft.ifft(out, n=n, axis=ax)
        return np.fft.irfft(out, n=s[-1], axis=axes[-1])

    def kspace_product(self, key, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``a * b`` into a pooled complex workspace (broadcasting ok).

        ``key`` distinguishes concurrent same-shaped products within one
        solve; the result is only valid until the next request with the
        same signature.
        """
        shape = np.broadcast_shapes(a.shape, b.shape)
        out = self.arena.take(("fft", key), shape, np.complex128)
        return np.multiply(a, b, out=out)

    # ------------------------------------------------------------------

    def reset_counts(self) -> None:
        """Zero the transform counters (the plan record is kept)."""
        self.n_forward = 0
        self.n_inverse = 0

    def counters(self) -> dict:
        """Just the transform counters — the per-step telemetry export.

        Cheap (no workspace introspection) and flat, so the runtime's
        JSONL stream can embed it verbatim every step.
        """
        return {
            "n_forward": self.n_forward,
            "n_inverse": self.n_inverse,
            "n_plans": len(self._plans),
            "fallbacks": self.n_fallbacks,
        }

    def stats(self) -> dict:
        """Counters, plan-cache population and workspace-pool health."""
        return {
            "library": self.library,
            "workers": self.workers,
            **self.counters(),
            "workspace": self.arena.stats(),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SpectralBackend({self.library}, workers={self.workers}, "
            f"fwd={self.n_forward}, inv={self.n_inverse}, "
            f"plans={len(self._plans)})"
        )


# The default backend is per-thread, not per-process: its ScratchArena
# pools the k-space workspaces of `kspace_product`, and two concurrent
# same-shaped field solves sharing one pool would overwrite each other's
# products mid-solve (pocketfft's own plan cache is process-wide and
# thread-safe; only the counters and workspaces live here).
_DEFAULTS = threading.local()


def get_default_backend() -> SpectralBackend:
    """This thread's default backend for solvers without an explicit one."""
    backend = getattr(_DEFAULTS, "backend", None)
    if backend is None:
        backend = _DEFAULTS.backend = SpectralBackend()
    return backend


def set_default_backend(backend: SpectralBackend | None) -> SpectralBackend | None:
    """Install (or with ``None`` reset) this thread's default backend.

    Returns the previous default so callers can restore it — the
    FFT-counting test fixture does exactly that.
    """
    previous = getattr(_DEFAULTS, "backend", None)
    _DEFAULTS.backend = backend
    return previous
