"""Counting FFT backend for the spectral field solves.

Every Strang step of a Vlasov-Poisson driver solves the Poisson equation
twice (paper Eq. 2/5), and the PM half of the TreePM split solves it once
per force evaluation.  Those solves are pure FFT convolutions, so their
cost is set by (a) how many transforms each solve performs and (b) how
fast one transform runs.  This module owns (b); the fused
:meth:`repro.gravity.poisson.PeriodicPoissonSolver.solve_fields` owns (a).

:class:`SpectralBackend` runs ``numpy.fft`` (pocketfft, single-threaded)
one axis at a time, in a fixed order:

* **separable, in a fixed order** — forward is ``rfft`` on the last
  axis, then ``fft`` on the leading axes in increasing order; inverse is
  ``ifft`` on the leading axes, then ``irfft`` on the last.  That order
  is bitwise the one every recorded final-f checksum was produced with;
  the fused ``numpy.fft.rfftn`` visits the leading axes the other way
  round and differs by ~1e-14;
* **plan cache** — pocketfft keeps its twiddle-factor plans per length
  process-wide; the backend records the signatures it has executed so
  the cache state is observable (:meth:`SpectralBackend.stats`);
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
a counting instance).  Per-thread, not per-process, because the pooled
workspaces are single-caller scratch: concurrent in-process runs (the
campaign layer's thread executor) must not share them.
"""

from __future__ import annotations

import threading

import numpy as np

from .arena import ScratchArena

__all__ = [
    "SpectralBackend",
    "get_default_backend",
    "set_default_backend",
]


class SpectralBackend:
    """Counting FFT executor with pooled workspaces.

    Parameters
    ----------
    arena:
        Scratch pool for the complex k-space workspaces; a private one
        is created when omitted.  One backend serves one caller at a
        time (same discipline as :class:`~repro.perf.arena.ScratchArena`).
    """

    __slots__ = ("arena", "n_forward", "n_inverse", "_plans")

    def __init__(self, arena: ScratchArena | None = None) -> None:
        self.arena = ScratchArena() if arena is None else arena
        self.n_forward = 0
        self.n_inverse = 0
        #: (kind, shape) signatures executed at least once — the plans
        #: pocketfft has built and cached for this process.
        self._plans: set[tuple] = set()

    # ------------------------------------------------------------------

    def rfftn(self, x: np.ndarray, axes=None) -> np.ndarray:
        """Forward real-to-complex N-D transform (counted).

        ``rfft`` along the last axis, then ``fft`` along each leading
        axis in increasing order (see the module doc for why the order
        is fixed).
        """
        self.n_forward += 1
        self._plans.add(("rfftn", x.shape))
        axes = tuple(range(x.ndim)) if axes is None else tuple(axes)
        out = np.fft.rfft(x, axis=axes[-1])
        for ax in axes[:-1]:
            out = np.fft.fft(out, axis=ax)
        return out

    def irfftn(self, x_k: np.ndarray, s, axes=None) -> np.ndarray:
        """Inverse complex-to-real N-D transform (counted).

        One complex ``ifft`` per leading axis, then one ``irfft`` along
        the last axis — the separable order, not the fused ``irfftn``
        kernel, which differs by ~1 ulp.
        """
        self.n_inverse += 1
        s = tuple(s)
        self._plans.add(("irfftn", s))
        axes = tuple(range(len(s))) if axes is None else tuple(axes)
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
        }

    def stats(self) -> dict:
        """Counters, plan-cache population and workspace-pool health."""
        return {**self.counters(), "workspace": self.arena.stats()}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SpectralBackend(fwd={self.n_forward}, inv={self.n_inverse}, "
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
