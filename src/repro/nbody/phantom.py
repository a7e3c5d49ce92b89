"""Phantom-GRAPE-style batched particle-particle force kernel (paper §5.1.2).

The original Phantom-GRAPE [24] evaluates Newtonian pairwise interactions
with explicit SIMD intrinsics (SSE/AVX on x86, ported to SVE on A64FX for
the paper), reaching 1.2e9 interactions/s/core against 2.4e7 for the scalar
compiler-generated code — a factor of 50 from explicit vectorization.

Here the same kernel is expressed two ways:

* :func:`accel_batched` — the "SIMD" path: a fully vectorized NumPy kernel
  operating on (targets x sources) tiles, optionally in float32 like the
  SVE original (the accumulation happens in float32 there too), with
  optional short-range TreePM truncation;
* :func:`accel_scalar` — the "w/o SIMD instructions" reference: the same
  arithmetic in pure Python loops.

The ratio of their measured interactions/s reproduces the *shape* of the
paper's 50x claim (``benchmarks/bench_phantom_grape.py``).  An interaction
counter supports the paper's "interactions/sec" metric.

Softening uses the Plummer form: |F| = G m r / (r^2 + eps^2)^{3/2}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

#: Tile width for the batched kernel — analogous to the SIMD vector length
#: times unrolling depth in the SVE original; NumPy amortizes per-op
#: overhead over much larger tiles.
DEFAULT_TILE = 2048


@dataclass
class InteractionCounter:
    """Running count of pairwise interactions for performance metering."""

    count: int = field(default=0)

    def add(self, n: int) -> None:
        """Record n interactions."""
        self.count += int(n)


def shortrange_factor(r: np.ndarray, r_split: float) -> np.ndarray:
    """TreePM short-range truncation g(r) multiplying the 1/r^2 force.

    g(r) = erfc(r / 2 r_s) + (r / r_s sqrt(pi)) exp(-r^2 / 4 r_s^2)

    (Gadget-2/TreePM convention; the complementary long-range part is the
    Gaussian-filtered PM force exp(-k^2 r_s^2) in Fourier space, so the sum
    is the exact Newtonian force.)
    """
    from scipy.special import erfc  # on use: Vlasov-only runs never split

    x = r / (2.0 * r_split)
    return erfc(x) + (r / (r_split * math.sqrt(math.pi))) * np.exp(-(x**2))


def accel_batched(
    targets: np.ndarray,
    sources: np.ndarray,
    source_masses: np.ndarray,
    g_newton: float,
    eps: float,
    r_split: float | None = None,
    dtype=np.float64,
    tile: int = DEFAULT_TILE,
    counter: InteractionCounter | None = None,
    exclude_self: bool = False,
) -> np.ndarray:
    """Vectorized pairwise accelerations of targets due to sources.

    Parameters
    ----------
    targets:
        (Nt, dim) positions at which to evaluate the acceleration.
    sources:
        (Ns, dim) source positions (displacements are used as given — the
        caller applies any periodic minimum-image convention first, as the
        tree walk does for its interaction lists).
    source_masses:
        (Ns,) masses.
    g_newton:
        Gravitational constant.
    eps:
        Plummer softening length.
    r_split:
        If given, apply the TreePM short-range truncation with this
        splitting scale.
    dtype:
        float32 mirrors the SVE kernel's single-precision accumulation;
        float64 is the accurate reference.
    tile:
        Source-tile width (memory/bandwidth knob, the SIMD-width analog).
    counter:
        Optional interaction meter.
    exclude_self:
        Skip zero-distance pairs (targets that coincide with sources).

    Returns
    -------
    numpy.ndarray
        (Nt, dim) accelerations, float64.
    """
    targets = np.asarray(targets, dtype=dtype)
    sources = np.asarray(sources, dtype=dtype)
    source_masses = np.asarray(source_masses, dtype=dtype)
    nt, dim = targets.shape
    ns = sources.shape[0]
    eps2 = dtype(eps) ** 2 if eps else dtype(0.0)

    acc = np.zeros((nt, dim), dtype=np.float64)
    for lo in range(0, ns, tile):
        hi = min(lo + tile, ns)
        dx = sources[None, lo:hi, :] - targets[:, None, :]  # (nt, t, dim)
        r2 = (dx * dx).sum(axis=-1) + eps2
        if exclude_self:
            r2 = np.where(r2 <= eps2, np.inf, r2)
        inv_r = 1.0 / np.sqrt(r2)
        w = source_masses[None, lo:hi] * inv_r * inv_r * inv_r  # m / r^3
        if r_split is not None:
            # excluded self-pairs carry r2 = inf; their weight is already
            # zero, so evaluate the truncation at r = 0 there
            r = np.sqrt(np.maximum(np.where(np.isfinite(r2), r2, eps2) - eps2, 0.0))
            w = w * shortrange_factor(r, r_split).astype(dtype)
        acc += (w[..., None] * dx).sum(axis=1, dtype=np.float64)
    if counter is not None:
        counter.add(nt * ns)
    return g_newton * acc


def accel_scalar(
    targets: np.ndarray,
    sources: np.ndarray,
    source_masses: np.ndarray,
    g_newton: float,
    eps: float,
    counter: InteractionCounter | None = None,
    exclude_self: bool = False,
) -> np.ndarray:
    """Pure-Python scalar loop — the "without SIMD instructions" reference.

    Same arithmetic as :func:`accel_batched` (without the TreePM
    truncation), evaluated one pair at a time.  Exists solely so the
    vectorization speedup can be *measured* rather than asserted.
    """
    targets = np.asarray(targets, dtype=np.float64)
    sources = np.asarray(sources, dtype=np.float64)
    source_masses = np.asarray(source_masses, dtype=np.float64)
    nt, dim = targets.shape
    ns = sources.shape[0]
    eps2 = float(eps) ** 2
    acc = np.zeros((nt, dim), dtype=np.float64)
    for i in range(nt):
        ax = [0.0] * dim
        ti = targets[i]
        for j in range(ns):
            r2 = eps2
            d = [0.0] * dim
            for c in range(dim):
                dc = sources[j, c] - ti[c]
                d[c] = dc
                r2 += dc * dc
            if exclude_self and r2 <= eps2:
                continue
            w = source_masses[j] / (r2 * math.sqrt(r2))
            for c in range(dim):
                ax[c] += w * d[c]
        acc[i] = ax
    if counter is not None:
        counter.add(nt * ns)
    return g_newton * acc
