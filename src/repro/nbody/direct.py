"""Reference gravity: direct summation, minimum image, and Ewald sums.

The TreePM force (PM long-range + tree short-range) must reproduce the
exact periodic Newtonian force.  "Exact" on a torus means the Ewald sum —
the lattice-summed Green's function — which this module provides as the
ground truth for the accuracy tests, alongside cheaper open-boundary and
minimum-image direct sums used by the tree unit tests.
"""

from __future__ import annotations

import math

import numpy as np

from .particles import ParticleSet
from .phantom import accel_batched


def direct_accel_open(
    particles: ParticleSet, g_newton: float, eps: float
) -> np.ndarray:
    """O(N^2) direct sum with open (non-periodic) boundaries."""
    return accel_batched(
        particles.positions,
        particles.positions,
        particles.masses,
        g_newton,
        eps,
        exclude_self=True,
    )


def direct_accel_minimum_image(
    particles: ParticleSet, g_newton: float, eps: float
) -> np.ndarray:
    """O(N^2) direct sum keeping only the nearest periodic image.

    Adequate when forces are dominated by separations << L/2; the Ewald sum
    below is the exact reference.
    """
    pos = particles.positions
    n, dim = pos.shape
    acc = np.zeros((n, dim))
    eps2 = eps**2
    box = particles.box_size
    half = 0.5 * box
    # tile over targets to bound memory
    tile = max(1, int(2.0e7 // max(n, 1)))
    for lo in range(0, n, tile):
        hi = min(lo + tile, n)
        dx = pos[None, :, :] - pos[lo:hi, None, :]
        dx = (dx + half) % box - half
        r2 = (dx * dx).sum(axis=-1) + eps2
        r2[np.arange(hi - lo), np.arange(lo, hi)] = np.inf
        w = particles.masses[None, :] / (r2 * np.sqrt(r2))
        acc[lo:hi] = (w[..., None] * dx).sum(axis=1)
    return g_newton * acc


def ewald_accel(
    particles: ParticleSet,
    g_newton: float,
    eps: float = 0.0,
    alpha: float | None = None,
    n_real: int = 3,
    n_fourier: int = 6,
) -> np.ndarray:
    """Exact periodic gravitational acceleration by Ewald summation (3-D).

    Splits the lattice sum into a real-space part (complementary error
    function screened, summed over ``(2 n_real + 1)^3`` images) and a
    Fourier part (summed over |n| <= n_fourier modes).  With the default
    ``alpha = 2/L`` both sums converge to ~1e-6 relative accuracy.

    Softening is applied only to the central (minimum) image — standard
    practice when eps << L.
    """
    if particles.dim != 3:
        raise ValueError("Ewald summation implemented for 3-D only")
    from scipy.special import erfc  # on use: the run path never sums Ewald

    box = particles.box_size
    if alpha is None:
        alpha = 2.0 / box
    pos = particles.positions
    masses = particles.masses
    n = particles.n
    acc = np.zeros((n, 3))

    # --- real-space sum over images ------------------------------------
    shifts = np.array(
        [
            (ix, iy, iz)
            for ix in range(-n_real, n_real + 1)
            for iy in range(-n_real, n_real + 1)
            for iz in range(-n_real, n_real + 1)
        ],
        dtype=np.float64,
    ) * box
    half = 0.5 * box
    for i in range(n):
        d0 = pos - pos[i]
        d0 = (d0 + half) % box - half  # minimum image in central cell
        # (n_j, n_images, 3)
        d = d0[:, None, :] + shifts[None, :, :]
        r2 = (d * d).sum(axis=-1)
        central = (np.abs(d - d0[:, None, :]).sum(axis=-1) < 1e-12)
        # self-interaction: mask the zero-distance term
        zero = r2 < 1e-24
        r2 = np.where(zero, 1.0, r2)
        r = np.sqrt(r2)
        g = erfc(alpha * r) + (2.0 * alpha * r / math.sqrt(math.pi)) * np.exp(
            -(alpha * r) ** 2
        )
        w = np.where(zero, 0.0, g / (r2 * r))
        if eps > 0.0:
            # soften the central image only (standard when eps << L):
            # keep the erfc screening, Plummer-soften the 1/r^3
            rc = np.sqrt((d0 * d0).sum(axis=-1))
            r2c = rc**2 + eps**2
            r2c[i] = np.inf
            g_c = erfc(alpha * rc) + (
                2.0 * alpha * rc / math.sqrt(math.pi)
            ) * np.exp(-(alpha * rc) ** 2)
            w_central_soft = g_c / (r2c * np.sqrt(r2c))
            w = np.where(central, w_central_soft[:, None], w)
        acc[i] = (masses[:, None, None] * w[..., None] * d).sum(axis=(0, 1))

    # --- Fourier-space sum ----------------------------------------------
    ks = []
    for ix in range(-n_fourier, n_fourier + 1):
        for iy in range(-n_fourier, n_fourier + 1):
            for iz in range(-n_fourier, n_fourier + 1):
                if ix == iy == iz == 0:
                    continue
                if ix * ix + iy * iy + iz * iz > n_fourier * n_fourier:
                    continue
                ks.append((ix, iy, iz))
    kvec = (2.0 * math.pi / box) * np.array(ks, dtype=np.float64)  # (nk, 3)
    k2 = (kvec * kvec).sum(axis=1)
    kernel = (4.0 * math.pi / box**3) * np.exp(-k2 / (4.0 * alpha**2)) / k2

    phase = pos @ kvec.T  # (n, nk)
    s_k = (masses[:, None] * np.exp(-1j * phase)).sum(axis=0)  # structure factor
    # a_i = -sum_k kernel * k * sum_j m_j sin(k.(x_i - x_j))
    #     = -sum_k kernel * k * Im[ exp(i k.x_i) * S_k ]
    field = np.imag(np.exp(1j * phase) * s_k[None, :]) * kernel[None, :]
    acc -= field @ kvec

    return g_newton * acc
