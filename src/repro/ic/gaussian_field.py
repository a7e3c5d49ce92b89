"""Gaussian random density fields with a prescribed power spectrum.

The initial conditions of both components start from one realization of
the linear density field delta(x): the CDM particles are displaced by the
Zel'dovich approximation, the neutrino distribution function is modulated
by the (free-streaming-suppressed) same field — using the *same* random
phases, as the paper's "equivalent initial condition" comparisons require
(Figs. 5-6 compare Vlasov and N-body runs from the same realization).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class FourierGrid:
    """k-space geometry of a periodic mesh (rfft layout on the last axis)."""

    n_mesh: tuple[int, ...]
    box_size: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_mesh", tuple(int(n) for n in self.n_mesh))
        if self.box_size <= 0.0:
            raise ValueError("box_size must be positive")

    @property
    def dim(self) -> int:
        """Number of axes."""
        return len(self.n_mesh)

    def k_axes(self) -> tuple[np.ndarray, ...]:
        """Angular wavenumbers per axis, broadcast-shaped."""
        ks = []
        for d, n in enumerate(self.n_mesh):
            spacing = self.box_size / n
            if d == self.dim - 1:
                k = 2.0 * np.pi * np.fft.rfftfreq(n, d=spacing)
            else:
                k = 2.0 * np.pi * np.fft.fftfreq(n, d=spacing)
            shape = [1] * self.dim
            shape[d] = k.size
            ks.append(k.reshape(shape))
        return tuple(ks)

    def k_magnitude(self) -> np.ndarray:
        """|k| on the rfft mesh."""
        return np.sqrt(sum(k**2 for k in self.k_axes()))

    @property
    def volume(self) -> float:
        """Box volume."""
        return self.box_size ** self.dim

    @property
    def n_cells(self) -> int:
        """Total mesh cells."""
        return int(np.prod(self.n_mesh))


def gaussian_field_fourier(
    grid: FourierGrid,
    power: Callable[[np.ndarray], np.ndarray],
    rng: np.random.Generator,
) -> np.ndarray:
    """Fourier modes delta_k of a Gaussian field with spectrum ``power``.

    Uses the white-noise trick: FFT of unit white noise has the right
    Hermitian statistics; scaling by sqrt(P(k) N / V) yields modes whose
    *measured* spectrum (|delta_k|^2 V / N^2) equals P(k) in expectation.

    Returns the rfftn-layout complex array (apply ``np.fft.irfftn`` for
    the real-space field).  The DC mode is zeroed.
    """
    white = rng.standard_normal(grid.n_mesh)
    w_k = np.fft.rfftn(white)
    k = grid.k_magnitude()
    p = np.zeros_like(k)
    nz = k > 0.0
    p[nz] = power(k[nz])
    if np.any(p < 0.0):
        raise ValueError("power spectrum returned negative values")
    delta_k = w_k * np.sqrt(p * grid.n_cells / grid.volume)
    delta_k[(0,) * grid.dim] = 0.0
    return delta_k


def filter_field_fourier(
    delta_k: np.ndarray,
    grid: FourierGrid,
    transfer: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """Multiply Fourier modes by an isotropic transfer function T(|k|).

    Used to derive the neutrino field from the CDM field with the
    free-streaming suppression while keeping identical phases.
    """
    k = grid.k_magnitude()
    t = np.ones_like(k)
    nz = k > 0.0
    t[nz] = transfer(k[nz])
    return delta_k * t


def measure_power(
    delta: np.ndarray,
    box_size: float,
    n_bins: int = 16,
    k_range: tuple[float, float] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bin-averaged power spectrum of a real field.

    Returns ``(k_centers, P(k), mode_counts)`` with the standard estimator
    P = <|delta_k|^2> V / N^2 in spherical k bins (logarithmic).
    """
    n_mesh = delta.shape
    grid = FourierGrid(n_mesh, box_size)
    d_k = np.fft.rfftn(delta)
    k = grid.k_magnitude()
    p_raw = (np.abs(d_k) ** 2) * grid.volume / grid.n_cells**2

    # rfft half-plane: weight the interior modes twice
    weights = np.full(k.shape, 2.0)
    weights[..., 0] = 1.0
    if n_mesh[-1] % 2 == 0:
        weights[..., -1] = 1.0

    k_flat = k.ravel()
    p_flat = (p_raw * weights).ravel()
    w_flat = weights.ravel()
    nz = k_flat > 0.0
    k_flat, p_flat, w_flat = k_flat[nz], p_flat[nz], w_flat[nz]

    if k_range is None:
        k_min = 2.0 * np.pi / box_size * 0.99
        k_max = k_flat.max() * 1.001
    else:
        k_min, k_max = k_range
    edges = np.geomspace(k_min, k_max, n_bins + 1)
    which = np.digitize(k_flat, edges) - 1
    # np.digitize is right-open: a mode exactly on the top edge (an
    # explicit k_range whose max is a grid mode) would land in bin
    # n_bins and vanish; close the last bin instead.
    which[k_flat == edges[-1]] = n_bins - 1
    valid = (which >= 0) & (which < n_bins)
    p_sum = np.bincount(which[valid], weights=p_flat[valid], minlength=n_bins)
    w_sum = np.bincount(which[valid], weights=w_flat[valid], minlength=n_bins)
    k_sum = np.bincount(
        which[valid], weights=(k_flat * w_flat)[valid], minlength=n_bins
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        p_binned = p_sum / w_sum
        k_centers = k_sum / w_sum
    keep = w_sum > 0
    return k_centers[keep], p_binned[keep], w_sum[keep]
