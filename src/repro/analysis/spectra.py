"""Spectral statistics beyond the auto power spectrum.

Cross-spectra and transfer ratios are the working tools of the neutrino
cosmology program the paper serves: the neutrino-mass signature is a
*ratio* of spectra (suppression), and the neutrino-CDM cross-correlation
measures how faithfully the hot component traces the potential wells.

Ratio estimators (:func:`transfer_ratio`, :func:`correlation_coefficient`)
bin every spectrum onto **one shared set of k edges** before dividing.
Binning each field with its own auto-derived edges — the original
behavior — silently broke as soon as the two fields lived on different
meshes: each mesh has a different maximum |k|, so the per-field edges
(and surviving bins) diverged and the ratio was taken between mismatched
k arrays.  The shared edges span the common fundamental mode up to the
*coarser* mesh's k_max, so every bin is populated by both fields.
"""

from __future__ import annotations

import numpy as np

from ..ic.gaussian_field import FourierGrid


def _bin_edges(box_size, k_max, n_bins, k_range):
    """Logarithmic bin edges, auto-spanned unless the caller fixes them."""
    if k_range is None:
        k_min = 2.0 * np.pi / box_size * 0.99
        k_max = k_max * 1.001
    else:
        k_min, k_max = k_range
    return np.geomspace(k_min, k_max, n_bins + 1)


def _digitize(k_flat, edges):
    """Bin assignment with a *closed* top edge.

    ``np.digitize`` is right-open, so a mode sitting exactly on the last
    edge — which happens whenever a caller passes an explicit ``k_range``
    whose max is a grid mode, e.g. ``(k_f, k.max())`` — landed in bin
    ``n_bins`` and was silently dropped.  Fold it into the last bin.
    """
    n_bins = len(edges) - 1
    which = np.digitize(k_flat, edges) - 1
    which[k_flat == edges[-1]] = n_bins - 1
    valid = (which >= 0) & (which < n_bins)
    return which, valid


def _binned_full(k_flat, values, weights, edges):
    """Weighted bin means over *all* bins (empty bins keep zero weight).

    Returns ``(k_mean, v_mean, w_sum)`` of length ``n_bins``; empty bins
    have ``w_sum == 0`` and zeroed means.  Ratio estimators align several
    spectra positionally on this fixed-length form before masking.
    """
    n_bins = len(edges) - 1
    which, valid = _digitize(k_flat, edges)
    v_sum = np.bincount(which[valid], weights=(values * weights)[valid], minlength=n_bins)
    w_sum = np.bincount(which[valid], weights=weights[valid], minlength=n_bins)
    k_sum = np.bincount(which[valid], weights=(k_flat * weights)[valid], minlength=n_bins)
    with np.errstate(divide="ignore", invalid="ignore"):
        k_mean = np.where(w_sum > 0, k_sum / w_sum, 0.0)
        v_mean = np.where(w_sum > 0, v_sum / w_sum, 0.0)
    return k_mean, v_mean, w_sum


def _binned(k_flat, values, weights, box_size, n_bins, k_range):
    edges = _bin_edges(box_size, k_flat.max(), n_bins, k_range)
    k_mean, v_mean, w_sum = _binned_full(k_flat, values, weights, edges)
    keep = w_sum > 0
    return k_mean[keep], v_mean[keep], w_sum[keep]


def _mode_weights(grid: FourierGrid) -> np.ndarray:
    """rfft half-plane multiplicities."""
    k = grid.k_magnitude()
    w = np.full(k.shape, 2.0)
    w[..., 0] = 1.0
    if grid.n_mesh[-1] % 2 == 0:
        w[..., -1] = 1.0
    return w


def _spectrum_modes(
    field_a: np.ndarray, field_b: np.ndarray, box_size: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unbinned cross-spectrum modes: ``(|k|, P_ab(k), multiplicity)``."""
    if field_a.shape != field_b.shape:
        raise ValueError("fields must share a mesh")
    grid = FourierGrid(field_a.shape, box_size)
    a_k = np.fft.rfftn(field_a)
    b_k = a_k if field_b is field_a else np.fft.rfftn(field_b)
    p_raw = np.real(a_k * np.conj(b_k)) * grid.volume / grid.n_cells**2
    w = _mode_weights(grid)
    k = grid.k_magnitude().ravel()
    nz = k > 0
    return k[nz], p_raw.ravel()[nz], w.ravel()[nz]


def cross_power(
    field_a: np.ndarray,
    field_b: np.ndarray,
    box_size: float,
    n_bins: int = 16,
    k_range: tuple[float, float] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bin-averaged cross spectrum P_ab(k) = Re<A B*> V / N^2.

    Returns ``(k, P_ab, mode_counts)``.  For field_a == field_b this
    reduces to :func:`repro.ic.measure_power`.
    """
    k, p, w = _spectrum_modes(field_a, field_b, box_size)
    return _binned(k, p, w, box_size, n_bins, k_range)


def _shared_edges(k_a, k_b, box_size, n_bins, k_range):
    """One edge set both meshes can populate: up to the coarser k_max."""
    return _bin_edges(box_size, min(k_a.max(), k_b.max()), n_bins, k_range)


def correlation_coefficient(
    field_a: np.ndarray,
    field_b: np.ndarray,
    box_size: float,
    n_bins: int = 16,
    k_range: tuple[float, float] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Scale-dependent correlation r(k) = P_ab / sqrt(P_aa P_bb).

    r -> 1 where the fields share phases (the neutrinos tracing CDM on
    large scales), dropping where free streaming decouples them.  All
    three spectra are binned onto the same explicit edges, so the ratio
    is taken bin-by-bin on one aligned k array.
    """
    k_m, p_ab_m, w = _spectrum_modes(field_a, field_b, box_size)
    edges = _shared_edges(k_m, k_m, box_size, n_bins, k_range)
    _, p_aa_m, _ = _spectrum_modes(field_a, field_a, box_size)
    _, p_bb_m, _ = _spectrum_modes(field_b, field_b, box_size)
    k, p_ab, w_sum = _binned_full(k_m, p_ab_m, w, edges)
    _, p_aa, _ = _binned_full(k_m, p_aa_m, w, edges)
    _, p_bb, _ = _binned_full(k_m, p_bb_m, w, edges)
    keep = w_sum > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(keep, p_ab / np.sqrt(np.abs(p_aa * p_bb)), 0.0)
    return k[keep], r[keep]


def transfer_ratio(
    field_num: np.ndarray,
    field_den: np.ndarray,
    box_size: float,
    n_bins: int = 16,
    k_range: tuple[float, float] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """sqrt(P_num / P_den)(k): the amplitude ratio of two fields.

    The neutrino-mass observable: T(k) = sqrt(P(M_nu) / P(0)) exhibits the
    free-streaming suppression step.  The fields may live on *different*
    meshes (the Vlasov neutrino grid vs the PM CDM mesh): both spectra
    are rebinned onto shared edges spanning up to the coarser mesh's
    k_max, and only bins populated by both fields are returned.  The k
    array is the numerator field's weighted mean mode per bin.
    """
    k_n, p_n_m, w_n = _spectrum_modes(field_num, field_num, box_size)
    k_d, p_d_m, w_d = _spectrum_modes(field_den, field_den, box_size)
    edges = _shared_edges(k_n, k_d, box_size, n_bins, k_range)
    k, p_n, w_n_sum = _binned_full(k_n, p_n_m, w_n, edges)
    _, p_d, w_d_sum = _binned_full(k_d, p_d_m, w_d, edges)
    keep = (w_n_sum > 0) & (w_d_sum > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.sqrt(np.abs(p_n) / np.abs(p_d))
    return k[keep], t[keep]
