"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cosmology import Cosmology


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG; reseed per test for reproducibility."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def cosmo() -> Cosmology:
    """The paper's fiducial cosmology (M_nu = 0.4 eV)."""
    return Cosmology(m_nu_total_ev=0.4)


@pytest.fixture(scope="session")
def cosmo_light() -> Cosmology:
    """The 0.2 eV variant of Fig. 4."""
    return Cosmology(m_nu_total_ev=0.2)


def cell_averages(func_primitive, n: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
    """Exact cell averages of a function given its primitive."""
    edges = np.linspace(lo, hi, n + 1)
    dx = (hi - lo) / n
    prim = func_primitive(edges)
    return (prim[1:] - prim[:-1]) / dx


def sine_primitive(x: np.ndarray) -> np.ndarray:
    """Primitive of 2 + sin(2 pi x) (positive smooth periodic profile)."""
    return 2.0 * x - np.cos(2.0 * np.pi * x) / (2.0 * np.pi)


def adversarial_fields(shape, dtype):
    """``(name, f)`` inputs on which a limiter rewrite could change bits:
    signed data, exact and negative zeros, integer ties, sub-normals,
    constants and steps beside ordinary positive data."""
    rng = np.random.default_rng(11)
    yield "positive", (0.5 + rng.random(shape)).astype(dtype)
    signed = rng.standard_normal(shape).astype(dtype)
    yield "signed", signed
    zeros = signed.copy()
    zeros[rng.random(shape) < 0.3] = 0.0
    zeros[rng.random(shape) < 0.2] = -0.0
    yield "zeros", zeros
    yield "all_zero", np.zeros(shape, dtype)
    yield "all_negative_zero", np.full(shape, -0.0, dtype)
    yield "integer_ties", rng.integers(-2, 3, shape).astype(dtype)
    tiny = (rng.integers(-3, 4, shape) * 1e-42).astype(np.float32)
    yield "subnormal", tiny.astype(dtype)
    yield "constant", np.full(shape, 1.25, dtype)
    step = np.zeros(shape, dtype)
    step[..., shape[-1] // 3 : 2 * shape[-1] // 3] = 1.0
    step[: shape[0] // 2] += 1.0
    yield "step", step


def mixed_sign_shifts(shape, axis):
    """``(name, shift)`` fields whose sign changes from row to row:
    |shift| < 1; |shift| <= 3.3; rows of exact ``0.0``, ``-0.0`` and
    whole cells; a shift varying along two non-adjacent axes only."""
    rng = np.random.default_rng(5)
    full = list(shape)
    full[axis] = 1
    yield "below_one", (rng.random(full) - 0.5) * 1.98
    yield "cfl_3.3", (rng.random(full) - 0.5) * 6.6
    exact = (rng.random(full) - 0.5) * 3.0
    for value, share in ((0.0, 0.2), (-0.0, 0.2), (1.0, 0.1), (-2.0, 0.1)):
        exact[rng.random(full) < share] = value
    yield "exact_rows", exact
    others = [a for a in range(len(shape)) if a != axis]
    apart = [1] * len(shape)
    for a in (others[0], others[-1]):
        apart[a] = shape[a]
    yield "two_axes", (rng.random(apart) - 0.5) * 4.0
