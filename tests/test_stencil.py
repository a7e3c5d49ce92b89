"""Reconstruction-stencil algebra: exact coefficients and properties."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.stencil import (
    SUPPORTED_ORDERS,
    edge_value_coefficients,
    evaluate_flux_coefficients,
    flux_coefficient_polynomials,
)


class TestEdgeCoefficients:
    def test_order1(self):
        assert np.allclose(edge_value_coefficients(1), [1.0])

    def test_order3_classic(self):
        assert np.allclose(edge_value_coefficients(3) * 6, [-1, 5, 2])

    def test_order5_classic(self):
        assert np.allclose(edge_value_coefficients(5) * 60, [2, -13, 47, 27, -3])

    def test_order7_classic(self):
        assert np.allclose(
            edge_value_coefficients(7) * 420, [-3, 25, -101, 319, 214, -38, 4]
        )

    def test_unsupported_order(self):
        with pytest.raises(ValueError):
            flux_coefficient_polynomials(4)


class TestFluxCoefficients:
    @pytest.mark.parametrize("order", SUPPORTED_ORDERS)
    def test_alpha_zero_is_zero_flux(self, order):
        c = evaluate_flux_coefficients(order, np.array(0.0))
        assert np.allclose(c, 0.0)

    @pytest.mark.parametrize("order", SUPPORTED_ORDERS)
    def test_alpha_one_selects_donor(self, order):
        c = evaluate_flux_coefficients(order, np.array(1.0))
        expected = np.zeros(order)
        expected[(order - 1) // 2] = 1.0
        assert np.allclose(c, expected, atol=1e-12)

    @pytest.mark.parametrize("order", SUPPORTED_ORDERS)
    def test_constant_field_flux(self, order):
        # for f == 1 everywhere, phi(alpha) must equal alpha exactly
        for alpha in (0.1, 0.25, 0.5, 0.9):
            c = evaluate_flux_coefficients(order, np.array(alpha))
            assert c.sum() == pytest.approx(alpha, abs=1e-13)

    @pytest.mark.parametrize("order", SUPPORTED_ORDERS)
    def test_linear_field_exact(self, order):
        # reconstruction integrates linear data exactly for order >= 3;
        # for order 1 only constants
        if order == 1:
            return
        # cell averages of f(x) = x on cells centered at offsets m
        r = (order - 1) // 2
        averages = np.arange(-r, r + 1, dtype=np.float64)
        alpha = 0.37
        c = evaluate_flux_coefficients(order, np.array(alpha))
        phi = (c * averages).sum()
        # exact: integral of x over [1/2 - alpha, 1/2]
        exact = 0.5 * (0.25 - (0.5 - alpha) ** 2)
        assert phi == pytest.approx(exact, abs=1e-13)

    def test_quartic_exactness_order5(self):
        # order-5 reconstruction integrates quartic data exactly
        r = 2
        # exact cell averages of f(x) = x^4 over unit cells at offsets m
        def avg(m):
            return (((m + 0.5) ** 5) - ((m - 0.5) ** 5)) / 5.0

        averages = np.array([avg(m) for m in range(-r, r + 1)])
        alpha = 0.61
        c = evaluate_flux_coefficients(5, np.array(alpha))
        phi = (c * averages).sum()
        exact = (0.5**5 - (0.5 - alpha) ** 5) / 5.0
        assert phi == pytest.approx(exact, abs=1e-12)

    def test_vectorized_alpha(self):
        alphas = np.linspace(0, 1, 7).reshape(7, 1)
        c = evaluate_flux_coefficients(5, alphas)
        assert c.shape == (5, 7, 1)
        for i, a in enumerate(alphas.ravel()):
            ci = evaluate_flux_coefficients(5, np.array(a))
            assert np.allclose(c[:, i, 0], ci)

