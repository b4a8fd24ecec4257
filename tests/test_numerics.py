"""Adaptive quadrature with declared split points."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evcopula import (
    NonConvergentError,
    NonFiniteError,
    QuadratureSpec,
    integrate,
    mo_dependence,
)


class TestIntegrate:
    def test_constant(self):
        assert integrate(lambda t: np.ones_like(t)) == pytest.approx(1.0, abs=1e-14)

    def test_scalar_returning_integrand(self):
        assert integrate(lambda t: 0.7) == pytest.approx(0.7, abs=1e-14)

    def test_rational_antiderivative(self):
        # antiderivative of 1/(2-t)^2 is 1/(2-t): value 1/1 - 1/2
        got = integrate(lambda t: (2.0 - t) ** -2.0)
        assert got == pytest.approx(0.5, abs=1e-13)

    def test_polynomial_exactness_of_rule(self):
        # a 15-point Kronrod rule integrates degree-13 polynomials in one panel
        got = integrate(lambda t: 14.0 * t**13)
        assert got == pytest.approx(1.0, abs=5e-15)

    def test_mo_spearman_integrand(self):
        # oracle: rational closed form of the Marshall-Olkin Spearman rho,
        # rho = 3ab/(2a - ab + 2b) = 3/7 at a = b = 1/2, so the integral
        # of 1/(A(t)+1)^2 must equal (rho + 3)/12 = 2/7
        df = mo_dependence(0.5, 0.5)
        spec = QuadratureSpec(split_points=df.split_points)
        got = integrate(lambda t: (df.eval_fn(t) + 1.0) ** -2.0, spec)
        assert got == pytest.approx(2.0 / 7.0, abs=1e-12)

    def test_split_points_panelwise(self):
        # kinked integrand: |t - 1/3| + 1; exact integral by triangle areas
        f = lambda t: np.abs(t - 1.0 / 3.0) + 1.0
        exact = 1.0 + (1.0 / 3.0) ** 2 / 2.0 + (2.0 / 3.0) ** 2 / 2.0
        got = integrate(f, QuadratureSpec(split_points=(1.0 / 3.0,)))
        assert got == pytest.approx(exact, abs=1e-13)

    def test_non_finite_integrand_raises(self):
        f = lambda t: np.where(t < 0.5, np.inf, 1.0)
        with pytest.raises(NonFiniteError):
            integrate(f)

    def test_depth_exhaustion_raises(self):
        f = lambda t: np.sin(200.0 * np.pi * t) ** 2
        with pytest.raises(NonConvergentError):
            integrate(f, QuadratureSpec(max_depth=2))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(abs_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(split_points=(0.0,))
        with pytest.raises(ValueError):
            QuadratureSpec(split_points=(0.6, 0.4))

    @given(
        coeffs_f=st.lists(st.floats(-4, 4), min_size=1, max_size=4),
        coeffs_g=st.lists(st.floats(-4, 4), min_size=1, max_size=4),
        a=st.floats(-3, 3),
        b=st.floats(-3, 3),
    )
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_linearity(self, coeffs_f, coeffs_g, a, b):
        f = lambda t: np.polyval(coeffs_f, t)
        g = lambda t: np.polyval(coeffs_g, t)
        combined = integrate(lambda t: a * f(t) + b * g(t))
        separate = a * integrate(f) + b * integrate(g)
        assert combined == pytest.approx(separate, abs=1e-9 * (1 + abs(a) + abs(b)))

    def test_splits_equal_sum_of_panels(self):
        f = lambda t: np.exp(t) * np.cos(3.0 * t)
        assert integrate(f, QuadratureSpec(split_points=(0.2, 0.7))) == pytest.approx(
            integrate(f), abs=1e-12
        )
