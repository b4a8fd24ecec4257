"""Adaptive quadrature with declared split points."""

import math
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evcopula import (
    NonConvergentError,
    NonFiniteError,
    ParamOutOfRangeError,
    mo_dependence,
)
from evcopula import numerics
from evcopula.errors import check_split_points
from reference import integrate


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
        got = integrate(lambda t: (df.eval_fn(t) + 1.0) ** -2.0, df.split_points)
        assert got == pytest.approx(2.0 / 7.0, abs=1e-12)

    def test_split_points_panelwise(self):
        # kinked integrand: |t - 1/3| + 1; exact integral by triangle areas
        f = lambda t: np.abs(t - 1.0 / 3.0) + 1.0
        exact = 1.0 + (1.0 / 3.0) ** 2 / 2.0 + (2.0 / 3.0) ** 2 / 2.0
        got = integrate(f, (1.0 / 3.0,))
        assert got == pytest.approx(exact, abs=1e-13)

    def test_non_finite_integrand_raises(self):
        f = lambda t: np.where(t < 0.5, np.inf, 1.0)
        with pytest.raises(NonFiniteError):
            integrate(f)

    def test_depth_exhaustion_raises(self):
        # integrable singularity at 0: the panel at 0 never meets the
        # tolerance, so bisection reaches the depth limit
        with pytest.raises(NonConvergentError):
            integrate(lambda t: t**-0.9)

    def test_non_finite_message_names_t_in_bad_region(self):
        # only (0.3, 0.4) is bad; the first level's nodes 0.297 and 0.396 straddle it
        f = lambda t: np.where((t > 0.3) & (t < 0.4), np.nan, 1.0)
        with pytest.raises(NonFiniteError, match=r"at t=") as err:
            integrate(f)
        t = float(re.search(r"at t=(\S+)", str(err.value)).group(1))
        assert 0.3 < t < 0.4

    def test_integrand_rough_at_every_scale_stops(self):
        # every bisection leaves each panel's error estimate near 1e-6 times its
        # width, so nearly every panel is bisected and the level doubles until
        # it reaches the panel cap
        start = time.perf_counter()
        with pytest.raises(NonConvergentError, match=r"stalled on \[.*\] at depth"):
            integrate(lambda t: 1.0 + 1e-6 * np.sin(1e15 * t))
        assert time.perf_counter() - start < 5.0

    def test_spec_validation(self):
        bad_points = [(0.0,), (0.6, 0.4), (0.7, 0.3), (math.nan,), (1.5,), "ab", [[0.2, 0.3]]]
        for bad in bad_points + [0.5, None]:  # the last two are not sequences
            with pytest.raises(ParamOutOfRangeError):
                integrate(lambda t: t, bad)

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
        assert integrate(f, (0.2, 0.7)) == pytest.approx(
            integrate(f), abs=1e-12
        )


class TestIntegrateMany:
    _FS = (
        lambda t: np.exp(t) * np.cos(3.0 * t),
        lambda t: np.sqrt(t),
        lambda t: 1.0 / (1e-4 + (t - 0.37) ** 2),
        lambda t: np.where((t > 0.3) & (t < 0.4), np.nan, 1.0),
        lambda t: t**-0.9,
    )
    _EDGES = [check_split_points(points) for points in ((), (0.5,), (0.2, 0.7), (), ())]

    @classmethod
    def _batch(cls, picks):
        def f(x, rows):
            return np.concatenate([cls._FS[j](x[lo:hi]) for j, lo, hi in zip(picks, rows, rows[1:])])

        return numerics._integrate_many(f, [cls._EDGES[j] for j in picks])

    def test_gk15_values_of_a_panel_do_not_depend_on_the_others(self):
        a = np.sort(np.random.default_rng(3).random(200))
        b = a + 0.01
        f = lambda t: np.exp(np.sin(17.0 * t)) / (1.0 + t)
        kron, err = numerics._gk15(f, a, b)
        alone = [numerics._gk15(f, a[i : i + 1], b[i : i + 1]) for i in range(len(a))]
        assert kron.tolist() == [k[0] for k, _ in alone]
        assert err.tolist() == [e[0] for _, e in alone]

    def test_each_integral_keeps_its_bits_in_any_batch(self):
        alone = [numerics._integrate(self._FS[j], self._EDGES[j]) for j in range(3)]
        for picks in ((0, 1, 2), (2, 1, 0), (1, 1, 2, 0, 0)):
            assert self._batch(picks).tolist() == [alone[j] for j in picks]

    def test_errors_name_the_first_failing_integral_of_the_first_failing_level(self):
        with pytest.raises(NonFiniteError) as alone:
            integrate(self._FS[3])
        with pytest.raises(NonFiniteError) as err:
            self._batch((0, 4, 3))  # the stall of the second would come only at depth 60
        assert str(err.value) == str(alone.value)
        with pytest.raises(NonConvergentError) as alone:
            integrate(self._FS[4])
        with pytest.raises(NonConvergentError) as err:
            self._batch((0, 4, 1))
        assert str(err.value) == str(alone.value)

    def test_panel_cap_holds_per_integral(self, monkeypatch):
        # rho of A = 1 + 0.1 sin(1000 t) takes about 1,000 panels; 200 copies
        # bisect more than 2**16 panels on one level, which one integral may not
        f = lambda t: (2.0 + 0.1 * np.sin(1000.0 * t)) ** -2.0
        edges = check_split_points(())
        gk15, widths = numerics._gk15, []

        def counted(g, a, b):
            widths.append(len(a))
            return gk15(g, a, b)

        monkeypatch.setattr(numerics, "_gk15", counted)
        one = numerics._integrate(f, edges)
        assert 900 < sum(widths) < 1100
        widths.clear()
        many = numerics._integrate_many(lambda x, rows: f(x), [edges] * 200)
        assert max(widths) > numerics._MAX_PANELS
        assert many.tolist() == [one] * 200
