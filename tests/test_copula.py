"""Copula evaluation, conditional distribution, transforms, structural checks."""

import math

import numpy as np
import pytest

from evcopula import (
    ParamOutOfRangeError,
    check_max_stability,
    check_two_increasing,
    copula_from_pickands,
    gumbel_dependence,
    mix,
    mo_dependence,
    pareto_dependence,
)
from evcopula.rng import make_rng
from reference import diag_exponent, partial_u, survival

IND = copula_from_pickands(gumbel_dependence(1.0))
MO_HALF = copula_from_pickands(mo_dependence(0.5, 0.5))


def _family_zoo():
    return [
        MO_HALF,
        copula_from_pickands(mo_dependence(0.8, 0.3)),
        copula_from_pickands(gumbel_dependence(2.0)),
        copula_from_pickands(pareto_dependence(0.3, 0.15)),
        copula_from_pickands(
            mix(mo_dependence(0.6, 0.6), gumbel_dependence(3.0), 0.4)
        ),
        IND,
    ]


class TestEvaluation:
    def test_diagonal_value(self):
        # lambda = 1/2, so C(u, u) = u**1.5
        assert MO_HALF(0.25, 0.25) == pytest.approx(0.125, abs=1e-15)

    def test_independence(self):
        assert IND(0.3, 0.7) == pytest.approx(0.21, abs=1e-15)

    def test_mo_closed_form_oracle(self):
        # oracle: direct evaluation of min(u**(1-a) v, u v**(1-b))
        u, v = 0.25, 0.49
        want = min(u**0.5 * v, u * v**0.5)
        assert MO_HALF(u, v) == pytest.approx(want, abs=1e-15)
        assert want == pytest.approx(0.175, abs=1e-15)
        rng = make_rng(11)
        uu, vv = rng.random(500), rng.random(500)
        np.testing.assert_allclose(
            MO_HALF(uu, vv),
            np.minimum(uu**0.5 * vv, uu * vv**0.5),
            atol=1e-14,
        )

    def test_boundaries(self):
        for cop in _family_zoo():
            assert cop(0.37, 1.0) == 0.37
            assert cop(1.0, 0.7) == 0.7
            assert cop(0.0, 0.5) == 0.0
            assert cop(0.5, 0.0) == 0.0
            assert cop(1.0, 1.0) == 1.0

    @pytest.mark.parametrize(
        "u, v", [(math.nan, 0.5), (0.5, math.nan), ([0.5, 0.7], [0.2, math.nan])]
    )
    def test_nan_rejected(self, u, v):
        for cop in _family_zoo():
            with pytest.raises(ParamOutOfRangeError):
                cop(u, v)

    def test_off_unit_square_clamped(self):
        # C = clip(min(u, v), 0, 1) off the open unit square; a copula never exceeds 1
        for cop in _family_zoo():
            assert cop(2.0, 2.0) == 1.0
            assert cop(1.5, 1.0) == 1.0
            assert cop(1.5, 0.4) == 0.4
            assert cop(-0.5, 3.0) == 0.0
            np.testing.assert_array_equal(
                cop([2.0, 0.3, 1.0, 5.0], [1.0, 7.0, -1.0, 0.6]), [1.0, 0.3, 0.0, 0.6]
            )

    @pytest.mark.parametrize(
        "u, v", [([0.2, 0.5], [0.1, 0.2, 0.3]), (True, 0.5), (0.5, np.False_), ("0.5", 0.5)]
    )
    def test_mismatched_or_non_real_arguments_rejected(self, u, v):
        for cop in _family_zoo():
            with pytest.raises(ParamOutOfRangeError):
                cop(u, v)

    def test_diag_exponent(self):
        assert diag_exponent(MO_HALF) == pytest.approx(1.5, abs=1e-15)

    def test_frechet_bounds(self):
        pts = np.linspace(0.0, 1.0, 41)
        uu, vv = pts[:, None], pts[None, :]
        for cop in _family_zoo():
            c = cop(uu, vv)
            assert np.all(c <= np.minimum(uu, vv) + 1e-12)
            assert np.all(c >= np.maximum(uu + vv - 1.0, 0.0) - 1e-12)

    def test_pickands_roundtrip(self):
        # A(t) = -ln C(e^{-(1-t)}, e^{-t}) recovers the inducing function
        ts = np.linspace(0.0, 1.0, 201)
        for cop in _family_zoo():
            recovered = -np.log(cop(np.exp(-(1.0 - ts)), np.exp(-ts)))
            np.testing.assert_allclose(recovered, cop.dependence(ts), atol=1e-12)


class TestPartialU:
    def test_independence_gives_v(self):
        assert partial_u(IND, 0.4, 0.7) == pytest.approx(0.7, abs=1e-15)

    def test_comonotone_indicator(self):
        cop = copula_from_pickands(mo_dependence(1.0, 1.0))
        assert partial_u(cop, 0.3, 0.6) == pytest.approx(1.0, abs=1e-12)
        assert partial_u(cop, 0.6, 0.3) == pytest.approx(0.0, abs=1e-12)

    def test_gumbel_closed_value(self):
        # at u = v = 1/2 the symmetric Gumbel(2) has A'(1/2) = 0, so
        # dC/du = (C/u) A(1/2) = 2**(1/2 - sqrt(2))
        cop = copula_from_pickands(gumbel_dependence(2.0))
        assert partial_u(cop, 0.5, 0.5) == pytest.approx(
            2.0 ** (0.5 - math.sqrt(2.0)), abs=1e-14
        )

    def test_finite_difference_oracle(self):
        h = 1e-6
        rng = make_rng(21)
        for cop in _family_zoo():
            df = cop.dependence
            kink_ts = [
                k for k in df.split_points if df.deriv(k, "left") != df.deriv(k, "right")
            ]
            for _ in range(40):
                u = 0.05 + 0.9 * rng.random()
                v = 0.05 + 0.9 * rng.random()
                t = math.log(v) / math.log(u * v)
                if any(abs(t - k) < 1e-3 for k in kink_ts):
                    continue  # FD straddles the jump curve there
                fd = (cop(u + h, v) - cop(u - h, v)) / (2.0 * h)
                assert partial_u(cop, u, v) == pytest.approx(fd, abs=1e-5)

    def test_right_continuous_and_monotone_in_v(self):
        cop = copula_from_pickands(mo_dependence(0.5, 0.5))
        u = 0.3
        vs = np.linspace(1e-6, 1.0, 2001)
        f = partial_u(cop, u, vs)
        assert np.all(np.diff(f) >= -1e-12)
        # at the jump curve v = u**(alpha/beta) the right limit is returned
        vjump = u ** (0.5 / 0.5)
        eps = 1e-9
        assert partial_u(cop, u, vjump) == pytest.approx(
            partial_u(cop, u, vjump + eps), abs=1e-6
        )
        assert partial_u(cop, u, vjump) > partial_u(cop, u, vjump - eps) + 0.1

    def test_range(self):
        rng = make_rng(5)
        u, v = rng.random(1000), rng.random(1000)
        u = np.maximum(u, 1e-12)
        for cop in _family_zoo():
            p = partial_u(cop, u, v)
            assert np.all((p >= 0.0) & (p <= 1.0))

    @pytest.mark.parametrize("u, v", [(math.nan, 0.5), (0.5, math.nan), ([0.5, 0.7], [0.2, math.nan])])
    def test_nan_rejected(self, u, v):
        for cop in (MO_HALF, copula_from_pickands(gumbel_dependence(2.0))):
            with pytest.raises(ParamOutOfRangeError):
                partial_u(cop, u, v)

    @pytest.mark.parametrize(
        "u, v", [([0.2, 0.5], [0.1, 0.2, 0.3]), (True, 0.5), (0.5, np.True_), ("0.5", 0.5)]
    )
    def test_mismatched_or_non_real_arguments_rejected(self, u, v):
        for cop in (MO_HALF, copula_from_pickands(gumbel_dependence(2.0))):
            with pytest.raises(ParamOutOfRangeError):
                partial_u(cop, u, v)

    def test_v_off_unit_interval(self):
        for cop in _family_zoo():
            p = partial_u(cop, 0.5, [-1.0, 0.0, 1.0, 2.0])
            np.testing.assert_array_equal(p, [0.0, 0.0, 1.0, 1.0])

    def test_out_of_range_u_rejected(self):
        for u in (0.0, -0.5, 1.5):
            with pytest.raises(ParamOutOfRangeError):
                partial_u(MO_HALF, u, 0.5)


class TestSurvival:
    def test_independence_self_survival(self):
        assert survival(IND, 0.3, 0.7) == pytest.approx(0.21, abs=1e-15)

    def test_boundary(self):
        assert survival(MO_HALF, 1.0, 0.4) == pytest.approx(0.4, abs=1e-15)

    def test_mo_median_point(self):
        # u + v - 1 = 0 leaves exactly C(1/2, 1/2) = 0.5**1.5
        assert survival(MO_HALF, 0.5, 0.5) == pytest.approx(
            0.5**1.5, abs=1e-14
        )

    def test_involution(self):
        rng = make_rng(31)
        u, v = rng.random(200), rng.random(200)
        for cop in _family_zoo():
            twice = survival(lambda x, y: survival(cop, x, y), u, v)
            np.testing.assert_allclose(twice, cop(u, v), atol=1e-14)

    def test_nan_rejected(self):
        with pytest.raises(ParamOutOfRangeError):
            survival(MO_HALF, math.nan, 0.5)

    @pytest.mark.parametrize("u, v", [(math.nan, 0.5), (0.5, [0.2, math.nan])])
    def test_nan_rejected_for_any_evaluator(self, u, v):
        # the evaluator does no checks of its own
        with pytest.raises(ParamOutOfRangeError):
            survival(lambda x, y: x * y, u, v)


class TestStructuralChecks:
    def test_max_stability_all_families(self):
        for cop in _family_zoo():
            assert check_max_stability(cop, seed=3) <= 1e-12

    def test_two_increasing(self):
        for cop in _family_zoo():
            assert check_two_increasing(cop) >= -1e-12

    def test_diagonal_law_random_parameters(self):
        us = np.linspace(1e-3, 1.0, 101)
        for i in range(100):
            rng = make_rng(7, i)
            df = [
                mo_dependence(rng.random(), rng.random()),
                gumbel_dependence(1.0 + 10.0 * rng.random()),
                pareto_dependence(0.4 * rng.random(), 0.4 * rng.random()),
            ][i % 3]
            cop = copula_from_pickands(df)
            lam = 2.0 * (1.0 - df(0.5))
            np.testing.assert_allclose(
                cop(us, us), us ** (2.0 - lam), atol=1e-12
            )
