"""Pointwise envelopes, coefficient intervals, and the inequality suite."""

import numpy as np
import pytest

from evcopula import (
    ParamOutOfRangeError,
    blomqvist_from_lambda,
    check_envelope,
    classical_region,
    copula_from_pickands,
    dependence_corpus,
    ev_inequalities,
    gumbel_dependence,
    lambda_from_blomqvist,
    mo_closed_form,
    mo_dependence,
    pareto_closed_form,
    pareto_dependence,
    pointwise_lower,
    pointwise_upper,
    rho_bounds,
    rho_numeric,
    tau_bounds,
    tau_numeric,
    verify_case,
)


class TestPointwiseLower:
    def test_half_tail(self):
        assert pointwise_lower(0.5, 0.25, 0.49) == pytest.approx(0.175, abs=1e-15)

    def test_zero_is_independence(self):
        assert pointwise_lower(0.0, 0.3, 0.7) == pytest.approx(0.21, abs=1e-15)

    def test_one_is_comonotone(self):
        assert pointwise_lower(1.0, 0.3, 0.7) == pytest.approx(0.3, abs=1e-15)

    def test_equals_mo_copula(self):
        cop = copula_from_pickands(mo_dependence(0.4, 0.4))
        pts = np.linspace(0.01, 0.99, 31)
        np.testing.assert_allclose(
            pointwise_lower(0.4, pts[:, None], pts[None, :]),
            cop(pts[:, None], pts[None, :]),
            atol=1e-14,
        )

    def test_range_check(self):
        with pytest.raises(ParamOutOfRangeError):
            pointwise_lower(1.5, 0.5, 0.5)

    @pytest.mark.parametrize("lam", [True, False, np.bool_(True)])
    def test_bool_lambda_rejected(self, lam):
        for fn in (rho_bounds, tau_bounds, blomqvist_from_lambda):
            with pytest.raises(ParamOutOfRangeError):
                fn(lam)
        with pytest.raises(ParamOutOfRangeError):
            pointwise_lower(lam, 0.5, 0.5)


class TestPointwiseUpper:
    def test_diagonal_law_point(self):
        assert pointwise_upper(0.25, 0.25, 0.5, 0.5) == pytest.approx(
            0.5**1.5, abs=1e-15
        )

    def test_zero_is_independence(self):
        assert pointwise_upper(0.0, 0.0, 0.3, 0.7) == pytest.approx(0.21, abs=1e-15)

    def test_three_term_min(self):
        assert pointwise_upper(0.5, 0.0, 0.49, 0.9) == pytest.approx(0.49, abs=1e-15)

    def test_range_check(self):
        with pytest.raises(ParamOutOfRangeError):
            pointwise_upper(0.7, 0.7, 0.5, 0.5)


class TestCheckEnvelope:
    def test_gumbel_no_violations(self):
        env = check_envelope(copula_from_pickands(gumbel_dependence(2.0)), grid=120)
        assert env.max_lower_violation <= 1e-9
        assert env.max_upper_violation <= 1e-9

    def test_lower_bound_tight_for_mo(self):
        cop = copula_from_pickands(mo_dependence(0.55, 0.55))
        env = check_envelope(cop, grid=80)
        assert env.max_lower_violation <= 1e-12
        # equality everywhere: re-evaluating the bound reproduces the copula
        pts = np.linspace(0.0, 1.0, 80)
        np.testing.assert_allclose(
            pointwise_lower(0.55, pts[:, None], pts[None, :]),
            cop(pts[:, None], pts[None, :]),
            atol=1e-13,
        )

    def test_upper_bound_tight_for_tangent_family(self):
        cop = copula_from_pickands(pareto_dependence(0.3, 0.1))
        env = check_envelope(cop, grid=80)
        assert env.max_upper_violation <= 1e-12
        a, b = env.tangent_params
        assert (a, b) == pytest.approx((0.3, 0.1), abs=1e-12)
        pts = np.linspace(0.0, 1.0, 80)
        np.testing.assert_allclose(
            pointwise_upper(a, b, pts[:, None], pts[None, :]),
            cop(pts[:, None], pts[None, :]),
            atol=1e-13,
        )


class TestCoefficientIntervals:
    def test_rho_degenerate_ends(self):
        assert (rho_bounds(0.0).lo, rho_bounds(0.0).hi) == (0.0, 0.0)
        assert (rho_bounds(1.0).lo, rho_bounds(1.0).hi) == (1.0, 1.0)

    def test_rho_half(self):
        iv = rho_bounds(0.5)
        assert iv.lo == pytest.approx(3.0 / 7.0, abs=1e-15)
        assert iv.hi == pytest.approx(1.0 - 16.0 * (0.5 / 3.5) ** 2, abs=1e-15)
        # attaining families quoted in the interval descriptors
        assert "MO" in iv.attained_lo and "Pareto" in iv.attained_hi

    def test_tau_half(self):
        iv = tau_bounds(0.5)
        assert iv.lo == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert iv.hi == 0.5

    def test_tau_degenerate_ends(self):
        assert (tau_bounds(0.0).lo, tau_bounds(0.0).hi) == (0.0, 0.0)
        assert (tau_bounds(1.0).lo, tau_bounds(1.0).hi) == (1.0, 1.0)

    def test_attainment(self):
        for lam in np.linspace(0.1, 0.9, 9):
            ri, ti = rho_bounds(lam), tau_bounds(lam)
            mo = mo_dependence(lam, lam)
            pa = pareto_dependence(lam / 2.0, lam / 2.0)
            assert rho_numeric(mo) == pytest.approx(ri.lo, abs=1e-8)
            assert rho_numeric(pa) == pytest.approx(ri.hi, abs=1e-8)
            assert tau_numeric(mo) == pytest.approx(ti.lo, abs=1e-8)
            assert tau_numeric(pa) == pytest.approx(ti.hi, abs=1e-8)

    def test_interval_endpoints_satisfy_inequalities(self):
        for lam in np.linspace(0.0, 1.0, 21):
            lo_pair = mo_closed_form(lam, lam)
            assert ev_inequalities(lo_pair.rho, lo_pair.tau).passed
            hi_rho, hi_tau = pareto_closed_form(lam / 2.0, lam / 2.0)
            assert ev_inequalities(hi_rho, hi_tau).passed


class TestClassicalRegion:
    def test_zero(self):
        assert classical_region(0.0) == (-0.5, 0.5)

    def test_one(self):
        assert classical_region(1.0) == (1.0, 1.0)

    def test_third(self):
        lo, hi = classical_region(1.0 / 3.0)
        assert lo == pytest.approx(0.0, abs=1e-15)
        assert hi == pytest.approx(7.0 / 9.0, abs=1e-15)

    def test_negative_branch(self):
        lo, hi = classical_region(-0.5)
        assert lo == pytest.approx((0.25 - 1.0 - 1.0) / 2.0, abs=1e-15)
        assert hi == pytest.approx(-0.25, abs=1e-15)


class TestEvInequalities:
    def test_corners(self):
        assert ev_inequalities(0.0, 0.0).passed
        assert ev_inequalities(1.0, 1.0).passed

    def test_mo_makes_trutschnig_tight(self):
        cs = mo_closed_form(0.5, 0.5)
        rep = ev_inequalities(cs.rho, cs.tau)
        assert rep.passed
        assert rep.trutschnig_margin == pytest.approx(0.0, abs=1e-15)

    def test_violating_pair_fails(self):
        rep = ev_inequalities(0.9, 0.2)
        assert not rep.passed


class TestBlomqvistConversion:
    def test_extremes(self):
        assert lambda_from_blomqvist(0.0) == 0.0
        assert lambda_from_blomqvist(1.0) == 1.0

    def test_half(self):
        assert blomqvist_from_lambda(0.5) == pytest.approx(0.41421356237309515, abs=1e-15)

    def test_roundtrip(self):
        for lam in np.linspace(0.0, 1.0, 33):
            assert lambda_from_blomqvist(blomqvist_from_lambda(lam)) == pytest.approx(
                lam, abs=1e-15
            )


class TestRandomizedCorpus:
    def test_deterministic(self):
        a = dependence_corpus(6, seed=11)
        b = dependence_corpus(6, seed=11)
        ts = np.linspace(0.0, 1.0, 101)
        for x, y in zip(a, b):
            assert x.family == y.family
            np.testing.assert_array_equal(x(ts), y(ts))

    def test_containment_and_envelope(self):
        for df in dependence_corpus(80, seed=2):
            rep = verify_case(df, envelope_grid=100)
            assert rep["passed"], (df.family, rep["margins"])

    def test_tangent_family_dominance(self):
        # members with the same tail coefficient are mutually incomparable
        lam = 0.5
        pts = np.linspace(0.02, 0.98, 60)
        uu, vv = pts[:, None], pts[None, :]
        pairs = [((0.25, 0.25), (0.4, 0.1)), ((0.25, 0.25), (0.5, 0.0)), ((0.4, 0.1), (0.1, 0.4))]
        for (a1, b1), (a2, b2) in pairs:
            c1 = pointwise_upper(a1, b1, uu, vv)
            c2 = pointwise_upper(a2, b2, uu, vv)
            assert float((c1 - c2).max()) > 1e-6
            assert float((c2 - c1).max()) > 1e-6
