"""Coefficient computation: quadrature vs closed forms, inversions, identities."""

import math

import numpy as np
import pytest

from evcopula import (
    ParamOutOfRangeError,
    blomqvist,
    compute_coefficients,
    copula_from_pickands,
    dependence_corpus,
    gumbel_closed_form,
    gumbel_dependence,
    gumbel_tau_from_lambda,
    gumbel_theta_from_lambda,
    lambda_upper,
    mix,
    mo_closed_form,
    mo_dependence,
    pareto_closed_form,
    pareto_dependence,
    rho_numeric,
    tau_numeric,
)
from evcopula.rng import make_rng

QUAD_ORACLE_SIZE = 20


class TestRhoNumeric:
    def test_independence(self):
        assert rho_numeric(gumbel_dependence(1.0)) == pytest.approx(0.0, abs=1e-10)

    def test_mo_against_closed_form(self):
        assert rho_numeric(mo_dependence(0.5, 0.5)) == pytest.approx(
            3.0 / 7.0, abs=1e-10
        )

    def test_gumbel_half_tail(self):
        theta = gumbel_theta_from_lambda(0.5)
        assert rho_numeric(gumbel_dependence(theta)) == pytest.approx(0.581, abs=1.5e-3)

    def test_gumbel_large_theta_increasing_below_one(self):
        # the 1/theta-wide corner of A at 1/2 must not fall between nodes
        rhos = [rho_numeric(gumbel_dependence(th)) for th in (500.0, 1e3, 2e3, 5e3, 1e4)]
        assert all(x < y for x, y in zip(rhos, rhos[1:])), rhos
        assert rhos[-1] < 1.0


class TestTauNumeric:
    def test_pareto_tau_equals_tail_coefficient(self):
        assert tau_numeric(pareto_dependence(0.3, 0.2)) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_mo(self):
        assert tau_numeric(mo_dependence(0.5, 0.5)) == pytest.approx(
            1.0 / 3.0, abs=1e-10
        )

    def test_gumbel(self):
        assert tau_numeric(gumbel_dependence(2.0)) == pytest.approx(0.5, abs=1e-8)

    def test_gumbel_closed_form_up_to_huge_theta(self):
        for theta in np.geomspace(1.0001, 1e12, 49):
            got = tau_numeric(gumbel_dependence(float(theta)))
            assert got == pytest.approx(1.0 - 1.0 / theta, abs=1e-10), theta

    def test_mixture(self):
        # tau is not linear in the mixture, so check against an independent
        # quadrature of the mixed copula's own decomposition at a few weights
        f, g = mo_dependence(0.5, 0.5), gumbel_dependence(2.0)
        m = mix(f, g, 1.0)
        assert tau_numeric(m) == pytest.approx(tau_numeric(f), abs=1e-10)
        m = mix(f, g, 0.0)
        assert tau_numeric(m) == pytest.approx(tau_numeric(g), abs=1e-8)


class TestScipyQuadOracle:
    def test_corpus_matches_quad_on_same_panels(self):
        quad = pytest.importorskip("scipy.integrate").quad

        def panelled(f, df):
            edges = (0.0, *df.split_points, 1.0)
            return sum(
                quad(f, a, b, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
                for a, b in zip(edges, edges[1:])
            )

        for seed in range(5):
            for df in dependence_corpus(QUAD_ORACLE_SIZE, seed):

                def tau_integrand(t):
                    a, d = df(t), df.deriv(t)
                    return d * (t * (1.0 - t) * d - (1.0 - 2.0 * t) * a) / (a * a)

                rho = 12.0 * panelled(lambda t: (df(t) + 1.0) ** -2.0, df) - 3.0
                tau = panelled(tau_integrand, df)
                assert rho_numeric(df) == pytest.approx(rho, abs=1e-10), (seed, df)
                assert tau_numeric(df) == pytest.approx(tau, abs=1e-10), (seed, df)


class TestLambda:
    def test_independence(self):
        assert lambda_upper(gumbel_dependence(1.0)) == 0.0

    def test_mo_min_rule(self):
        # A(1/2) = 1 - min(alpha, beta)/2
        assert lambda_upper(mo_dependence(0.7, 0.4)) == pytest.approx(0.4, abs=1e-15)

    def test_gumbel_inverse_consistency(self):
        assert lambda_upper(gumbel_dependence(gumbel_theta_from_lambda(0.8))) == (
            pytest.approx(0.8, abs=1e-12)
        )
        assert lambda_upper(gumbel_dependence(3.802)) == pytest.approx(0.8, abs=5e-4)


class TestBlomqvist:
    def test_tail_relation(self):
        # beta = 2**lambda - 1 via the diagonal law
        cop = copula_from_pickands(mo_dependence(0.5, 0.5))
        assert blomqvist(cop) == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-14)

    def test_extremes(self):
        assert blomqvist(copula_from_pickands(gumbel_dependence(1.0))) == (
            pytest.approx(0.0, abs=1e-15)
        )
        assert blomqvist(copula_from_pickands(mo_dependence(1.0, 1.0))) == (
            pytest.approx(1.0, abs=1e-15)
        )

    def test_identity_across_families(self):
        for i in range(50):
            rng = make_rng(13, i)
            df = [
                mo_dependence(rng.random(), rng.random()),
                gumbel_dependence(1.0 + 8.0 * rng.random()),
                pareto_dependence(0.45 * rng.random(), 0.45 * rng.random()),
            ][i % 3]
            cop = copula_from_pickands(df)
            lam = lambda_upper(df)
            assert blomqvist(cop) == pytest.approx(2.0**lam - 1.0, abs=1e-12)


class TestMoClosedForm:
    def test_symmetric_half(self):
        cs = mo_closed_form(0.5, 0.5)
        assert (cs.rho, cs.tau, cs.lambda_u) == pytest.approx(
            (3.0 / 7.0, 1.0 / 3.0, 0.5), abs=1e-15
        )

    def test_comonotone(self):
        cs = mo_closed_form(1.0, 1.0)
        assert (cs.rho, cs.tau, cs.lambda_u, cs.beta) == (1.0, 1.0, 1.0, 1.0)

    def test_independence_edges(self):
        cs = mo_closed_form(0.8, 0.0)
        assert (cs.rho, cs.tau, cs.lambda_u) == (0.0, 0.0, 0.0)
        cs = mo_closed_form(0.0, 0.0)
        assert (cs.rho, cs.tau) == (0.0, 0.0)

    def test_agreement_with_quadrature(self):
        for i in range(40):
            rng = make_rng(17, i)
            alpha, beta = rng.random(), rng.random()
            cs = mo_closed_form(alpha, beta)
            df = mo_dependence(alpha, beta)
            assert rho_numeric(df) == pytest.approx(cs.rho, abs=1e-8)
            assert tau_numeric(df) == pytest.approx(cs.tau, abs=1e-8)

    def test_range_check(self):
        with pytest.raises(ParamOutOfRangeError):
            mo_closed_form(-0.1, 0.5)


class TestGumbelClosedForm:
    def test_theta_one(self):
        assert gumbel_closed_form(1.0) == (0.0, 0.0)

    def test_table_row(self):
        tau, lam = gumbel_closed_form(2.060)
        assert lam == pytest.approx(0.6, abs=5e-4)

    def test_tau_from_lambda(self):
        want = 1.0 - math.log2(1.5)
        assert gumbel_tau_from_lambda(0.5) == pytest.approx(want, abs=1e-15)
        assert want == pytest.approx(0.415037, abs=1e-6)
        theta = gumbel_theta_from_lambda(0.5)
        assert tau_numeric(gumbel_dependence(theta)) == pytest.approx(want, abs=1e-4)

    def test_range_check(self):
        with pytest.raises(ParamOutOfRangeError):
            gumbel_closed_form(0.5)


class TestGumbelThetaFromLambda:
    def test_known_values(self):
        assert gumbel_theta_from_lambda(0.0) == 1.0
        assert gumbel_theta_from_lambda(0.5) == pytest.approx(1.710, abs=5e-4)
        assert gumbel_theta_from_lambda(0.9) == pytest.approx(7.273, abs=5e-4)

    def test_full_tail_is_infinite(self):
        assert math.isinf(gumbel_theta_from_lambda(1.0))

    def test_round_trip_through_closed_form(self):
        for lam in (0.0, 0.1, 0.45, 0.83, 0.999, 1.0):
            _, back = gumbel_closed_form(gumbel_theta_from_lambda(lam))
            assert back == pytest.approx(lam, abs=1e-12)

    def test_range_check(self):
        with pytest.raises(ParamOutOfRangeError):
            gumbel_theta_from_lambda(-0.2)
        with pytest.raises(ParamOutOfRangeError):
            gumbel_theta_from_lambda(1.2)


class TestParetoClosedForm:
    def test_symmetric_quarter(self):
        rho, tau = pareto_closed_form(0.25, 0.25)
        assert rho == pytest.approx(1.0 - 16.0 * 0.25 / 12.25, abs=1e-15)
        assert tau == 0.5

    def test_asymmetric(self):
        rho, tau = pareto_closed_form(0.5, 0.0)
        assert rho == pytest.approx(0.6, abs=1e-15)
        assert tau == 0.5

    def test_independence(self):
        assert pareto_closed_form(0.0, 0.0) == (0.0, 0.0)

    def test_agreement_with_quadrature(self):
        for i in range(40):
            rng = make_rng(19, i)
            lam, w = rng.random(), rng.random()
            a, b = lam * w, lam * (1.0 - w)
            rho, tau = pareto_closed_form(a, b)
            df = pareto_dependence(a, b)
            assert rho_numeric(df) == pytest.approx(rho, abs=1e-8)
            assert tau_numeric(df) == pytest.approx(tau, abs=1e-10)

    def test_rho_decreases_in_asymmetry(self):
        lam = 0.6
        rhos = [
            pareto_closed_form((lam + nu) / 2.0, (lam - nu) / 2.0)[0]
            for nu in np.linspace(0.0, lam, 13)
        ]
        assert all(x >= y - 1e-15 for x, y in zip(rhos, rhos[1:]))


class TestConcordanceMonotonicity:
    def test_mixing_toward_independence_lowers_rho(self):
        # w*A + (1-w)*1 >= A pointwise, so rho must not increase
        for i in range(20):
            rng = make_rng(23, i)
            df = mo_dependence(rng.random(), rng.random())
            blend = mix(df, gumbel_dependence(1.0), 0.6)
            assert rho_numeric(blend) <= rho_numeric(df) + 1e-10

    def test_envelope_orders_rho(self):
        # A <= MO(lam, lam) pointwise and A >= its tangent family member
        df = gumbel_dependence(2.0)
        lam = lambda_upper(df)
        assert rho_numeric(df) >= rho_numeric(mo_dependence(lam, lam)) - 1e-10
        assert rho_numeric(df) <= rho_numeric(pareto_dependence(lam / 2, lam / 2)) + 1e-10


class TestComputeCoefficients:
    def test_method_tags(self):
        cs = compute_coefficients(mo_dependence(0.5, 0.5))
        assert set(cs.method.values()) == {"closed_form"}
        cs = compute_coefficients(gumbel_dependence(2.0))
        assert cs.method["rho"] == "quadrature"
        assert cs.method["tau"] == "closed_form"
        cs = compute_coefficients(
            mix(mo_dependence(0.5, 0.5), gumbel_dependence(2.0), 0.5)
        )
        assert cs.method["rho"] == "quadrature"
        assert cs.method["tau"] == "quadrature"

    def test_values_match_components(self):
        cs = compute_coefficients(pareto_dependence(0.25, 0.25))
        assert cs.rho == pytest.approx(0.6734693877551021, abs=1e-14)
        assert cs.tau == 0.5
        assert cs.lambda_u == pytest.approx(0.5, abs=1e-14)
        assert cs.beta == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-14)
