"""Coefficient computation: quadrature vs closed forms, inversions, identities."""

import dataclasses
import math

import numpy as np
import pytest

from evcopula import (
    DependenceFunction,
    NonFiniteError,
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
from evcopula import numerics
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


# Gumbel (rho, tau) near independence, at the double theta of each key.  rho
# is 12 * mpmath.quad((A + 1)^-2) - 3 at 50 digits, over the panels that end
# at 1/2, 4^-k and 1 - 4^-k (k = 1..20), with A = M (1 + r^theta)^(1/theta),
# M = max(t, 1-t) and r = min(t, 1-t) / M; tau is 1 - 1/theta at 50 digits,
# which mpmath.quad of the tau integrand over the same panels matches to 1e-49.
_GUMBEL_MPMATH = {
    1.00000001: (1.499999974796788382720125e-8, 9.999999839225292506272665e-9),
    1.0001: (1.499839144436545005151601e-4, 9.999000099988899878894794e-5),
    1.01: (0.01484056810121132734685806, 0.00990099009900990969687697),
    1.5: (0.4766611555985565603782422, 0.3333333333333333333333333),
    1.99: (0.6793863563727820257129052, 0.4974874371859296459983879),
}


class TestGumbelNearIndependence:
    @pytest.mark.parametrize("theta", list(_GUMBEL_MPMATH))
    def test_rho_and_tau_match_mpmath(self, theta):
        rho, tau = _GUMBEL_MPMATH[theta]
        df = gumbel_dependence(theta)
        assert rho_numeric(df) == pytest.approx(rho, rel=0, abs=1e-15)
        assert tau_numeric(df) == pytest.approx(tau, rel=0, abs=1e-15)

    def test_tau_takes_at_most_two_levels_below_theta_two(self, monkeypatch):
        # the ends' panels are graded from the first level on, so the
        # unbounded slope of r^(theta-1) at t = 0 and 1 bisects nothing
        gk15, calls = numerics._gk15, []

        def counted(*args):
            calls.append(1)
            return gk15(*args)

        monkeypatch.setattr(numerics, "_gk15", counted)
        for theta in (1.0 + 1e-12, 1.00000001, 1.0001, 1.01, 1.03, 1.2, 1.5, 1.99, 2.0 - 1e-9):
            calls.clear()
            tau_numeric(gumbel_dependence(theta))
            assert len(calls) <= 2, (theta, len(calls))


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

    @pytest.mark.parametrize("a_half", [math.nan, math.inf, -math.inf])
    def test_non_finite_a_at_half_raises(self, a_half):
        # the clamp to [0, 1] let NaN through as lambda and read +-inf as 0 or 1
        df = DependenceFunction(
            "x", {}, (), lambda t: np.full(np.shape(t), a_half), lambda t, side: np.zeros(np.shape(t))
        )
        with pytest.raises(NonFiniteError, match=r"at t=0\.5"):
            lambda_upper(df)
        with pytest.raises(NonFiniteError, match=r"at t=0\.5"):
            compute_coefficients(df)


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

    def test_sum_just_past_one_gives_tau_one(self):
        # the parameter check lets a + b pass 1 by up to 1e-12; tau must not
        assert pareto_closed_form(0.5, 0.5 + 5e-13) == (1.0, 1.0)

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

    @pytest.mark.parametrize("label", ["gumbel over mo", "mo with other params", "mo over gumbel"])
    def test_a_family_its_builder_does_not_rebuild_is_only_a_label(self, label):
        # the closed form was picked by family and params alone: Gumbel theta = 3 has tau 2/3,
        # where tau_numeric of the MO (0.4, 0.6) under that label gives 0.3158
        mo, gumbel = mo_dependence(0.4, 0.6), gumbel_dependence(2.0)
        over_mo = {"split_points": mo.split_points, "eval_fn": mo.eval_fn, "deriv_fn": mo.deriv_fn}
        df = {
            "gumbel over mo": lambda: DependenceFunction("gumbel", {"theta": 3.0}, **over_mo),
            "mo with other params": lambda: DependenceFunction(
                "marshall_olkin", {"alpha": 0.9, "beta": 0.9}, **over_mo
            ),
            "mo over gumbel": lambda: dataclasses.replace(
                mo, split_points=gumbel.split_points, eval_fn=gumbel.eval_fn, deriv_fn=gumbel.deriv_fn
            ),
        }[label]()
        _assert_quadrature_only(df)

    def test_builds_keep_their_closed_forms(self):
        builds = [
            *(df for df in dependence_corpus(200, 0) if df.family in ("marshall_olkin", "pareto", "gumbel")),
            mo_dependence(0.0, 0.0), mo_dependence(1.0, 1e-13), pareto_dependence(0.5, 0.5),
            pareto_dependence(1e-300, 0.5), gumbel_dependence(1.0), gumbel_dependence(1e12),
        ]
        assert len(builds) > 100
        for df in builds:
            assert compute_coefficients(df).method["tau"] == "closed_form", df

    @pytest.mark.parametrize(
        "build, name, value",
        [
            (lambda: mo_dependence(0.3, 0.6), "alpha", 0.9),
            (lambda: pareto_dependence(0.3, 0.2), "b", 0.6),
            (lambda: gumbel_dependence(2.0), "theta", 3.0),
        ],
        ids=["mo alpha", "tangent b", "gumbel theta"],
    )
    def test_params_edited_in_place_keep_the_closed_form_of_the_build(self, build, name, value):
        # params is read-only, and the closed form reads the floats the builder checked
        df = build()
        with pytest.raises(TypeError):
            df.params[name] = value
        cs = compute_coefficients(df)
        assert cs == compute_coefficients(build())
        assert cs.method["tau"] == "closed_form"


def _assert_quadrature_only(df):
    cs = compute_coefficients(df)
    assert (cs.rho, cs.tau, cs.lambda_u) == (rho_numeric(df), tau_numeric(df), lambda_upper(df))
    assert cs.beta == 2.0**cs.lambda_u - 1.0
    assert cs.method == {
        "rho": "quadrature", "tau": "quadrature", "lambda": "closed_form", "beta": "closed_form"
    }


@pytest.mark.parametrize(
    "family, params",
    [("marshall_olkin", {"alpha": 0.3}), ("pareto", {"a": 0.3}), ("gumbel", {})],
    ids=[
        'compute_coefficients(marshall_olkin, {"alpha": .3})',
        'compute_coefficients(pareto, {"a": .3})',
        "compute_coefficients(gumbel, {})",
    ],
)
def test_label_only(family, params):
    # params that miss a closed form's parameter, over the A and A' of the MO (0.3, 0.6): once
    # rejected because the builder was re-run with a missing parameter, now answered by quadrature
    mo = mo_dependence(0.3, 0.6)
    _assert_quadrature_only(DependenceFunction(family, params, (), mo.eval_fn, mo.deriv_fn))
