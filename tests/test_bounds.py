"""Pointwise envelopes, coefficient intervals, and the inequality suite."""

import math

import numpy as np
import pytest

from evcopula import (
    DependenceFunction,
    NonConvergentError,
    NonFiniteError,
    ParamOutOfRangeError,
    check_envelope,
    copula_from_pickands,
    dependence_corpus,
    ev_inequalities,
    gumbel_dependence,
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
from evcopula import bounds, coefficients
from reference import blomqvist_from_lambda, classical_region, lambda_from_blomqvist


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


@pytest.mark.parametrize(
    "u, v",
    [
        (math.nan, 0.5),
        (0.5, math.nan),
        (2.0, 0.5),
        (0.5, -0.1),
        ([0.5, math.nan], 0.5),
        ([0.1, 0.2], [0.1, 0.2, 0.3]),  # shapes that do not broadcast
    ],
)
def test_pointwise_envelopes_need_u_v_in_unit_interval(u, v):
    with pytest.raises(ParamOutOfRangeError):
        pointwise_lower(0.5, u, v)
    with pytest.raises(ParamOutOfRangeError):
        pointwise_upper(0.2, 0.3, u, v)


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
        # MO (lam, lam) and the tangent family (lam/2, lam/2) sit on the bounds to a few
        # ulps, also where a kink lies within 1e-12 of an end or of the other kink
        for lam in [*np.linspace(0.0, 1.0, 201), 1e-13, 2e-12, 1.0 - 1e-13]:
            ri, ti = rho_bounds(lam), tau_bounds(lam)
            mo = mo_dependence(lam, lam)
            pa = pareto_dependence(lam / 2.0, lam / 2.0)
            assert rho_numeric(mo) == pytest.approx(ri.lo, abs=2e-15), lam
            assert rho_numeric(pa) == pytest.approx(ri.hi, abs=2e-15), lam
            assert tau_numeric(mo) == pytest.approx(ti.lo, abs=2e-15), lam
            assert tau_numeric(pa) == pytest.approx(ti.hi, abs=2e-15), lam

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


def test_envelope_t_grid_is_built_once_and_read_only():
    t = bounds._t_grid(200)
    assert bounds._t_grid(200) is t
    assert t.tobytes() == np.linspace(0.0, 1.0, 16 * 199 + 1).tobytes()
    with pytest.raises(ValueError):
        t[0] = 0.5


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

    @pytest.mark.parametrize(
        "bad_t, split_points",
        [(np.linspace(0.0, 1.0, 3185)[3], ()), (0.3, (0.3,))],
        ids=["grid_point", "split_point"],
    )
    def test_nan_in_a_fails(self, bad_t, split_points):
        # A == 1 but NaN at one point of the envelope check: a grid point of
        # envelope grid 200, or a declared split point off that grid
        df = DependenceFunction(
            family="broken",
            params={},
            split_points=split_points,
            eval_fn=lambda t: np.where(t == bad_t, np.nan, 1.0),
            deriv_fn=lambda t, side: np.zeros(np.shape(t)),
        )
        rep = verify_case(df, envelope_grid=200)
        assert math.isnan(rep["envelope"].max_lower_violation)
        assert math.isnan(rep["envelope"].max_upper_violation)
        assert rep["passed"] is False

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


def _bits(values) -> bytes:
    return np.array(values, dtype=float).tobytes()


def _hand_built(eval_fn, deriv_fn=lambda t, side: np.zeros(np.shape(t))):
    return DependenceFunction("hand_built", {}, (), eval_fn, deriv_fn)


class TestVerifyMany:
    """``_verify_many`` integrates rho and tau of all its cases in one batch."""

    @pytest.mark.parametrize("seed", range(4))
    def test_reports_do_not_depend_on_the_batch(self, seed):
        # a function with no split points starts alone on one panel
        smooth = _hand_built(lambda t: 1.0 - 0.2 * t * (1.0 - t), lambda t, side: 0.4 * t - 0.2)
        cases = dependence_corpus(500, seed) + [smooth, gumbel_dependence(1.0), mo_dependence(0.0, 0.5)]
        reports = bounds._verify_many(cases)
        got = [(rep["rho"], rep["tau"]) for rep in reports]
        assert _bits(got) == _bits([(rho_numeric(df), tau_numeric(df)) for df in cases])
        assert bounds._verify_many(cases[::-1])[::-1] == reports
        assert bounds._verify_many(cases[:250]) + bounds._verify_many(cases[250:]) == reports
        assert [verify_case(df) for df in cases] == reports

    @pytest.mark.parametrize(
        "bad",
        [
            _hand_built(lambda t: np.full(np.shape(t), np.nan)),  # lambda_upper reads A(1/2) first
            _hand_built(lambda t: np.where((t > 0.3) & (t < 0.4), np.nan, 1.0)),  # the first level finds it
        ],
        ids=["nan_everywhere", "nan_on_0.3_0.4"],
    )
    def test_non_finite_case_in_a_batch_raises_its_own_error(self, bad):
        cases = dependence_corpus(40, 0)
        with pytest.raises(NonFiniteError) as alone:
            verify_case(bad)
        with pytest.raises(NonFiniteError) as batch:
            bounds._verify_many(cases[:20] + [bad] + cases[20:])
        assert str(batch.value) == str(alone.value)

    def test_batch_raises_the_error_a_loop_of_verify_case_meets_first(self):
        # tau of the third case stalls at depth 60, after the first level
        # has found the NaN of the sixth; a loop of verify_case meets the
        # stall first
        stall = _hand_built(lambda t: np.ones(np.shape(t)), lambda t, side: t**-0.95)
        nan = _hand_built(lambda t: np.where((t > 0.3) & (t < 0.4), np.nan, 1.0))
        cases = dependence_corpus(6, 1)
        batch = cases[:2] + [stall] + cases[2:4] + [nan] + cases[4:]
        with pytest.raises(NonFiniteError):
            coefficients._quadrature(batch)
        with pytest.raises(NonConvergentError) as alone:
            verify_case(stall)
        with pytest.raises(NonConvergentError) as err:
            bounds._verify_many(batch)
        assert str(err.value) == str(alone.value)

    def test_a_failed_batch_returns_the_reports_of_a_verify_case_loop(self, monkeypatch):
        def stall(dfs):
            raise NonConvergentError("the batch stalled")

        cases = dependence_corpus(20, 0)
        monkeypatch.setattr(bounds, "_quadrature", stall)
        assert bounds._verify_many(cases) == [verify_case(df) for df in cases]

    def test_one_case_raises_the_rho_error_before_the_tau_error(self):
        # rho stalls at depth 60 on (A + 1)^-2 = t^-0.9; A' is NaN, which the
        # first level of tau finds
        df = _hand_built(lambda t: t**0.45 - 1.0, lambda t, side: np.full(np.shape(t), np.nan))
        with pytest.raises(NonFiniteError):
            coefficients._quadrature([df])
        with pytest.raises(NonConvergentError) as alone:
            rho_numeric(df)
        with pytest.raises(NonConvergentError) as err:
            verify_case(df)
        assert str(err.value) == str(alone.value)
