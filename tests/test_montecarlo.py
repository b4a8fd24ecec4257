"""Samplers and empirical estimators."""

import io
import math

import numpy as np
import pytest

from evcopula import (
    DegenerateSampleError,
    ParamOutOfRangeError,
    SampleBatch,
    copula_from_pickands,
    dependence_corpus,
    empirical_coefficients,
    gumbel_dependence,
    kendall_tau_stat,
    ks_statistic_uniform,
    mo_dependence,
    pareto_dependence,
    read_pairs_csv,
    sample_generic,
    sample_mo,
    write_batch_csv,
)
from evcopula.rng import make_rng
from test_oracles import kendall_tau_direct


class TestSampleMo:
    def test_deterministic(self):
        a = sample_mo(0.5, 0.7, 1000, seed=4)
        b = sample_mo(0.5, 0.7, 1000, seed=4)
        np.testing.assert_array_equal(a.u, b.u)
        np.testing.assert_array_equal(a.v, b.v)

    def test_comonotone(self):
        batch = sample_mo(1.0, 1.0, 500, seed=0)
        np.testing.assert_array_equal(batch.u, batch.v)

    def test_zero_parameter_independent(self):
        batch = sample_mo(0.0, 0.0, 100000, seed=6)
        est = empirical_coefficients(batch)
        assert abs(est.tau_hat) <= 3.0 / np.sqrt(batch.n)

    def test_tau_consistency(self):
        batch = sample_mo(0.5, 0.5, 100000, seed=8)
        est = empirical_coefficients(batch)
        assert est.tau_hat == pytest.approx(1.0 / 3.0, abs=0.015)

    def test_marginals_uniform(self):
        batch = sample_mo(0.6, 0.3, 100000, seed=9)
        crit = 1.63 / np.sqrt(batch.n)
        assert ks_statistic_uniform(batch.u) <= crit
        assert ks_statistic_uniform(batch.v) <= crit

    def test_range_check(self):
        with pytest.raises(ParamOutOfRangeError):
            sample_mo(1.4, 0.5, 10, seed=0)
        with pytest.raises(ParamOutOfRangeError):
            sample_mo(0.5, 0.5, 0, seed=0)


class TestSampleGeneric:
    def test_deterministic(self):
        cop = copula_from_pickands(gumbel_dependence(2.0))
        a = sample_generic(cop, 500, seed=4)
        b = sample_generic(cop, 500, seed=4)
        np.testing.assert_array_equal(a.v, b.v)

    def test_independence(self):
        cop = copula_from_pickands(gumbel_dependence(1.0))
        est = empirical_coefficients(sample_generic(cop, 100000, seed=10))
        assert abs(est.tau_hat) <= 0.01

    def test_gumbel_tau(self):
        cop = copula_from_pickands(gumbel_dependence(2.0))
        est = empirical_coefficients(sample_generic(cop, 100000, seed=12))
        assert est.tau_hat == pytest.approx(0.5, abs=0.015)

    def test_agrees_with_exact_mo_sampler(self):
        cop = copula_from_pickands(mo_dependence(0.5, 0.5))
        generic = empirical_coefficients(sample_generic(cop, 100000, seed=14))
        exact = empirical_coefficients(sample_mo(0.5, 0.5, 100000, seed=14))
        assert generic.tau_hat == pytest.approx(exact.tau_hat, abs=0.02)

    def test_captures_singular_mass(self):
        # the MO conditional CDF jumps along v = u**(alpha/beta); inversion
        # must place an atom exactly on that curve
        cop = copula_from_pickands(mo_dependence(0.5, 0.5))
        batch = sample_generic(cop, 20000, seed=16)
        on_curve = np.abs(batch.v - batch.u) < 1e-9
        assert on_curve.mean() > 0.2  # singular component has positive mass

    def test_marginals_uniform(self):
        cop = copula_from_pickands(pareto_dependence(0.3, 0.2))
        batch = sample_generic(cop, 100000, seed=18)
        crit = 1.63 / np.sqrt(batch.n)
        assert ks_statistic_uniform(batch.u) <= crit
        assert ks_statistic_uniform(batch.v) <= crit


class TestKendallStatistic:
    def test_merge_equals_direct_count(self):
        for i, n in enumerate([2, 3, 17, 200, 999, 2000]):
            rng = make_rng(20, i)
            u, v = rng.random(n), rng.random(n)
            assert kendall_tau_stat(u, v) == kendall_tau_direct(u, v)

    def test_merge_equals_direct_count_with_ties(self):
        rng = make_rng(22)
        u = np.round(rng.random(800), 1)
        v = np.round(rng.random(800), 1)
        assert kendall_tau_stat(u, v) == kendall_tau_direct(u, v)

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_pairs_rejected(self, n):
        with pytest.raises(DegenerateSampleError):
            kendall_tau_stat(np.full(n, 0.5), np.full(n, 0.5))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(DegenerateSampleError):
            kendall_tau_stat(np.linspace(0, 1, 10), np.linspace(0, 1, 9))

    def test_nan_rejected(self):
        u = np.linspace(0.1, 0.9, 10)
        v = u.copy()
        v[3] = np.nan
        with pytest.raises(DegenerateSampleError):
            kendall_tau_stat(u, v)

    def test_perfect_orderings(self):
        x = np.arange(100, dtype=float)
        assert kendall_tau_stat(x, x) == 1.0
        assert kendall_tau_stat(x, -x) == -1.0

    def test_matches_scipy_kendalltau(self):
        stats = pytest.importorskip("scipy.stats")
        for seed in range(5):
            for i, df in enumerate(dependence_corpus(4, seed)):
                batch = sample_generic(copula_from_pickands(df), 5000, seed=100 * seed + i)
                # without ties scipy's tau-b equals tau-a
                assert len(np.unique(batch.u)) == len(np.unique(batch.v)) == 5000
                want = stats.kendalltau(batch.u, batch.v).statistic
                assert kendall_tau_stat(batch.u, batch.v) == pytest.approx(want, abs=1e-12)


class TestKsStatistic:
    def test_known_value(self):
        assert ks_statistic_uniform(np.array([0.5])) == 0.5

    @pytest.mark.parametrize("x", [[], [0.1, np.nan], [np.nan]])
    def test_empty_or_nan_rejected(self, x):
        with pytest.raises(DegenerateSampleError):
            ks_statistic_uniform(np.asarray(x, dtype=float))

    @pytest.mark.parametrize(
        "x",
        [np.full((2, 2), 0.5), "abc", np.float64(0.5), np.array([True, False]), [[0], [0, 1]]],
        ids=["2-D", "string", "0-D", "bool", "ragged"],
    )
    def test_not_a_1d_real_array_rejected(self, x):
        with pytest.raises(DegenerateSampleError, match="1-D array of real numbers"):
            ks_statistic_uniform(x)

    @pytest.mark.parametrize("x", [[0.1, 5.0], [-3.0, 0.5], [np.inf, -np.inf]])
    def test_points_outside_unit_interval_sit_at_its_ends(self, x):
        # the uniform CDF is 0 below 0 and 1 above 1, so a KS distance is at most 1
        assert ks_statistic_uniform(x) == 0.5

    def test_equals_distance_of_clipped_sample(self):
        x = make_rng(33).uniform(-0.5, 1.5, 1000)
        assert ks_statistic_uniform(x) == ks_statistic_uniform(np.clip(x, 0.0, 1.0))


class TestSampleBatch:
    def test_length_mismatch_rejected(self):
        rng = make_rng(32)
        with pytest.raises(DegenerateSampleError):
            SampleBatch(rng.random(100), rng.random(99), 0, "manual")


class TestEmpiricalCoefficients:
    def test_comonotone_batch(self):
        u = make_rng(24).random(5001)
        est = empirical_coefficients(SampleBatch(u, u, 0, "manual"))
        assert est.tau_hat == 1.0
        assert est.rho_hat == pytest.approx(1.0, abs=1e-3)
        assert est.lambda_summary == pytest.approx(1.0, abs=0.05)

    def test_independent_batch(self):
        rng = make_rng(26)
        est = empirical_coefficients(
            SampleBatch(rng.random(200000), rng.random(200000), 0, "manual")
        )
        for stat in (est.rho_hat, est.tau_hat, est.beta_hat):
            assert abs(stat) <= 0.01

    def test_tail_estimate_mo(self):
        batch = sample_mo(0.5, 0.5, 200000, seed=28)
        est = empirical_coefficients(batch, lambda_thresholds=(0.9, 0.95, 0.99))
        by_t = dict(est.lambda_hat)
        assert by_t[0.95] == pytest.approx(0.5, abs=0.05)
        assert est.lambda_summary == by_t[0.99]

    def test_degenerate_small(self):
        with pytest.raises(DegenerateSampleError):
            empirical_coefficients(
                SampleBatch(np.ones(5), np.ones(5), 0, "manual")
            )

    def test_degenerate_constant(self):
        u = np.full(100, 0.5)
        v = make_rng(30).random(100)
        with pytest.raises(DegenerateSampleError):
            empirical_coefficients(SampleBatch(u, v, 0, "manual"))

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_degenerate_constant_infinity(self, value):
        # np.ptp would read inf - inf = NaN, which is not 0
        u = np.full(100, value)
        v = make_rng(30).random(100)
        with pytest.raises(DegenerateSampleError):
            empirical_coefficients(SampleBatch(u, v, 0, "manual"))

    def test_inf_median(self):
        # more than half of u is inf, so its median is inf; inf ranks as 2.0 would
        u, v = make_rng(31).random((2, 101))
        u[:60] = np.inf
        est = empirical_coefficients(SampleBatch(u, v, 0, "manual"))
        assert est == empirical_coefficients(SampleBatch(np.minimum(u, 2.0), v, 0, "manual"))
        assert math.isfinite(est.beta_hat)

    @pytest.mark.parametrize("scale", [2.0**-560, 2.0**560], ids=["2**-560", "2**560"])
    def test_exact_scaling_leaves_estimates_unchanged(self, scale):
        # the products of the differences from the medians would underflow to 0 or overflow
        u = make_rng(32).random(500)
        v = 0.5 * (u + make_rng(33).random(500))
        est = empirical_coefficients(SampleBatch(u, v, 0, "manual"))
        assert empirical_coefficients(SampleBatch(u * scale, v * scale, 0, "manual")) == est

    @pytest.mark.parametrize(
        "make, thresholds, text",
        [
            (lambda r, nan: (np.full(100, 0.5), nan), (0.9,), "all values identical in one coordinate"),
            (lambda r, nan: (nan, np.full(100, 0.5)), (0.9,), "all values identical in one coordinate"),
            (lambda r, nan: (np.full(100, np.nan), r), (0.9,), "rank statistics are undefined for NaN coordinates"),
            (lambda r, nan: (r, np.full(100, np.nan)), (0.9,), "rank statistics are undefined for NaN coordinates"),
            (lambda r, nan: (np.full(100, 0.5), r), (1.5,), "all values identical in one coordinate"),
            (lambda r, nan: (np.tile([0.0, -0.0], 50), r), (0.9,), "all values identical in one coordinate"),
        ],
        ids=["constant u, NaN in v", "NaN in u, constant v", "all-NaN u", "all-NaN v",
             "constant u, threshold 1.5", "u of 0.0 and -0.0"],
    )
    def test_degenerate_error_order(self, make, thresholds, text):
        # n < 10, then a constant coordinate, then a bad threshold, then NaN
        r = make_rng(34).random(100)
        nan = r.copy()
        nan[7] = np.nan
        with pytest.raises(DegenerateSampleError) as exc:
            empirical_coefficients(SampleBatch(*make(r, nan), 0, "manual"), lambda_thresholds=thresholds)
        assert str(exc.value) == text

    def test_threshold_validation(self):
        batch = sample_mo(0.5, 0.5, 100, seed=1)
        with pytest.raises(ParamOutOfRangeError):
            empirical_coefficients(batch, lambda_thresholds=(1.5,))

    @pytest.mark.parametrize("thresholds", [("0.9",), (True,), (0.9, np.True_), (1.0,), (None,)])
    def test_threshold_must_be_real_in_open_unit_interval(self, thresholds):
        batch = sample_mo(0.5, 0.5, 100, seed=1)
        with pytest.raises(ParamOutOfRangeError, match="thresholds"):
            empirical_coefficients(batch, lambda_thresholds=thresholds)

    @pytest.mark.parametrize("thresholds", [(1.5,), (), (0.9, 0.0), (math.nan,)])
    def test_threshold_outside_open_unit_interval_is_param_error(self, thresholds):
        batch = sample_mo(0.5, 0.5, 100, seed=1)
        with pytest.raises(ParamOutOfRangeError, match="thresholds"):
            empirical_coefficients(batch, lambda_thresholds=thresholds)


class TestCsvInterchange:
    def test_roundtrip_bit_exact(self):
        batch = sample_mo(0.42, 0.77, 257, seed=5)
        buf = io.StringIO()
        write_batch_csv(batch, buf)
        text = buf.getvalue()
        assert text.startswith("u,v\n")
        assert "\r" not in text
        buf.seek(0)
        back = read_pairs_csv(buf)
        np.testing.assert_array_equal(back.u, batch.u)
        np.testing.assert_array_equal(back.v, batch.v)

    def test_header_required(self):
        with pytest.raises(DegenerateSampleError):
            read_pairs_csv(io.StringIO("0.1,0.2\n0.3,0.4\n"))

    def test_empty_rejected(self):
        with pytest.raises(DegenerateSampleError):
            read_pairs_csv(io.StringIO("u,v\n"))

    @pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-inf"])
    @pytest.mark.parametrize("column", [0, 1])
    def test_non_finite_rejected(self, cell, column):
        row = [cell, "0.5"] if column == 0 else ["0.5", cell]
        text = "u,v\n0.1,0.2\n" + ",".join(row) + "\n0.3,0.4\n"
        with pytest.raises(DegenerateSampleError, match="finite"):
            read_pairs_csv(io.StringIO(text))
