"""Dependence-function families, validation, and tangent geometry."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from evcopula import (
    DependenceFunction,
    InvalidDependenceFunctionError,
    ParamOutOfRangeError,
    gumbel_dependence,
    mix,
    mo_closed_form,
    mo_dependence,
    pareto_closed_form,
    pareto_dependence,
    piecewise_linear_dependence,
    read_knots_csv,
    rho_numeric,
    tau_numeric,
    verify_case,
    write_knots_csv,
)
from evcopula import pickands
from evcopula.errors import check_split_points
from evcopula.pickands import ENVELOPE_KNOTS, _pwl_max
from evcopula.rng import make_rng
from reference import exact_piece_slopes, tangent_at_half, validate

GRID = np.linspace(0.0, 1.0, 401)


class TestMarshallOlkin:
    def test_midpoint_value(self):
        assert mo_dependence(0.5, 0.5)(0.5) == pytest.approx(0.75, abs=1e-15)

    def test_zero_parameter_gives_independence(self):
        for df in (mo_dependence(0.0, 0.7), mo_dependence(0.7, 0.0)):
            np.testing.assert_allclose(df(GRID), 1.0, atol=0.0)
            assert df.split_points == ()

    def test_comonotone_corner(self):
        assert mo_dependence(1.0, 1.0)(0.5) == pytest.approx(0.5, abs=1e-15)

    def test_matches_min_formula_exactly(self):
        for alpha, beta in [(0.5, 0.5), (0.7, 0.2), (0.13, 0.94), (1.0, 0.61)]:
            df = mo_dependence(alpha, beta)
            want = 1.0 - np.minimum(beta * GRID, alpha * (1.0 - GRID))
            np.testing.assert_array_equal(df(GRID), want)

    def test_kink_location_and_slopes(self):
        df = mo_dependence(0.7, 0.2)
        (t,) = df.split_points
        assert t == pytest.approx(0.7 / 0.9, abs=1e-15)
        assert df.deriv(t, "left") == pytest.approx(-0.2, abs=1e-12)
        assert df.deriv(t, "right") == pytest.approx(0.7, abs=1e-12)

    def test_param_range(self):
        with pytest.raises(ParamOutOfRangeError):
            mo_dependence(1.2, 0.5)


class TestGumbel:
    def test_theta_one_is_independence(self):
        df = gumbel_dependence(1.0)
        np.testing.assert_allclose(df(GRID), 1.0, atol=0.0)

    def test_midpoint_closed_form(self):
        # A(1/2) = 2**(1/theta - 1)
        df = gumbel_dependence(1.710)
        assert df(0.5) == pytest.approx(2.0 ** (1.0 / 1.710 - 1.0), abs=1e-15)
        assert df(0.5) == pytest.approx(0.75, abs=1e-4)

    def test_large_theta_approaches_comonotone(self):
        assert gumbel_dependence(400.0)(0.5) == pytest.approx(0.5, abs=1e-2)
        np.testing.assert_allclose(
            gumbel_dependence(2000.0)(GRID), np.maximum(GRID, 1 - GRID), atol=2e-3
        )

    def test_symmetry(self):
        df = gumbel_dependence(2.7)
        np.testing.assert_allclose(df(GRID), df(1.0 - GRID), atol=1e-15)

    def test_no_kinks_and_derivatives(self):
        df = gumbel_dependence(2.0)
        # smooth: the split points bound panels, they are not kinks
        for t in df.split_points:
            assert df.deriv(t, "left") == df.deriv(t, "right")
        # finite-difference check of the derivative at interior points
        for t in (0.21, 0.5, 0.83):
            fd1 = (df(t + 1e-6) - df(t - 1e-6)) / 2e-6
            assert df.deriv(t) == pytest.approx(fd1, abs=1e-8)

    def test_split_points_bracket_the_spike(self):
        assert gumbel_dependence(2.0).split_points == (0.5,)
        assert gumbel_dependence(1.0).split_points == ()
        pts = gumbel_dependence(100.0).split_points
        want = sorted(0.5 + s * k / 100.0 for k in (1, 4, 16) for s in (-1, 1))
        assert pts == pytest.approx(sorted(want + [0.5]), abs=1e-15)
        # huge theta: the offsets vanish below the spacing of doubles at 1/2
        assert gumbel_dependence(1e300).split_points == (0.5,)
        # theta < 2: every 1/2 +- k/theta lies outside (0, 1), and the panels
        # are graded toward the ends, where the slope of A' is unbounded
        ends = [4.0**-k for k in range(1, 21)]
        want = sorted(ends + [0.5] + [1.0 - e for e in ends])
        assert gumbel_dependence(1.5).split_points == tuple(want)
        assert gumbel_dependence(1.0 + 1e-8).split_points == tuple(want)

    def test_numpy_real_theta_accepted(self):
        for theta in (np.float32(2.0), np.float64(2.0), np.int64(2), 2):
            df = gumbel_dependence(theta)
            assert df.params["theta"] == 2.0
            assert df(0.5) == gumbel_dependence(2.0)(0.5)

    def test_bool_theta_rejected(self):
        for theta in (True, np.bool_(True)):
            with pytest.raises(ParamOutOfRangeError):
                gumbel_dependence(theta)

    def test_param_range(self):
        with pytest.raises(ParamOutOfRangeError):
            gumbel_dependence(0.8)
        with pytest.raises(ParamOutOfRangeError):
            gumbel_dependence(math.inf)


class TestParetoTangentFamily:
    def test_symmetric_quarter(self):
        df = pareto_dependence(0.25, 0.25)
        assert df.split_points == pytest.approx((0.25, 0.75), abs=1e-15)
        assert df(0.5) == pytest.approx(0.75, abs=1e-15)

    def test_kinks_match_line_intersections(self):
        # oracle: intersect s = 1 - t and s = t with the tangent line directly
        a, b = 0.37, 0.22
        line = lambda t: (1.0 - a) * (1.0 - t) + (1.0 - b) * t
        df = pareto_dependence(a, b)
        tp, tq = df.split_points
        assert line(tp) == pytest.approx(1.0 - tp, abs=1e-12)
        assert line(tq) == pytest.approx(tq, abs=1e-12)

    def test_one_sided(self):
        df = pareto_dependence(0.5, 0.0)
        assert df.split_points == pytest.approx((1.0 / 3.0,), abs=1e-15)

    def test_degenerate_cases(self):
        np.testing.assert_allclose(pareto_dependence(0.0, 0.0)(GRID), 1.0, atol=0.0)
        np.testing.assert_allclose(
            pareto_dependence(0.6, 0.4)(GRID), np.maximum(GRID, 1.0 - GRID), atol=0.0
        )

    def test_matches_three_line_max_pointwise(self):
        for a, b in [(0.25, 0.25), (0.5, 0.0), (0.1, 0.62), (0.0, 0.9)]:
            df = pareto_dependence(a, b)
            want = np.maximum(
                np.maximum(1.0 - GRID, GRID),
                (1.0 - a) * (1.0 - GRID) + (1.0 - b) * GRID,
            )
            np.testing.assert_allclose(df(GRID), want, atol=1e-15)

    def test_param_range(self):
        with pytest.raises(ParamOutOfRangeError):
            pareto_dependence(0.7, 0.7)
        with pytest.raises(ParamOutOfRangeError):
            pareto_dependence(-0.1, 0.3)

    def test_near_collapsing_kinks(self):
        # as a + b -> 1 the two kinks merge at 1/2, and as a or b -> 0 one nears
        # an end; construction must not emit zero-width segments (regression for
        # a hypothesis find): the pieces run from t = 0 to 1, each wider than 0
        # and with the exact slope of its branch of A
        for a, b in [(0.3, 0.7), (0.3, 0.7 - 1e-14), (0.6, 0.4 - 1e-13), (1e-15, 0.5), (0.5, 1e-15)]:
            df = pareto_dependence(a, b)
            assert np.all(np.diff(df.edges) > 0.0) and (df(0.0), df(1.0)) == (1.0, 1.0)
            assert set(df.split_points) <= {0.5, *pickands._tangent_kinks(a, b)}
            mid = 0.5 * (df.edges[:-1] + df.edges[1:])
            for side in ("left", "right"):
                assert df.deriv_fn(mid, side).tolist() == exact_piece_slopes(df).tolist()
            assert validate(df, grid_size=256).valid


def test_params_are_a_read_only_copy():
    # a frozen function reports only the parameters it was built with
    mine = {"alpha": 0.3, "beta": 0.8}
    df = mo_dependence(0.3, 0.8)
    copies = [
        df,
        DependenceFunction("marshall_olkin", mine, df.split_points, df.eval_fn, df.deriv_fn),
        dataclasses.replace(df, params=mine),
        dataclasses.replace(df, params=df.params),
    ]
    mine["alpha"] = 0.9
    for copy in copies:
        assert dict(copy.params) == {"alpha": 0.3, "beta": 0.8}
        with pytest.raises(TypeError):
            copy.params["alpha"] = 0.9


@pytest.mark.parametrize(
    "build",
    [
        lambda: mo_dependence(0.3, 0.8),
        lambda: gumbel_dependence(1.5),
        lambda: pareto_dependence(0.2, 0.3),
        lambda: piecewise_linear_dependence([(0, 1), (0.4, 0.7), (1, 1)]),
        lambda: mix(gumbel_dependence(3.0), mo_dependence(0.2, 0.9), 0.5),
    ],
    ids=["mo", "gumbel", "tangent", "knots", "mixture"],
)
def test_edges_are_the_checked_split_points_read_only_and_rebuilt_by_replace(build):
    df = build()
    assert df.edges.tobytes() == check_split_points(df.split_points).tobytes()
    with pytest.raises(ValueError):
        df.edges[1] = 0.5
    # perfbench's tracer copies a function through dataclasses.replace
    copy = dataclasses.replace(df, eval_fn=df.eval_fn, deriv_fn=df.deriv_fn, second_fn=None)
    assert copy.edges is not df.edges and copy.edges.tobytes() == df.edges.tobytes()
    assert copy == df
    moved = dataclasses.replace(df, split_points=(0.25,))
    assert moved.edges.tolist() == [0.0, 0.25, 1.0] and not moved.edges.flags.writeable
    # a copy is no build: only a builder's own output carries the parameters it checked
    assert copy.exact is None and moved.exact is None


def test_exact_holds_the_checked_floats_and_is_set_by_builders_only():
    builds = {
        (0.5, 1.0): mo_dependence(np.float32(0.5), np.int64(1)),
        (0.25, 0.75): pareto_dependence(0.25, np.float64(0.75)),
        (1.0,): gumbel_dependence(1),
        (2.0,): gumbel_dependence(np.int64(2)),
    }
    for exact, df in builds.items():
        assert df.exact == exact and all(type(x) is float for x in df.exact), df
    df = mo_dependence(0.3, 0.6)
    knots = piecewise_linear_dependence([(0, 1), (0.4, 0.7), (1, 1)])
    assert knots.exact is None and mix(df, df, 0.5).exact is None
    with pytest.raises(TypeError):
        DependenceFunction("marshall_olkin", {}, (), df.eval_fn, df.deriv_fn, exact=(0.3, 0.6))


class TestPiecewiseLinear:
    def test_matches_mo_broken_line(self):
        df = piecewise_linear_dependence([(0, 1), (0.5, 0.75), (1, 1)])
        mo = mo_dependence(0.5, 0.5)
        np.testing.assert_allclose(df(GRID), mo(GRID), atol=1e-15)

    def test_below_envelope_rejected(self):
        with pytest.raises(InvalidDependenceFunctionError) as err:
            piecewise_linear_dependence([(0, 1), (0.5, 0.4), (1, 1)])
        assert any(c == "envelope" for _, c, _ in err.value.report.violations)

    def test_convex_two_kink_shape_is_valid(self):
        # slopes -1/3, -1/4, +2/3 are nondecreasing, so this shape is convex
        # and stays inside the band: construction must succeed
        df = piecewise_linear_dependence([(0, 1), (0.3, 0.9), (0.7, 0.8), (1, 1)])
        assert validate(df).valid
        assert len(df.split_points) == 2

    def test_decreasing_slopes_rejected(self):
        # slopes -1/6 then -1/2: decreasing, hence not convex
        with pytest.raises(InvalidDependenceFunctionError) as err:
            piecewise_linear_dependence([(0, 1), (0.3, 0.95), (0.6, 0.8), (1, 1)])
        assert any(c == "convexity" for _, c, _ in err.value.report.violations)

    @pytest.mark.parametrize(
        "knots",
        [
            [(0, 1), (0.5, math.nan), (1, 1)],
            [(0, 1), (math.nan, 0.75), (1, 1)],
            [(0, 1), (0.5, math.inf), (1, 1)],
            [(0, 1), (0.5, 0.75), (1, math.nan)],
        ],
    )
    def test_non_finite_knots_rejected(self, knots):
        with pytest.raises(InvalidDependenceFunctionError) as err:
            piecewise_linear_dependence(knots)
        assert err.value.report.violations[0][1] == "non_finite"

    def test_mixed_violations_listed_in_t_order(self):
        with pytest.raises(InvalidDependenceFunctionError) as err:
            piecewise_linear_dependence([(0, 1), (0.2, 1.05), (0.5, 0.4), (1, 1)])
        assert str(err.value) == (
            "knots violate the dependence-function constraints: "
            "upper_bound at t=0.2, envelope at t=0.5, convexity at t=0.2"
        )

    def test_pwl_max_of_crossing_functions(self):
        # 1 - 0.4t crosses the envelope max(t, 1-t) at t = 1/1.4
        t, a = _pwl_max(
            np.array([0.0, 1.0]), np.array([1.0, 0.6]),
            np.array([0.0, 0.5, 1.0]), np.array([1.0, 0.5, 1.0]),
        )
        np.testing.assert_allclose(t, [0.0, 0.5, 1.0 / 1.4, 1.0], rtol=0, atol=1e-15)
        np.testing.assert_allclose(a, [1.0, 0.8, 1.0 / 1.4, 1.0], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("swap", [False, True])
    def test_pwl_max_keeps_t_one(self, swap):
        # the line meets max(t, 1 - t) 5e-13 below t = 1: that crossing is a knot
        # of its own, and t = 1 stays the last
        line = (np.array([0.0, 1.0]), np.array([1.0, 1.0 - 5e-13]))
        pieces = [np.transpose(ENVELOPE_KNOTS), line]
        if swap:
            pieces.reverse()
        t, a = _pwl_max(*pieces[0], *pieces[1])
        assert (t[0], t[-1]) == (0.0, 1.0)
        assert (a[0], a[-1]) == (1.0, 1.0)
        assert np.all(np.diff(t) > 0.0)
        assert np.isfinite(np.diff(a) / np.diff(t)).all()
        assert validate(piecewise_linear_dependence(np.column_stack((t, a))), grid_size=256).valid

    @pytest.mark.parametrize(
        "knots",
        [[0, 1], [(0, 1, 1), (0.5, 0.75, 1), (1, 1, 1)], [(0, 1), (0.5,), (1, 1)]],
    )
    def test_knots_must_be_pairs(self, knots):
        with pytest.raises(InvalidDependenceFunctionError, match=r"knots must be \(t, A\) pairs"):
            piecewise_linear_dependence(knots)

    def test_non_increasing_abscissae_rejected(self):
        with pytest.raises(InvalidDependenceFunctionError):
            piecewise_linear_dependence([(0, 1), (0.5, 0.8), (0.5, 0.9), (1, 1)])

    @pytest.mark.parametrize(
        "knots, violations",
        [
            ([(0, 1), (0.5, 0.75), (0.9, 1)], ((0.9, "domain", 1.0 - 0.9),)),
            ([(0.2, 1), (0.5, 0.75), (1, 1)], ((0.2, "domain", 0.2),)),
            ([(0.2, 1), (0.5, 0.75), (0.9, 1)], ((0.2, "domain", 0.2), (0.9, "domain", 1.0 - 0.9))),
        ],
    )
    def test_domain_violation_names_the_end_that_is_off(self, knots, violations):
        with pytest.raises(InvalidDependenceFunctionError) as err:
            piecewise_linear_dependence(knots)
        assert err.value.report.violations == violations
        assert all(f"domain at t={t:g}" in str(err.value) for t, _, _ in violations)

    def test_one_knot_is_a_domain_violation(self):
        with pytest.raises(InvalidDependenceFunctionError, match="need at least two knots") as err:
            piecewise_linear_dependence([(0.0, 1.0)])
        assert err.value.report.violations == ((0.0, "domain", 1.0),)

    def test_csv_roundtrip(self, tmp_path):
        path = tmp_path / "knots.csv"
        path.write_text("t,A\n0,1\n0.5,0.75\n1,1\n")
        df = read_knots_csv(path)
        assert df(0.5) == 0.75
        out = tmp_path / "dense.csv"
        write_knots_csv(out, df)
        df2 = read_knots_csv(out)
        np.testing.assert_allclose(df2(GRID), df(GRID), atol=1e-14)

    def test_csv_header_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1\n1,1\n")
        with pytest.raises(InvalidDependenceFunctionError):
            read_knots_csv(path)

    def test_csv_one_column_row_rejected(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("t,A\n0,1\n0.5\n1,1\n")
        with pytest.raises(InvalidDependenceFunctionError, match="row 3"):
            read_knots_csv(path)

    def test_csv_non_number_rejected(self, tmp_path):
        path = tmp_path / "abc.csv"
        path.write_text("t,A\n0,1\n0.5,abc\n1,1\n")
        with pytest.raises(InvalidDependenceFunctionError, match="row 3 has '0.5', 'abc'") as err:
            read_knots_csv(path)
        assert err.value.report.violations == ((0.0, "format", 1.0),)

    @pytest.mark.parametrize(
        "node, beta",
        [(n, b) for n in (0.5, 0.25, 0.75, 37 / 256) for b in (0.2, 0.5, 0.9) if b * n / (1 - n) <= 1],
    )
    def test_csv_roundtrip_of_kink_next_to_grid_knot(self, tmp_path, node, beta):
        # the written grid has a knot at `node`, 1e-13 to 1e-9 from the MO kink;
        # across that gap a rounding of A by 1e-16 moves the slope by up to 1e-3,
        # but the knot stays within rounding of the chord, so it is no split point
        path = tmp_path / "knots.csv"
        for offset in (1e-13, 1e-12, 1e-11, 1e-10, 1e-9):
            for kink in (node - offset, node + offset):
                df = mo_dependence(beta * kink / (1 - kink), beta)
                write_knots_csv(path, df)
                back = read_knots_csv(path)
                np.testing.assert_allclose(back(GRID), df(GRID), rtol=0, atol=1e-15)
                assert back.split_points == df.split_points, kink

    def test_csv_roundtrip_of_gumbel_below_theta_two_verifies(self, tmp_path):
        # the written knots include the split points graded toward both ends,
        # down to 4^-20 from t = 0 and t = 1, where knots lie 1e-12 apart
        path = tmp_path / "knots.csv"
        df = gumbel_dependence(1.03)
        write_knots_csv(path, df)
        back = read_knots_csv(path)
        t = np.array([k[0] for k in back.params["knots"]])
        assert set(df.split_points) <= set(t.tolist())
        np.testing.assert_allclose(back(t), df(t), rtol=0, atol=1e-15)
        report = verify_case(back)
        assert report["passed"], report

    def test_convexity_gap_in_a_units(self):
        # the knot at 0.3 lies 0.05 above the chord 0.9 of its neighbours
        with pytest.raises(InvalidDependenceFunctionError) as err:
            piecewise_linear_dependence([(0, 1), (0.3, 0.95), (0.6, 0.8), (1, 1)])
        (t, gap), = [(t, g) for t, c, g in err.value.report.violations if c == "convexity"]
        assert t == 0.3 and gap == pytest.approx(0.05, abs=1e-15)


class TestValidate:
    def test_families_are_valid(self):
        assert validate(mo_dependence(0.7, 0.2)).valid
        assert validate(gumbel_dependence(2.0)).valid
        assert validate(pareto_dependence(0.3, 0.1)).valid

    def test_parabolic_dip_invalid(self):
        # A(1/2) = 0.25 < 1/2 violates the lower envelope
        r = validate(lambda t: 1.0 - 3.0 * np.asarray(t) * (1.0 - np.asarray(t)), 201)
        assert not r.valid
        assert any(c == "envelope" for _, c, _ in r.violations)

    def test_concave_bump_invalid(self):
        r = validate(lambda t: np.minimum(1.0, 1.02 - 0.1 * np.asarray(t)), 201)
        assert not r.valid

    def test_band_violations_in_t_order(self):
        # above 1 left of 1/2, below the envelope right of it
        r = validate(lambda t: np.where(np.asarray(t) < 0.5, 1.05, 0.45), 5)
        assert [(t, c) for t, c, _ in r.violations[:5]] == [
            (0.0, "endpoint"),
            (1.0, "endpoint"),
            (0.0, "upper_bound"),
            (0.25, "upper_bound"),
            (0.5, "envelope"),
        ]
        assert [c for _, c, _ in r.violations[5:]] == ["envelope", "envelope", "convexity"]

    def test_nan_everywhere_invalid(self):
        r = validate(lambda t: np.full_like(np.asarray(t, dtype=float), np.nan), 16)
        assert not r.valid
        assert r.violations[0] == (0.0, "non_finite", math.inf)

    @pytest.mark.parametrize("grid_size", [16, 17, 2048])
    def test_one_nan_at_half_invalid(self, grid_size):
        # 1/2 is a grid point only for odd sizes; otherwise a convexity midpoint
        df = gumbel_dependence(2.0)

        def fn(t):
            a = np.array(df(t), dtype=float)
            a[np.asarray(t) == 0.5] = np.nan
            return a

        r = validate(fn, grid_size)
        assert not r.valid
        assert (0.5, "non_finite", math.inf) in r.violations

    def test_grid_size_guard(self):
        with pytest.raises(ValueError):
            validate(lambda t: np.ones_like(t), 2)


class TestDomain:
    @pytest.mark.parametrize("t", [-0.1, 1.5, math.nan, [0.5, math.nan]])
    def test_outside_unit_interval_rejected(self, t):
        for df in (gumbel_dependence(2.0), mo_dependence(0.3, 0.6), pareto_dependence(0.3, 0.2)):
            with pytest.raises(ParamOutOfRangeError):
                df(t)
            with pytest.raises(ParamOutOfRangeError):
                df.deriv(t)

    @pytest.mark.parametrize(
        "t", ["abc", "0.5", None, True, np.array([0.5, 0.5j]), [[0.5, 0.5], [0.5]]], ids=repr
    )
    def test_non_numbers_rejected(self, t):
        # strings, bools, complex numbers and ragged lists are no t, as for u and v
        for df in (gumbel_dependence(2.0), mo_dependence(0.3, 0.6)):
            with pytest.raises(ParamOutOfRangeError, match="t must be real numbers"):
                df(t)
            with pytest.raises(ParamOutOfRangeError, match="t must be real numbers"):
                df.deriv(t)

    def test_endpoints_accepted(self):
        df = gumbel_dependence(2.0)
        assert df(0.0) == df(1.0) == 1.0
        np.testing.assert_array_equal(df.deriv(np.array([0.0, 1.0])), [-1.0, 1.0])


class TestTangentAtHalf:
    def test_symmetric_mo(self):
        assert tangent_at_half(mo_dependence(0.5, 0.5)) == pytest.approx(
            (0.25, 0.25), abs=1e-12
        )

    def test_symmetric_gumbel(self):
        a, b = tangent_at_half(gumbel_dependence(1.710))
        assert a == pytest.approx(b, abs=1e-12)
        assert a == pytest.approx(0.25, abs=1e-3)

    def test_independence(self):
        assert tangent_at_half(gumbel_dependence(1.0)) == (0.0, 0.0)

    def test_tangent_supports_graph(self):
        rng = make_rng(99)
        for _ in range(50):
            df = _random_df(rng)
            a, b = tangent_at_half(df)
            lam = 2.0 * (1.0 - df(0.5))
            assert a >= 0.0 and b >= 0.0
            assert a + b == pytest.approx(lam, abs=1e-12)
            line = (1.0 - a) * (1.0 - GRID) + (1.0 - b) * GRID
            assert np.all(df(GRID) >= line - 1e-12)


def _random_df(rng):
    from evcopula import random_dependence_function

    return random_dependence_function(rng)


class TestRandomizedValidity:
    def test_thousand_random_draws_are_valid(self):
        # 250 draws per family at a coarser grid keeps this fast
        for i in range(250):
            rng = make_rng(3, i)
            fams = [
                mo_dependence(rng.random(), rng.random()),
                gumbel_dependence(1.0 + 20.0 * rng.random()),
            ]
            lam, w = rng.random(), rng.random()
            fams.append(pareto_dependence(lam * w, lam * (1.0 - w)))
            fams.append(_random_df(make_rng(4, i)))
            for df in fams:
                report = validate(df, grid_size=128)
                assert report.valid, (df.family, report.violations[:3])

    def test_symmetric_families_are_symmetric(self):
        for p in (0.2, 0.5, 0.9):
            for df in (
                mo_dependence(p, p),
                gumbel_dependence(1.0 + 3.0 * p),
                pareto_dependence(p / 2.0, p / 2.0),
            ):
                np.testing.assert_allclose(df(GRID), df(1.0 - GRID), atol=1e-15)


class TestMixture:
    def test_mixture_is_convex_combination(self):
        f = mo_dependence(0.8, 0.3)
        g = gumbel_dependence(2.5)
        m = mix(f, g, 0.25)
        np.testing.assert_allclose(m(GRID), 0.25 * f(GRID) + 0.75 * g(GRID), atol=1e-15)
        assert validate(m).valid

    def test_mixture_kinks_scale(self):
        f = mo_dependence(0.6, 0.6)
        m = mix(f, gumbel_dependence(1.0), 0.5)
        (t,) = m.split_points
        assert t == 0.5
        jump = m.deriv(t, "right") - m.deriv(t, "left")
        assert jump == pytest.approx(0.5 * 1.2, abs=1e-12)

    def test_mixture_split_points_are_the_union(self):
        f, g = mo_dependence(0.6, 0.2), gumbel_dependence(8.0)
        m = mix(f, g, 0.3)
        assert m.split_points == tuple(sorted(set(f.split_points) | set(g.split_points)))


@given(
    alpha=st.floats(0.0, 1.0),
    beta=st.floats(0.0, 1.0),
    theta=st.floats(1.0, 40.0),
    lam=st.floats(0.0, 1.0),
    w=st.floats(0.0, 1.0),
)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_property_families_always_validate(alpha, beta, theta, lam, w):
    assume(not math.isnan(w))
    for df in (
        mo_dependence(alpha, beta),
        gumbel_dependence(theta),
        pareto_dependence(lam * w, lam * (1.0 - w)),
    ):
        assert validate(df, grid_size=96).valid


_EDGE_PARAMS = (0.0, 1e-300, 1e-15, 1e-13, 1.0 - 1e-13, 1.0)


@given(
    a=st.one_of(st.sampled_from(_EDGE_PARAMS), st.floats(0.0, 1.0, allow_subnormal=False)),
    b=st.one_of(st.sampled_from(_EDGE_PARAMS), st.floats(0.0, 1.0, allow_subnormal=False)),
    gap=st.one_of(st.none(), st.sampled_from((0.0, 1e-15, -1e-15, 1e-13, -1e-13, 1e-12))),
)
# the kinks found within ulps of an end and of each other, where A' read as rounding noise
@example(a=1e-13, b=0.5, gap=None)
@example(a=0.5, b=0.5 - 1e-15, gap=None)
@example(a=0.6, b=0.4 - 1e-13, gap=None)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_property_mo_and_tangent_pieces_have_exact_slopes(a, b, gap):
    # with a gap, b = 1 - a - gap puts a + b within ulps of 1, where the tangent kinks merge
    mo = mo_closed_form(a, b)
    builds = [(mo_dependence(a, b), (mo.rho, mo.tau))]
    b = b if gap is None else 1.0 - a - gap
    try:
        builds.append((pareto_dependence(a, b), pareto_closed_form(a, b)))
    except ParamOutOfRangeError:  # b < 0 or a + b > 1; the check is not under test
        pass
    for df, (rho, tau) in builds:
        lo, hi = df.edges[:-1], df.edges[1:]
        assert lo[0] == 0.0 and hi[-1] == 1.0 and np.all(lo < hi), df
        # A' on both sides of each piece's midpoint, and inside it at both ends
        mid = 0.5 * (lo + hi)
        inside = (lo < mid) & (mid < hi)
        slopes = exact_piece_slopes(df)
        for t, side, want in (
            (mid[inside], "left", slopes[inside]),
            (mid[inside], "right", slopes[inside]),
            (lo, "right", slopes),
            (hi, "left", slopes),
        ):
            got = df.deriv_fn(t, side)
            assert got.tobytes() == want.tobytes(), (df, side, got, want)
        assert validate(df, grid_size=64).valid, df
        # every kink declared: rho and tau within the edge builds' 4e-15 of the closed forms
        assert abs(rho_numeric(df) - rho) <= 4e-15, (df, rho_numeric(df) - rho)
        assert abs(tau_numeric(df) - tau) <= 4e-15, (df, tau_numeric(df) - tau)
