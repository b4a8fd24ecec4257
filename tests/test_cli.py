"""Command-line surface: outputs, exit codes, determinism."""

import io
import math
import os

import numpy as np
import pytest

from evcopula import read_knots_csv
from evcopula.cli import _build_parser, main


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCoeffs:
    def test_mo(self, capsys):
        code, out, _ = run(
            ["coeffs", "--family", "mo", "--alpha", "0.5", "--beta", "0.5"], capsys
        )
        assert code == 0
        rows = {r.split(",")[0]: r.split(",")[1:] for r in out.strip().splitlines()[1:]}
        assert float(rows["rho"][0]) == pytest.approx(3.0 / 7.0, abs=1e-12)
        assert float(rows["tau"][0]) == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert float(rows["lambda"][0]) == 0.5
        assert float(rows["beta"][0]) == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-12)
        assert all(r[1] == "closed_form" for r in rows.values())

    def test_gumbel_independence(self, capsys):
        code, out, _ = run(["coeffs", "--family", "gumbel", "--theta", "1"], capsys)
        assert code == 0
        values = [float(r.split(",")[1]) for r in out.strip().splitlines()[1:]]
        assert values == pytest.approx([0.0, 0.0, 0.0, 0.0], abs=1e-9)

    def test_pareto(self, capsys):
        code, out, _ = run(
            ["coeffs", "--family", "pareto", "--a", "0.25", "--b", "0.25"], capsys
        )
        assert code == 0
        rows = {r.split(",")[0]: float(r.split(",")[1]) for r in out.strip().splitlines()[1:]}
        assert rows["rho"] == pytest.approx(0.6734693877551021, abs=1e-12)
        assert rows["tau"] == 0.5

    def test_pareto_sum_just_past_one_prints_tau_one(self, capsys):
        code, out, _ = run(
            ["coeffs", "--family", "pareto", "--a", "0.5", "--b", "0.5000000000005"], capsys
        )
        assert code == 0
        assert "\ntau,1,closed_form\n" in out

    def test_bad_params_exit_2(self, capsys):
        code, _, err = run(
            ["coeffs", "--family", "mo", "--alpha", "2", "--beta", "0.5"], capsys
        )
        assert code == 2
        assert "error" in err

    def test_unknown_flag_exit_2(self, capsys):
        code, _, _ = run(["coeffs", "--family", "mo", "--bogus", "1"], capsys)
        assert code == 2

    def test_tsv_format(self, capsys):
        code, out, _ = run(
            ["coeffs", "--family", "mo", "--alpha", "0.5", "--beta", "0.5",
             "--format", "tsv"], capsys
        )
        assert code == 0
        assert "\t" in out.splitlines()[0]

    def test_pwl_from_file(self, tmp_path, capsys):
        knots = tmp_path / "knots.csv"
        knots.write_text("t,A\n0,1\n0.5,0.75\n1,1\n")
        code, out, _ = run(
            ["coeffs", "--family", "pwl", "--knots-file", str(knots)], capsys
        )
        assert code == 0
        rows = {r.split(",")[0]: float(r.split(",")[1]) for r in out.strip().splitlines()[1:]}
        # same broken line as the symmetric Marshall-Olkin copula at 1/2
        assert rows["rho"] == pytest.approx(3.0 / 7.0, abs=1e-8)
        assert rows["tau"] == pytest.approx(1.0 / 3.0, abs=1e-8)

    @pytest.mark.parametrize("row", ["0.5,nan", "nan,0.75", "0.5,inf"])
    def test_pwl_non_finite_knot_exit_2(self, tmp_path, capsys, row):
        knots = tmp_path / "knots.csv"
        knots.write_text(f"t,A\n0,1\n{row}\n1,1\n")
        code, out, err = run(
            ["coeffs", "--family", "pwl", "--knots-file", str(knots)], capsys
        )
        assert code == 2
        assert out == ""
        assert "not finite" in err

    def test_pwl_one_column_row_exit_2(self, tmp_path, capsys):
        knots = tmp_path / "knots.csv"
        knots.write_text("t,A\n0,1\n0.5\n1,1\n")
        code, out, err = run(
            ["coeffs", "--family", "pwl", "--knots-file", str(knots)], capsys
        )
        assert code == 2
        assert out == ""
        assert "one column" in err

    def test_pwl_one_knot_exit_2(self, tmp_path, capsys):
        knots = tmp_path / "knots.csv"
        knots.write_text("t,A\n0,1\n")
        code, out, err = run(
            ["coeffs", "--family", "pwl", "--knots-file", str(knots)], capsys
        )
        assert (code, out) == (2, "")
        assert err.splitlines() == ["error: need at least two knots"]

    def test_pwl_blank_rows_give_the_same_bytes(self, tmp_path, capsys):
        plain, blank = tmp_path / "plain.csv", tmp_path / "blank.csv"
        plain.write_text("t,A\n0,1\n0.3,0.8\n0.5,0.75\n1,1\n")
        blank.write_text("t,A\n0,1\n\n0.3,0.8\n   \n0.5,0.75\n1,1\n")
        assert read_knots_csv(blank).split_points == read_knots_csv(plain).split_points == (0.3, 0.5)
        outs = [run(["coeffs", "--family", "pwl", "--knots-file", str(p)], capsys) for p in (plain, blank)]
        assert outs[0][0] == 0
        assert outs[1] == outs[0]


class TestGumbelTable:
    def test_shape_and_edges(self, capsys):
        code, out, _ = run(["gumbel-table"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "lambda,theta,rho"
        assert len(lines) == 12
        assert lines[1] == "0.0,1.000,0.000"
        assert lines[-1] == "1.0,inf,1.000"

    def test_three_decimal_rows(self, capsys):
        _, out, _ = run(["gumbel-table"], capsys)
        rows = {r.split(",")[0]: r.split(",")[1:] for r in out.strip().splitlines()[1:]}
        assert float(rows["0.3"][0]) == pytest.approx(1.306, abs=1.5e-3)
        assert float(rows["0.3"][1]) == pytest.approx(0.342, abs=1.5e-3)
        assert float(rows["0.8"][0]) == pytest.approx(3.802, abs=1.5e-3)
        assert float(rows["0.8"][1]) == pytest.approx(0.904, abs=1.5e-3)

    def test_precision_flag(self, capsys):
        _, out, _ = run(["gumbel-table", "--precision", "6"], capsys)
        theta_half = out.strip().splitlines()[6].split(",")[1]
        assert theta_half == f"{1.0 / math.log2(1.5):.6f}"

    def test_byte_identical_reruns(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["gumbel-table", "--out", str(p1)]) == 0
        assert main(["gumbel-table", "--out", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()


class TestBoundsCurve:
    def test_rows_and_values(self, capsys):
        code, out, _ = run(["bounds-curve", "--step", "0.1"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "lambda,rho_lo,rho_hi,rho_gumbel,tau_lo,tau_hi,tau_gumbel"
        assert len(lines) == 12
        first = [float(x) for x in lines[1].split(",")]
        assert first == pytest.approx([0.0] * 7, abs=1e-9)
        last = [float(x) for x in lines[-1].split(",")]
        assert last == pytest.approx([1.0] * 7, abs=1e-9)
        mid = [float(x) for x in lines[6].split(",")]
        assert mid[0] == 0.5
        assert mid[1] == pytest.approx(3.0 / 7.0, abs=1e-9)
        assert mid[2] == pytest.approx(0.6734693877551021, abs=1e-9)
        assert mid[3] == pytest.approx(0.581, abs=1.5e-3)
        assert mid[4] == pytest.approx(1.0 / 3.0, abs=1e-9)
        assert mid[5] == 0.5
        assert mid[6] == pytest.approx(0.4150374992788437, abs=1e-9)

    def test_bad_step_exit_2(self, capsys):
        code, _, err = run(["bounds-curve", "--step", "0.5"], capsys)
        assert code == 2
        assert "step" in err

    @pytest.mark.parametrize("step", ["5e-324", "1e-300", "0", "nan", "9.9e-5"])
    def test_step_checked_at_parse_time(self, step, capsys):
        # 5e-324 raised OverflowError in int(round(1 / step)), with a traceback, and 1e-300
        # built a list of 1e300 lambdas.  The parser runs first, so no work can start here
        with pytest.raises(SystemExit) as exc:
            _build_parser().parse_args(["bounds-curve", "--step", step])
        assert exc.value.code == 2
        assert "argument --step: step=" in capsys.readouterr().err
        code, out, err = run(["bounds-curve", "--step", step], capsys)
        assert (code, out) == (2, "")
        assert "must be a real number in [0.0001, 0.1]" in err

    def test_step_that_does_not_divide_one_ends_at_one(self, capsys):
        # 33 steps of 0.03 end at 0.99, so lambda = 1 is appended
        code, out, _ = run(["bounds-curve", "--step", "0.03"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 36
        assert lines[-2].split(",")[0] == "0.99"
        assert lines[-1] == "1,1,1,1,1,1,1"

    def test_smallest_step(self, capsys):
        code, out, _ = run(["bounds-curve", "--step", "1e-4"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 10_002
        assert lines[-1].split(",") == ["1"] * 7


class TestVerify:
    def test_pass(self, capsys):
        code, out, _ = run(
            ["verify", "--n-random", "25", "--seed", "42", "--grid", "60"], capsys
        )
        assert code == 0
        assert "PASS" in out
        assert "verified 25 dependence functions" in out

    def test_format_flag_rejected(self, capsys):
        # verify writes one column of text lines; a --format that changed no byte would mislead
        code, out, _ = run(["verify", "--n-random", "1", "--format", "tsv"], capsys)
        assert code == 2
        assert out == ""

    def test_report_shows_margins(self, capsys):
        code, out, _ = run(
            ["verify", "--n-random", "1", "--seed", "7", "--grid", "40"], capsys
        )
        assert code == 0
        assert "worst_interval_margin" in out

    def test_with_knots_file(self, capsys, tmp_path):
        knots = tmp_path / "knots.csv"
        knots.write_text("t,A\n0,1\n0.5,0.75\n1,1\n")
        code, out, _ = run(
            ["verify", "--n-random", "2", "--seed", "1", "--grid", "40",
             "--knots-file", str(knots)], capsys
        )
        assert code == 0
        assert "verified 3 dependence functions" in out

    def test_invalid_knots_exit_2(self, capsys, tmp_path):
        knots = tmp_path / "bad.csv"
        knots.write_text("t,A\n0,1\n0.5,0.4\n1,1\n")
        code, _, err = run(
            ["verify", "--n-random", "2", "--seed", "1", "--knots-file", str(knots)],
            capsys,
        )
        assert code == 2
        assert "envelope" in err

    def test_violation_exit_1_and_dump(self, capsys, tmp_path, monkeypatch):
        # force a failing report to exercise the failure branch
        import evcopula.cli as cli_mod

        real_many = cli_mod.bounds_mod._verify_many

        def broken_many(dfs, envelope_grid=200):
            reps = real_many(dfs, envelope_grid=envelope_grid)
            for rep in reps:
                rep["passed"] = False
            return reps

        monkeypatch.setattr(cli_mod.bounds_mod, "_verify_many", broken_many)
        dump = tmp_path / "offender.csv"
        code, out, _ = run(
            ["verify", "--n-random", "2", "--seed", "1", "--grid", "30",
             "--dump-knots", str(dump)], capsys
        )
        assert code == 1
        assert "FAIL" in out
        assert dump.exists()
        assert dump.read_text().startswith("t,A\n")

    def test_n_random_below_one_exit_2(self, capsys):
        # the parser checks the count, as it does sample -n, so no work starts
        code, out, err = run(["verify", "--n-random", "0"], capsys)
        assert code == 2
        assert out == ""
        assert "n must be >= 1" in err


class TestSample:
    def test_comonotone_rows(self, capsys):
        code, out, _ = run(
            ["sample", "--family", "mo", "--alpha", "1", "--beta", "1",
             "-n", "5", "--seed", "0"], capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "u,v"
        assert len(lines) == 6
        for row in lines[1:]:
            a, b = row.split(",")
            assert a == b

    def test_deterministic_file_output(self, tmp_path, capsys):
        p1, p2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        args = ["sample", "--family", "gumbel", "--theta", "2", "-n", "50",
                "--seed", "3"]
        assert main(args + ["--out", str(p1)]) == 0
        assert main(args + ["--out", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_generic_method_for_mo(self, capsys):
        code, out, _ = run(
            ["sample", "--family", "mo", "--alpha", "0.5", "--beta", "0.5",
             "-n", "10", "--seed", "2", "--method", "generic"], capsys
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 11

    def test_format_flag_rejected(self, capsys):
        # sample always writes the u,v CSV; a --format it ignored would mislead
        code, out, _ = run(
            ["sample", "--family", "gumbel", "--theta", "2", "-n", "5",
             "--format", "tsv"], capsys
        )
        assert code == 2
        assert out == ""

    def test_mo_exact_needs_both_parameters(self, capsys):
        code, out, err = run(
            ["sample", "--family", "mo", "--alpha", "0.5", "-n", "5"], capsys
        )
        assert code == 2
        assert out == ""
        assert "needs --alpha and --beta" in err

    def test_n_below_one_exit_2(self, capsys):
        # -n goes through the samplers' own check_int before --out is opened
        for family in (["mo", "--alpha", "0.5", "--beta", "0.5"], ["gumbel", "--theta", "2"]):
            code, out, err = run(["sample", "--family", *family, "-n", "0"], capsys)
            assert code == 2
            assert out == ""
            assert "n must be >= 1" in err


class TestEstimate:
    def test_pipeline_gumbel(self, tmp_path, capsys):
        sample_path = tmp_path / "s.csv"
        assert main(["sample", "--family", "gumbel", "--theta", "2",
                     "-n", "50000", "--seed", "1", "--out", str(sample_path)]) == 0
        code, out, _ = run(["estimate", "--in", str(sample_path)], capsys)
        assert code == 0
        rows = {r.split(",")[0]: float(r.split(",")[1]) for r in out.strip().splitlines()[1:]}
        assert rows["tau_hat"] == pytest.approx(0.5, abs=0.02)
        assert "lambda_hat@0.9" in rows and "lambda_summary" in rows

    def test_stdin(self, capsys, monkeypatch):
        text = "u,v\n" + "\n".join(
            f"{x:.6f},{x:.6f}" for x in np.linspace(0.01, 0.99, 200)
        ) + "\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, _ = run(["estimate"], capsys)
        assert code == 0
        rows = {r.split(",")[0]: float(r.split(",")[1]) for r in out.strip().splitlines()[1:]}
        assert rows["tau_hat"] == 1.0

    def test_empty_exit_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("u,v\n")
        code, _, err = run(["estimate", "--in", str(empty)], capsys)
        assert code == 2
        assert "no sample rows" in err

    def test_non_finite_exit_2(self, tmp_path, capsys):
        rows = "".join(f"{x:.3f},{x:.3f}\n" for x in np.linspace(0.05, 0.95, 20))
        bad = tmp_path / "nan.csv"
        bad.write_text("u,v\n" + rows + "nan,0.5\n")
        code, out, err = run(["estimate", "--in", str(bad)], capsys)
        assert code == 2
        assert out == ""
        assert "finite" in err

    def test_custom_thresholds(self, tmp_path, capsys):
        sample_path = tmp_path / "s.csv"
        main(["sample", "--family", "mo", "--alpha", "0.5", "--beta", "0.5",
              "-n", "5000", "--seed", "4", "--out", str(sample_path)])
        code, out, _ = run(
            ["estimate", "--in", str(sample_path), "--lambda-thresholds", "0.8,0.9"],
            capsys,
        )
        assert code == 0
        assert "lambda_hat@0.8" in out and "lambda_hat@0.9" in out


class TestArgumentsBeforeWork:
    """Arguments are checked, then --out is opened, then the work starts."""

    @pytest.mark.parametrize(
        "argv, target",
        [
            (["verify", "--n-random", "200"], "bounds_mod.verify_case"),
            (["sample", "--family", "gumbel", "--theta", "2", "-n", "200000",
              "--method", "generic"], "mc_mod.sample_generic"),
            (["estimate", "--in", os.devnull], "mc_mod.read_pairs_csv"),
            (["coeffs", "--family", "gumbel", "--theta", "2"], "coef_mod.compute_coefficients"),
            (["gumbel-table"], "coef_mod.gumbel_theta_from_lambda"),
            (["bounds-curve"], "bounds_mod.rho_bounds"),
            # the corpus is verify's first work; a row of its own keeps the ids of those above
            (["verify", "--n-random", "200"], "bounds_mod.dependence_corpus"),
            # verify hands its cases to _verify_many in blocks and no longer calls
            # verify_case, the one-case form that the first row patches
            (["verify", "--n-random", "200"], "bounds_mod._verify_many"),
        ],
    )
    def test_unopenable_out_fails_before_work(self, argv, target, capsys, monkeypatch, tmp_path):
        import evcopula.cli as cli_mod

        def work(*args, **kwargs):
            raise AssertionError("work started before --out was opened")

        module, name = target.split(".")
        monkeypatch.setattr(getattr(cli_mod, module), name, work)
        code, out, err = run([*argv, "--out", str(tmp_path / "nodir" / "x.txt")], capsys)
        assert code == 2
        assert out == ""
        assert "No such file" in err

    def test_unreadable_knots_file_fails_before_work(self, capsys, monkeypatch, tmp_path):
        import evcopula.cli as cli_mod

        def work(*args, **kwargs):
            raise AssertionError("work started before --knots-file was read")

        monkeypatch.setattr(cli_mod.bounds_mod, "dependence_corpus", work)
        missing = str(tmp_path / "nodir" / "knots.csv")
        code, out, err = run(["verify", "--n-random", "200", "--knots-file", missing], capsys)
        assert code == 2
        assert out == ""
        assert "No such file" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["coeffs", "--family", "mo", "--alpha", "0.5", "--beta", "0.5", "--out", ""],
            ["estimate", "--in", ""],
        ],
    )
    def test_empty_path_is_unopenable(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert "No such file" in err

    _COEFFS = ["coeffs", "--family", "mo", "--alpha", "0.5", "--beta", "0.5"]

    # the g formats read a precision of 0 as 1; gumbel-table's f format takes 0
    @pytest.mark.parametrize(
        "argv, precision",
        [(cmd, p) for cmd in (_COEFFS, ["estimate"]) for p in ("-1", "0", "18")]
        + [(["gumbel-table"], p) for p in ("-1", "18")],
    )
    def test_precision_checked(self, argv, precision, capsys):
        code, out, err = run([*argv, "--precision", precision], capsys)
        assert code == 2
        assert out == ""
        assert "precision must be" in err

    def test_precision_limits_accepted(self, capsys):
        code, out, _ = run(["gumbel-table", "--precision", "0"], capsys)
        assert code == 0
        assert out.splitlines()[1] == "0.0,1,0"
        code, out, _ = run([*self._COEFFS, "--precision", "17"], capsys)
        assert code == 0
        assert out.splitlines()[2] == "tau,0.33333333333333331,closed_form"

    @pytest.mark.parametrize("thresholds", ["abc", "nan", "1", "0.9,abc", "0", ","])
    def test_lambda_thresholds_checked_at_parse_time(self, thresholds, capsys, monkeypatch):
        import evcopula.cli as cli_mod

        def read(*args, **kwargs):
            raise AssertionError("input read before --lambda-thresholds was checked")

        monkeypatch.setattr(cli_mod.mc_mod, "read_pairs_csv", read)
        code, out, err = run(["estimate", "--lambda-thresholds", thresholds], capsys)
        assert code == 2
        assert out == ""
        assert "argument --lambda-thresholds: " in err

    @pytest.mark.parametrize(
        "argv", [["verify", "--n-random", "5"], ["sample", "--family", "gumbel", "--theta", "2", "-n", "3"]]
    )
    def test_negative_seed_checked_before_out(self, argv, capsys, tmp_path):
        # seed -1 drew the stream of 2**64 - 1, and verify labelled it "seed -1"
        out_path = tmp_path / "x.txt"
        code, out, err = run([*argv, "--seed", "-1", "--out", str(out_path)], capsys)
        assert (code, out) == (2, "")
        assert "argument --seed: seed must be >= 0, got -1" in err
        assert not out_path.exists()

    def test_grid_checked(self, capsys, tmp_path):
        out_path = tmp_path / "v.txt"
        code, out, err = run(["verify", "--grid", "1", "--out", str(out_path)], capsys)
        assert code == 2
        assert "grid must be >= 2" in err
        assert not out_path.exists()


class TestFamilyTable:
    """``--family`` and the flags each family needs come from one table in ``cli``."""

    @pytest.mark.parametrize(
        "family, message",
        [
            (["mo", "--alpha", "0.5"], "family 'mo' needs --alpha and --beta"),
            (["gumbel"], "family 'gumbel' needs --theta"),
            (["pareto", "--b", "0.2"], "family 'pareto' needs --a and --b"),
            (["pwl", "--theta", "2"], "family 'pwl' needs --knots-file"),
        ],
    )
    @pytest.mark.parametrize("command", [["coeffs"], ["sample", "-n", "5"]])
    def test_missing_flag_named(self, command, family, message, capsys, tmp_path):
        out_path = tmp_path / "out.csv"
        code, out, err = run([*command, "--family", *family, "--out", str(out_path)], capsys)
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert not out_path.exists()

    def test_builder_looked_up_at_call_time(self, capsys, monkeypatch):
        # perfbench's tracer times Gumbel builds by patching cli.gumbel_dependence
        import evcopula.cli as cli_mod
        from evcopula import gumbel_dependence

        thetas = []

        def spy(theta):
            thetas.append(theta)
            return gumbel_dependence(theta)

        monkeypatch.setattr(cli_mod, "gumbel_dependence", spy)
        gumbel = ["--family", "gumbel", "--theta", "2"]
        for argv in (["coeffs", *gumbel], ["sample", *gumbel, "-n", "5"]):
            assert run(argv, capsys)[0] == 0
        assert thetas == [2.0, 2.0]


class TestOutOfMemory:
    @pytest.mark.parametrize(
        "argv, target",
        [
            (["verify", "--n-random", "3"], "bounds_mod.dependence_corpus"),
            (["sample", "--family", "gumbel", "--theta", "2", "-n", "10"], "mc_mod.sample_generic"),
        ],
    )
    def test_memory_error_exit_2_one_line(self, argv, target, capsys, monkeypatch):
        import evcopula.cli as cli_mod

        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 3.0 TiB for an array")

        module, name = target.split(".")
        monkeypatch.setattr(getattr(cli_mod, module), name, exhausted)
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert err == "error: out of memory\n"


class TestParserBuiltOnce:
    """One parser per process: every call gives the bytes and exit code of a first call."""

    def test_build_parser_returns_one_object(self):
        import evcopula.cli as cli_mod

        assert cli_mod._build_parser() is cli_mod._build_parser()

    def test_calls_in_one_process_match_first_calls(self, capsys, tmp_path):
        import evcopula.bounds as bounds_mod
        import evcopula.cli as cli_mod

        pairs = tmp_path / "pairs.csv"
        sample = ["sample", "--family", "gumbel", "--theta", "2", "-n", "300",
                  "--method", "generic", "--seed", "4"]
        assert run(sample + ["--out", str(pairs)], capsys)[0] == 0
        commands = {
            "verify": ["verify", "--n-random", "20", "--seed", "3",
                       "--dump-knots", str(tmp_path / "offender.csv")],
            "usage": ["verify", "--grid", "1"],
            "estimate": ["estimate", "--in", str(pairs)],
            "sample": sample,
        }
        first = {}
        for name, argv in commands.items():  # each the first call of a process: no cache filled
            cli_mod._build_parser.cache_clear()
            bounds_mod._t_grid.cache_clear()
            first[name] = run(argv, capsys)
        assert first["usage"][0] == 2 and first["verify"][0] == 0
        parser = cli_mod._build_parser()
        for name in ("verify", "usage", "estimate", "sample", "verify"):
            assert run(commands[name], capsys) == first[name], name
        assert cli_mod._build_parser() is parser
