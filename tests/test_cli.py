"""Command-line surface: outputs, exit codes, determinism."""

import io
import math

import numpy as np
import pytest

from evcopula.cli import main


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

        real_case = cli_mod.bounds_mod.verify_case

        def broken_case(df, envelope_grid=200):
            rep = real_case(df, envelope_grid=envelope_grid)
            rep["passed"] = False
            return rep

        monkeypatch.setattr(cli_mod.bounds_mod, "verify_case", broken_case)
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
        # dependence_corpus checks the count; the CLI has no copy of the check
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
        # both samplers check n themselves; the CLI has no copy of the check
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
