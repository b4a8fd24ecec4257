"""Command-line interface.

Subcommands: ``coeffs``, ``gumbel-table``, ``bounds-curve``, ``verify``,
``sample``, ``estimate``.  Exit codes: 0 success, 1 verification failure,
2 usage or input error.  All output is CSV/TSV with headers and LF line
endings; randomness is controlled only by ``--seed``.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import bounds as bounds_mod
from . import coefficients as coef_mod
from . import montecarlo as mc_mod
from .copula import copula_from_pickands
from .errors import EvCopulaError
from .pickands import (
    gumbel_dependence,
    mo_dependence,
    pareto_dependence,
    read_knots_csv,
    write_knots_csv,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evcopula",
        description="Dependence coefficients and sharp bounds for bivariate "
        "extreme value copulas.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_family(p):
        p.add_argument("--family", required=True, choices=["mo", "gumbel", "pareto", "pwl"])
        p.add_argument("--alpha", type=float)
        p.add_argument("--beta", type=float)
        p.add_argument("--theta", type=float)
        p.add_argument("--a", type=float)
        p.add_argument("--b", type=float)
        p.add_argument("--knots-file", help="CSV with columns t,A")

    def add_io(p):
        p.add_argument("--out", help="output file (default: stdout)")
        p.add_argument("--format", choices=["csv", "tsv"], default="csv")

    p = sub.add_parser("coeffs", help="rho, tau, lambda, beta of one copula")
    add_family(p)
    p.add_argument("--precision", type=int, default=16)
    add_io(p)

    p = sub.add_parser("gumbel-table", help="lambda/theta/rho table of the Gumbel family")
    p.add_argument("--precision", type=int, default=3)
    add_io(p)

    p = sub.add_parser("bounds-curve", help="coefficient bound curves over lambda")
    p.add_argument("--step", type=float, default=0.05)
    add_io(p)

    p = sub.add_parser("verify", help="randomized sweep of all bounds")
    p.add_argument("--n-random", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--grid", type=int, default=200)
    p.add_argument("--knots-file", help="also verify this piecewise-linear A")
    p.add_argument("--dump-knots", default="violating_dependence.csv",
                   help="where to serialize an offending A on failure")
    add_io(p)

    p = sub.add_parser("sample", help="draw (u,v) pairs from one copula")
    add_family(p)
    p.add_argument("-n", "--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--method", choices=["exact", "generic"], default="exact")
    p.add_argument("--out", help="u,v CSV output file (default: stdout)")

    p = sub.add_parser("estimate", help="empirical coefficients from a u,v CSV")
    p.add_argument("--in", dest="infile", help="input CSV (default: stdin)")
    p.add_argument("--lambda-thresholds", default="0.9,0.95,0.99")
    p.add_argument("--precision", type=int, default=16)
    add_io(p)
    return parser


def _dependence_from_args(args):
    if args.family == "mo":
        if args.alpha is None or args.beta is None:
            raise EvCopulaError("family 'mo' needs --alpha and --beta")
        return mo_dependence(args.alpha, args.beta)
    if args.family == "gumbel":
        if args.theta is None:
            raise EvCopulaError("family 'gumbel' needs --theta")
        return gumbel_dependence(args.theta)
    if args.family == "pareto":
        if args.a is None or args.b is None:
            raise EvCopulaError("family 'pareto' needs --a and --b")
        return pareto_dependence(args.a, args.b)
    if getattr(args, "knots_file", None) is None:
        raise EvCopulaError("family 'pwl' needs --knots-file")
    return read_knots_csv(args.knots_file)


def _emit(rows, args) -> None:
    delim = "\t" if args.format == "tsv" else ","
    text = "\n".join(delim.join(str(c) for c in row) for row in rows) + "\n"
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_coeffs(args) -> int:
    df = _dependence_from_args(args)
    cs = coef_mod.compute_coefficients(df)
    prec = args.precision
    rows = [("coefficient", "value", "method")]
    rows += [(name, f"{value:.{prec}g}", method) for name, value, method in cs.as_rows()]
    _emit(rows, args)
    return 0


def _gumbel_theta_rho(lam: float) -> tuple:
    """Gumbel theta and rho for tail coefficient ``lam``; lam = 1 gives (inf, 1)."""
    theta = coef_mod.gumbel_theta_from_lambda(lam)
    if math.isinf(theta):
        return theta, 1.0
    return theta, coef_mod.rho_numeric(gumbel_dependence(theta))


def _cmd_gumbel_table(args) -> int:
    prec = args.precision
    rows = [("lambda", "theta", "rho")]
    for i in range(11):
        lam = i / 10.0
        theta, rho = _gumbel_theta_rho(lam)
        rows.append((f"{lam:.1f}", f"{theta:.{prec}f}", f"{rho:.{prec}f}"))
    _emit(rows, args)
    return 0


def _cmd_bounds_curve(args) -> int:
    if not 0.0 < args.step <= 0.1:
        raise EvCopulaError(f"--step must lie in (0, 0.1], got {args.step}")
    n = int(round(1.0 / args.step))
    lams = [min(i * args.step, 1.0) for i in range(n + 1)]
    if lams[-1] < 1.0:
        lams.append(1.0)
    rows = [("lambda", "rho_lo", "rho_hi", "rho_gumbel", "tau_lo", "tau_hi", "tau_gumbel")]
    for lam in lams:
        ri = bounds_mod.rho_bounds(lam)
        ti = bounds_mod.tau_bounds(lam)
        _, rho_g = _gumbel_theta_rho(lam)
        tau_g = coef_mod.gumbel_tau_from_lambda(lam)
        rows.append(
            tuple(
                f"{x:.12g}"
                for x in (lam, ri.lo, ri.hi, rho_g, ti.lo, ti.hi, tau_g)
            )
        )
    _emit(rows, args)
    return 0


def _cmd_verify(args) -> int:
    if args.n_random < 1:
        raise EvCopulaError("--n-random must be >= 1")
    cases = bounds_mod.dependence_corpus(args.n_random, args.seed)
    if args.knots_file:
        cases.append(read_knots_csv(args.knots_file))

    worst = {}
    failures = []
    reports = []
    for df in cases:
        rep = bounds_mod.verify_case(df, envelope_grid=args.grid)
        reports.append((df, rep))
        key = rep["family"]
        entry = worst.setdefault(
            key, {"n": 0, "margin": float("inf"), "envelope": 0.0}
        )
        entry["n"] += 1
        entry["margin"] = min(entry["margin"], min(rep["margins"].values()))
        entry["envelope"] = max(
            entry["envelope"],
            rep["envelope"].max_lower_violation,
            rep["envelope"].max_upper_violation,
        )
        if not rep["passed"]:
            failures.append((df, rep))

    lines = [
        f"verified {len(cases)} dependence functions "
        f"(seed {args.seed}, envelope grid {args.grid})"
    ]
    for fam in sorted(worst):
        w = worst[fam]
        lines.append(
            f"family={fam} n={w['n']} worst_interval_margin={w['margin']:.3e} "
            f"worst_envelope_violation={w['envelope']:.3e}"
        )
    if failures:
        df, rep = failures[0]
        write_knots_csv(args.dump_knots, df)
        lines.append(
            f"FAIL: {len(failures)} violation(s); first offender family={rep['family']} "
            f"lambda={rep['lambda']:.6f} serialized to {args.dump_knots}"
        )
    else:
        lines.append("PASS: no violations")
    _emit([(line,) for line in lines], args)
    return 1 if failures else 0


def _cmd_sample(args) -> int:
    df = _dependence_from_args(args)
    if args.family == "mo" and args.method == "exact":
        batch = mc_mod.sample_mo(df.params["alpha"], df.params["beta"], args.n, args.seed)
    else:
        batch = mc_mod.sample_generic(copula_from_pickands(df), args.n, args.seed)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            mc_mod.write_batch_csv(batch, fh)
    else:
        mc_mod.write_batch_csv(batch, sys.stdout)
    return 0


def _cmd_estimate(args) -> int:
    thresholds = tuple(float(t) for t in args.lambda_thresholds.split(",") if t.strip())
    if args.infile:
        with open(args.infile, newline="") as fh:
            batch = mc_mod.read_pairs_csv(fh)
    else:
        batch = mc_mod.read_pairs_csv(sys.stdin)
    est = mc_mod.empirical_coefficients(batch, thresholds)
    prec = args.precision
    rows = [("statistic", "value")]
    rows.append(("rho_hat", f"{est.rho_hat:.{prec}g}"))
    rows.append(("tau_hat", f"{est.tau_hat:.{prec}g}"))
    rows.append(("beta_hat", f"{est.beta_hat:.{prec}g}"))
    for t, lam in est.lambda_hat:
        rows.append((f"lambda_hat@{t:g}", f"{lam:.{prec}g}"))
    rows.append(("lambda_summary", f"{est.lambda_summary:.{prec}g}"))
    _emit(rows, args)
    return 0


_DISPATCH = {
    "coeffs": _cmd_coeffs,
    "gumbel-table": _cmd_gumbel_table,
    "bounds-curve": _cmd_bounds_curve,
    "verify": _cmd_verify,
    "sample": _cmd_sample,
    "estimate": _cmd_estimate,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors
        return int(exc.code or 0)
    try:
        return _DISPATCH[args.command](args)
    except (EvCopulaError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
