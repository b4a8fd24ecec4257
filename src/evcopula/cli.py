"""Command-line interface.

Subcommands: ``coeffs``, ``gumbel-table``, ``bounds-curve``, ``verify``,
``sample``, ``estimate``; each is declared once, with its handler, in
``_build_parser``.  Exit codes: 0 success, 1 verification failure,
2 usage or input error, or out of memory.  Tables are CSV (TSV with
``--format tsv``) with headers; ``verify`` writes plain text lines.  Every
output has LF line endings and goes to ``--out`` or stdout; ``estimate``
reads ``--in`` or stdin.  Randomness is controlled only by ``--seed``.
"""

from __future__ import annotations

import argparse
import contextlib
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

    def command(name, run, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        return p

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

    p = command("coeffs", _cmd_coeffs, "rho, tau, lambda, beta of one copula")
    add_family(p)
    p.add_argument("--precision", type=int, default=16)
    add_io(p)

    p = command("gumbel-table", _cmd_gumbel_table, "lambda/theta/rho table of the Gumbel family")
    p.add_argument("--precision", type=int, default=3)
    add_io(p)

    p = command("bounds-curve", _cmd_bounds_curve, "coefficient bound curves over lambda")
    p.add_argument("--step", type=float, default=0.05)
    add_io(p)

    p = command("verify", _cmd_verify, "randomized sweep of all bounds")
    p.add_argument("--n-random", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--grid", type=int, default=200)
    p.add_argument("--knots-file", help="also verify this piecewise-linear A")
    p.add_argument("--dump-knots", default="violating_dependence.csv",
                   help="where to serialize an offending A on failure")
    p.add_argument("--out", help="output file (default: stdout)")

    p = command("sample", _cmd_sample, "draw (u,v) pairs from one copula")
    add_family(p)
    p.add_argument("-n", "--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--method", choices=["exact", "generic"], default="exact")
    p.add_argument("--out", help="u,v CSV output file (default: stdout)")

    p = command("estimate", _cmd_estimate, "empirical coefficients from a u,v CSV")
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


@contextlib.contextmanager
def _stream(path, mode: str):
    """``path`` opened in ``mode`` with ``newline=""``; without a path, stdout or stdin."""
    if path:
        with open(path, mode, newline="") as fh:
            yield fh
    else:
        yield sys.stdout if mode == "w" else sys.stdin


def _emit(rows, args) -> None:
    delim = "\t" if args.format == "tsv" else ","
    with _stream(args.out, "w") as fh:
        fh.write("\n".join(delim.join(str(c) for c in row) for row in rows) + "\n")


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
    cases = bounds_mod.dependence_corpus(args.n_random, args.seed)
    if args.knots_file:
        cases.append(read_knots_csv(args.knots_file))

    results = [(df, bounds_mod.verify_case(df, envelope_grid=args.grid)) for df in cases]
    failures = [(df, rep) for df, rep in results if not rep["passed"]]
    lines = [
        f"verified {len(cases)} dependence functions "
        f"(seed {args.seed}, envelope grid {args.grid})"
    ]
    for fam in sorted({rep["family"] for _, rep in results}):
        reps = [rep for _, rep in results if rep["family"] == fam]
        margin = min(min(rep["margins"].values()) for rep in reps)
        envs = [rep["envelope"] for rep in reps]
        envelope = max(max(e.max_lower_violation, e.max_upper_violation) for e in envs)
        lines.append(
            f"family={fam} n={len(reps)} worst_interval_margin={margin:.3e} "
            f"worst_envelope_violation={envelope:.3e}"
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
    with _stream(args.out, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return 1 if failures else 0


def _cmd_sample(args) -> int:
    df = _dependence_from_args(args)
    if args.family == "mo" and args.method == "exact":
        batch = mc_mod.sample_mo(df.params["alpha"], df.params["beta"], args.n, args.seed)
    else:
        batch = mc_mod.sample_generic(copula_from_pickands(df), args.n, args.seed)
    with _stream(args.out, "w") as fh:
        mc_mod.write_batch_csv(batch, fh)
    return 0


def _cmd_estimate(args) -> int:
    thresholds = tuple(float(t) for t in args.lambda_thresholds.split(",") if t.strip())
    with _stream(args.infile, "r") as fh:
        batch = mc_mod.read_pairs_csv(fh)
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


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors
        return int(exc.code or 0)
    try:
        return args.run(args)
    except (EvCopulaError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
