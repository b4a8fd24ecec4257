"""Command-line interface.

Subcommands: ``coeffs``, ``gumbel-table``, ``bounds-curve``, ``verify``,
``sample``, ``estimate``; each is declared once, with its handler, in
``_build_parser``.  The parser is built once per process, on the first
:func:`main` call, and every later call reuses it.  Exit codes: 0
success, 1 verification failure, 2 usage or input error, or out of
memory.  Tables are CSV (TSV with ``--format tsv``) with headers;
``verify`` writes plain text lines.  Every output has LF line endings and
goes to ``--out`` or stdout; ``estimate`` reads ``--in`` or stdin.
Every subcommand checks its flags, then opens ``--out``, then starts its
work, so a bad flag or an unopenable ``--out`` costs no work; ``estimate``
opens ``--out`` before ``--in``.  A family's flags are declared, checked
and turned into a dependence function from one table, ``_FAMILIES``.
Randomness is controlled only by ``--seed``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import sys

from . import bounds as bounds_mod
from . import coefficients as coef_mod
from . import montecarlo as mc_mod
from .copula import copula_from_pickands
from .errors import EvCopulaError, check_int, check_real
from .pickands import (
    gumbel_dependence,
    mo_dependence,
    pareto_dependence,
    read_knots_csv,
    write_knots_csv,
)


_MAX_PRECISION = 17  # significant digits that round-trip a double
_VERIFY_BLOCK = 48  # verify cases integrated in one batch, so memory does not grow with --n-random


def _flag(parse):
    """argparse type from ``parse(text)``; a ValueError it raises is a usage error naming the flag."""

    def typed(text):
        try:
            return parse(text)
        except ValueError as exc:  # not a number, or out of range
            raise argparse.ArgumentTypeError(str(exc)) from None

    return typed


def _int_flag(name: str, lo: int, hi: int | None = None):
    """argparse type for an integer flag checked by ``check_int``."""
    return _flag(lambda text: check_int(int(text), name, lo, hi))


def _thresholds(text: str) -> tuple:
    """Comma-separated tail thresholds, each a number in (0, 1); empty items are skipped."""
    return mc_mod.check_thresholds([float(t) for t in text.split(",") if t.strip()])


# --family name: (the flags it needs, its builder from their values).  Each
# builder looks its function up by name when called, so a patched
# ``cli.gumbel_dependence`` is the one that runs.
_FAMILIES = {
    "mo": (("alpha", "beta"), lambda alpha, beta: mo_dependence(alpha, beta)),
    "gumbel": (("theta",), lambda theta: gumbel_dependence(theta)),
    "pareto": (("a", "b"), lambda a, b: pareto_dependence(a, b)),
    "pwl": (("knots-file",), lambda path: read_knots_csv(path)),
}


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evcopula",
        description="Dependence coefficients and sharp bounds for bivariate "
        "extreme value copulas.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    @contextlib.contextmanager
    def command(name, run, help, table=False):
        """Subcommand ``name``: the block's flags, then ``--out`` and, for a table, ``--format``."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        yield p
        p.add_argument("--out", help="output file (default: stdout)")
        if table:
            p.add_argument("--format", choices=["csv", "tsv"], default="csv")

    def add_family(p):
        p.add_argument("--family", required=True, choices=_FAMILIES)
        for flag in [f for flags, _ in _FAMILIES.values() for f in flags if f != "knots-file"]:
            p.add_argument(f"--{flag}", type=float)
        p.add_argument("--knots-file", help="CSV with columns t,A")

    with command("coeffs", _cmd_coeffs, "rho, tau, lambda, beta of one copula", table=True) as p:
        add_family(p)
        p.add_argument("--precision", type=_int_flag("precision", 1, _MAX_PRECISION), default=16)

    with command("gumbel-table", _cmd_gumbel_table,
                 "lambda/theta/rho table of the Gumbel family", table=True) as p:
        p.add_argument("--precision", type=_int_flag("precision", 0, _MAX_PRECISION), default=3)

    with command("bounds-curve", _cmd_bounds_curve, "coefficient bound curves over lambda", table=True) as p:
        step = _flag(lambda text: check_real(float(text), "step", 1e-4, 0.1))
        p.add_argument("--step", type=step, default=0.05)

    with command("verify", _cmd_verify, "randomized sweep of all bounds") as p:
        p.add_argument("--n-random", type=_int_flag("n", 1), default=100)
        p.add_argument("--seed", type=_int_flag("seed", 0), default=0)
        p.add_argument("--grid", type=_int_flag("grid", 2), default=200,
                       help="envelope resolution: A is checked at 16 (grid - 1) + 1 equispaced t "
                       "plus its kinks and those of both bounds (default: 200)")
        p.add_argument("--knots-file", help="also verify this piecewise-linear A")
        p.add_argument("--dump-knots", default="violating_dependence.csv",
                       help="where to serialize an offending A on failure")

    with command("sample", _cmd_sample, "draw (u,v) pairs from one copula") as p:
        add_family(p)
        p.add_argument("-n", "--n", type=_int_flag("n", 1), required=True)
        p.add_argument("--seed", type=_int_flag("seed", 0), default=0)
        p.add_argument("--method", choices=["exact", "generic"], default="exact")

    with command("estimate", _cmd_estimate, "empirical coefficients from a u,v CSV", table=True) as p:
        p.add_argument("--in", dest="infile", help="input CSV (default: stdin)")
        p.add_argument("--lambda-thresholds", type=_flag(_thresholds), default="0.9,0.95,0.99",
                       help="comma-separated tail thresholds in (0, 1) (default: 0.9,0.95,0.99)")
        p.add_argument("--precision", type=_int_flag("precision", 1, _MAX_PRECISION), default=16)
    return parser


def _dependence_from_args(args):
    flags, build = _FAMILIES[args.family]
    values = [getattr(args, flag.replace("-", "_")) for flag in flags]
    if None in values:
        needs = " and ".join(f"--{flag}" for flag in flags)
        raise EvCopulaError(f"family '{args.family}' needs {needs}")
    return build(*values)


@contextlib.contextmanager
def _stream(path, mode: str):
    """``path`` opened in ``mode`` with ``newline=""``; without a path, stdout or stdin."""
    if path is None:
        yield sys.stdout if mode == "w" else sys.stdin
    else:
        with open(path, mode, newline="") as fh:
            yield fh


def _table(rows, args) -> str:
    delim = "\t" if args.format == "tsv" else ","
    return "\n".join(delim.join(str(c) for c in row) for row in rows) + "\n"


def _cmd_coeffs(args) -> int:
    df = _dependence_from_args(args)
    with _stream(args.out, "w") as fh:
        cs = coef_mod.compute_coefficients(df)
        prec = args.precision
        rows = [("coefficient", "value", "method")]
        rows += [(name, f"{value:.{prec}g}", method) for name, value, method in cs.as_rows()]
        fh.write(_table(rows, args))
    return 0


def _gumbel_theta_rho(lam: float) -> tuple:
    """Gumbel theta and rho for tail coefficient ``lam``; lam = 1 gives (inf, 1)."""
    theta = coef_mod.gumbel_theta_from_lambda(lam)
    if math.isinf(theta):
        return theta, 1.0
    return theta, coef_mod.rho_numeric(gumbel_dependence(theta))


def _cmd_gumbel_table(args) -> int:
    with _stream(args.out, "w") as fh:
        prec = args.precision
        rows = [("lambda", "theta", "rho")]
        for i in range(11):
            lam = i / 10.0
            theta, rho = _gumbel_theta_rho(lam)
            rows.append((f"{lam:.1f}", f"{theta:.{prec}f}", f"{rho:.{prec}f}"))
        fh.write(_table(rows, args))
    return 0


def _cmd_bounds_curve(args) -> int:
    with _stream(args.out, "w") as fh:
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
        fh.write(_table(rows, args))
    return 0


def _cmd_verify(args) -> int:
    knots = [read_knots_csv(args.knots_file)] if args.knots_file else []
    with _stream(args.out, "w") as fh:
        cases = bounds_mod.dependence_corpus(args.n_random, args.seed) + knots
        results = []
        for s in range(0, len(cases), _VERIFY_BLOCK):
            block = cases[s : s + _VERIFY_BLOCK]
            results += zip(block, bounds_mod._verify_many(block, envelope_grid=args.grid))
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
        fh.write("\n".join(lines) + "\n")
        return 1 if failures else 0


def _cmd_sample(args) -> int:
    df = _dependence_from_args(args)
    with _stream(args.out, "w") as fh:
        if args.family == "mo" and args.method == "exact":
            batch = mc_mod.sample_mo(*df.exact, args.n, args.seed)
        else:
            batch = mc_mod.sample_generic(copula_from_pickands(df), args.n, args.seed)
        mc_mod.write_batch_csv(batch, fh)
    return 0


def _cmd_estimate(args) -> int:
    with _stream(args.out, "w") as out:
        with _stream(args.infile, "r") as fh:
            batch = mc_mod.read_pairs_csv(fh)
        est = mc_mod.empirical_coefficients(batch, args.lambda_thresholds)
        prec = args.precision
        rows = [("statistic", "value")]
        rows.append(("rho_hat", f"{est.rho_hat:.{prec}g}"))
        rows.append(("tau_hat", f"{est.tau_hat:.{prec}g}"))
        rows.append(("beta_hat", f"{est.beta_hat:.{prec}g}"))
        for t, lam in est.lambda_hat:
            rows.append((f"lambda_hat@{t:g}", f"{lam:.{prec}g}"))
        rows.append(("lambda_summary", f"{est.lambda_summary:.{prec}g}"))
        out.write(_table(rows, args))
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
