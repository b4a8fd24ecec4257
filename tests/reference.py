"""Helpers that no command or criterion of the package calls, kept as test oracles.

``partial_u`` is the conditional distribution dC/du of a copula, the
oracle of the generic sampler, which inverts its own form of it.
``integrate`` and ``tangent_at_half`` are the quadrature over checked
split points and the supporting tangent at t = 1/2, through the private
engines that ``rho_numeric``, ``tau_numeric`` and the bounds call.
``validate`` checks any callable A on a uniform grid: the band, the
endpoints and midpoint convexity over all grid pairs.  It is the grid
oracle for the family and property tests; the package itself validates
only piecewise-linear knots, exactly.  The survival transform, the
diagonal exponent, the classical rho-tau region and the Blomqvist <->
lambda conversion are closed forms of the copula literature, tested here
against known values.

``exact_piece_slopes`` is the slope of each piece of an MO or tangent
build, from its parameters in exact arithmetic.  ``pwl_rho_tau`` is rho
and tau of a piecewise-linear A as exact sums over its knots, the oracle
of the quadrature on every knot, MO and tangent function.

The ``retired_*`` functions are package paths as they were before they
were cut down, kept so that ``test_oracles`` can hold the new paths to
their bits: the split-point check that ran ``check_real`` on each point,
the knot builders that ran ``np.union1d``, ``np.unique`` and
``np.diff(prepend=...)``, the sampler table that built one
``np.linspace`` per panel, and the inversion that ran secant steps in
every cell, linear or not.  ``read_pairs_loadtxt`` is the pair reader
that handed every non-blank line to ``np.loadtxt``.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from evcopula import DegenerateSampleError, DependenceFunction, ParamOutOfRangeError, SampleBatch, ValidationReport
from evcopula.errors import check_int, check_pair, check_real, check_split_points, check_unit_interval
from evcopula.montecarlo import _PANEL_NODES, _V_RESOLUTION, _phi, _psi_m
from evcopula.numerics import _integrate_many
from evcopula.pickands import _CHECK_TOL as _KNOT_TOL
from evcopula.pickands import _bulge, _tangent, check_lambda, lambda_upper

_CHECK_TOL = 1e-9


def diag_exponent(copula) -> float:
    """Exponent in the diagonal law ``C(u, u) = u**diag_exponent``."""
    return 2.0 * copula.dependence(0.5)


def integrate(f, split_points=()) -> float:
    """Integral of ``f`` over [0, 1] to ``1e-12 + 1e-10 |I|``; split points checked by ``check_split_points``."""
    edges = check_split_points(split_points)
    return float(_integrate_many(lambda x, rows: f(x), [edges])[0])


def tangent_at_half(df) -> tuple:
    """Parameters (a, b) of the supporting tangent line of ``df`` at t = 1/2."""
    return _tangent(df, lambda_upper(df))


def partial_u(copula, u, v):
    """Conditional distribution ``P(V <= v | U = u) = dC/du``.

    At kink-induced jump curves the right limit in v is returned, so
    ``v -> partial_u(copula, u, v)`` is a right-continuous CDF.  Because t
    decreases in v, that corresponds to the left derivative of the
    dependence function.
    """
    u, v = np.broadcast_arrays(*check_pair(u, v))
    if not np.all((u > 0.0) & (u <= 1.0)):
        raise ParamOutOfRangeError("partial_u requires u in (0, 1]")
    out = np.where(v >= 1.0, 1.0, 0.0)
    interior = (v > 0.0) & (v < 1.0)
    lu = np.log(u[interior])
    lv = np.log(v[interior])
    w = lu + lv
    t = np.clip(lv / w, 0.0, 1.0)
    a = copula.dependence.eval_fn(t)
    da = copula.dependence.deriv_fn(t, "left")
    out[interior] = np.exp(w * a - lu) * (a - t * da)
    np.clip(out, 0.0, 1.0, out=out)
    return float(out) if out.ndim == 0 else out


def survival(copula, u, v):
    """Survival transform ``u + v - 1 + C(1 - u, 1 - v)``.

    ``copula`` may be any evaluator of two arguments; applying the
    transform twice recovers the original values.
    """
    u, v = check_unit_interval(u, "u"), check_unit_interval(v, "v")
    return u + v - 1.0 + copula(1.0 - u, 1.0 - v)


def classical_region(tau: float) -> tuple:
    """Classical (all-copulas) rho range for a given tau."""
    tau = check_real(tau, "tau", -1.0, 1.0)
    if tau >= 0.0:
        return (3.0 * tau - 1.0) / 2.0, (1.0 + 2.0 * tau - tau * tau) / 2.0
    return (tau * tau + 2.0 * tau - 1.0) / 2.0, (1.0 + 3.0 * tau) / 2.0


def blomqvist_from_lambda(lam: float) -> float:
    """Blomqvist beta of an EV copula with tail coefficient lam: ``2**lam - 1``."""
    lam = check_lambda(lam)
    return 2.0**lam - 1.0


def lambda_from_blomqvist(beta: float) -> float:
    """Tail coefficient from Blomqvist beta: ``log2(1 + beta)``."""
    return float(np.log2(1.0 + check_real(beta, "beta", 0.0, 1.0)))


def exact_piece_slopes(df) -> np.ndarray:
    """The slope of each piece of an MO, tangent or Gumbel theta = 1 build, between its ``edges``.

    It is the slope of the closed-form branch that A follows at the piece's
    midpoint, found in exact rational arithmetic from ``df.exact`` and
    rounded once to a float: -beta or alpha for MO; -1, a - b or 1 for the
    tangent family; 0 for Gumbel theta = 1.
    """
    edges = [Fraction(t) for t in df.edges.tolist()]
    params = [Fraction(p) for p in df.exact]
    slopes = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        t = (lo + hi) / 2
        if df.family == "gumbel":
            branches = [(Fraction(1), Fraction(0))]
        elif df.family == "marshall_olkin":  # A = max(1 - beta t, 1 - alpha (1 - t))
            alpha, beta = params
            branches = [(1 - beta * t, -beta), (1 - alpha * (1 - t), alpha)]
        else:  # A = max(1 - t, t, (1 - a)(1 - t) + (1 - b) t)
            a, b = params
            branches = [(1 - t, Fraction(-1)), (t, Fraction(1)), ((1 - a) * (1 - t) + (1 - b) * t, a - b)]
        slopes.append(float(max(branches, key=lambda branch: branch[0])[1]))
    return np.array(slopes)


def pwl_rho_tau(ts, vs, slopes=None) -> tuple:
    """Rho and tau of the piecewise-linear A through the knots ``(ts, vs)``, each rounded once.

    Over a linear piece, ``integral dt / (A + 1)^2`` is
    ``(t_{i+1} - t_i) / ((A_i + 1)(A_{i+1} + 1))``, so
    ``rho = 12 sum (t_{i+1} - t_i) / ((A_i + 1)(A_{i+1} + 1)) - 3``; tau is the
    Stieltjes sum ``sum t_k (1 - t_k) (A'(t_k+) - A'(t_k-)) / A(t_k)`` over the
    interior knots.  ``slopes``, one per piece, are the pieces' A'; they
    default to the knot differences.  Both sums run in exact rational
    arithmetic on the floats given.
    """
    ts = [Fraction(t) for t in np.asarray(ts, dtype=float).tolist()]
    vs = [Fraction(v) for v in np.asarray(vs, dtype=float).tolist()]
    if slopes is None:
        slopes = [(v1 - v0) / (t1 - t0) for t0, t1, v0, v1 in zip(ts, ts[1:], vs, vs[1:])]
    else:
        slopes = [Fraction(d) for d in np.asarray(slopes, dtype=float).tolist()]
    rho = 12 * sum((t1 - t0) / ((v0 + 1) * (v1 + 1)) for t0, t1, v0, v1 in zip(ts, ts[1:], vs, vs[1:])) - 3
    tau = sum(t * (1 - t) * (right - left) / v for t, v, left, right in zip(ts[1:-1], vs[1:-1], slopes, slopes[1:]))
    return float(rho), float(tau)


def _band_violations(t: np.ndarray, a: np.ndarray) -> list:
    """Non-finite, endpoint, envelope and upper-bound violations of ``a`` at increasing ``t``.

    Non-finite and band violations come in increasing t, at most the first
    50 of each kind; no t can be both below the envelope and above 1.
    """
    bad = [(float(t[i]), "non_finite", math.inf) for i in np.flatnonzero(~np.isfinite(a))[:50]]
    bad += [
        (end, "endpoint", abs(float(v) - 1.0))
        for end, v in ((0.0, a[0]), (1.0, a[-1]))
        if abs(v - 1.0) > _CHECK_TOL
    ]
    low = np.maximum(t, 1.0 - t) - a
    high = a - 1.0
    below = np.flatnonzero(low > _CHECK_TOL)[:50]
    above = np.flatnonzero(high > _CHECK_TOL)[:50]
    for i in np.union1d(below, above):
        kind, gap = ("envelope", low[i]) if low[i] > _CHECK_TOL else ("upper_bound", high[i])
        bad.append((float(t[i]), kind, float(gap)))
    return bad


def validate(fn, grid_size: int = 2048) -> ValidationReport:
    """Check a candidate dependence function on a uniform grid.

    Verifies that A is finite, the endpoint condition, the band
    ``max(t, 1-t) <= A <= 1``, and midpoint convexity over all grid pairs,
    each with absolute tolerance 1e-9.  Declared split points of a
    :class:`DependenceFunction` are added to the grid.  The report lists
    the grid points where A is not finite, the endpoint violations, then
    the envelope and upper-bound violations in increasing t (at most 50 of
    each kind), then the worst convexity violation.  A non-finite A at a
    grid point or midpoint ends the check, with the midpoint, if any,
    reported last as ``non_finite``.
    """
    grid = np.linspace(0.0, 1.0, check_int(grid_size, "grid_size", 3))
    if isinstance(fn, DependenceFunction) and fn.split_points:
        grid = np.union1d(grid, np.asarray(fn.split_points))
    vals = np.asarray(fn(grid), dtype=float)
    bad = _band_violations(grid, vals)
    if not np.isfinite(vals).all():
        return ValidationReport(valid=False, violations=tuple(bad))

    # midpoint convexity over all pairs, in row blocks to bound memory
    worst = (-np.inf, 0.0)
    count = 0
    block = 128
    for start in range(0, len(grid), block):
        s = grid[start : start + block, None]
        mids = 0.5 * (s + grid[None, :])
        mid_vals = np.asarray(fn(mids), dtype=float)
        if not np.isfinite(mid_vals).all():
            bad.append((float(mids[~np.isfinite(mid_vals)][0]), "non_finite", math.inf))
            return ValidationReport(valid=False, violations=tuple(bad))
        gap = mid_vals - 0.5 * (vals[start : start + block, None] + vals[None, :])
        over = gap > _CHECK_TOL
        count += int(over.sum())
        if over.any():
            i, j = np.unravel_index(np.argmax(gap), gap.shape)
            if gap[i, j] > worst[0]:
                worst = (float(gap[i, j]), float(mids[i, j]))
    if count:
        bad.append((worst[1], "convexity", worst[0]))

    return ValidationReport(valid=not bad, violations=tuple(bad))


def retired_split_edges(points) -> np.ndarray:
    """The split-point check of ``integrate`` as it was: ``check_real`` on each point in turn."""
    if not np.iterable(points):
        raise ParamOutOfRangeError(f"split points must be a sequence, got {points!r}")
    edges = np.array([0.0, *(check_real(p, "split point", 0.0, 1.0) for p in points), 1.0])
    if not (edges[:-1] < edges[1:]).all():
        raise ParamOutOfRangeError("split points must increase strictly inside (0, 1)")
    return edges


def retired_distinct(ts, vs) -> tuple:
    """The distinct-knot rule as it was, through ``np.diff(prepend=-inf)``."""
    keep = (np.diff(ts, prepend=-np.inf) > 1e-12) & (ts < ts[-1] - 1e-12)
    keep[-1] = True
    return ts[keep], vs[keep]


def retired_pwl_max(ta, va, tb, vb) -> tuple:
    """The knots of the maximum of two piecewise-linear functions as they were, through ``np.union1d``."""
    ts = np.union1d(ta, tb)
    d = np.interp(ts, ta, va) - np.interp(ts, tb, vb)
    i = np.flatnonzero(d[:-1] * d[1:] < 0.0)
    t = np.union1d(ts, ts[i] + (ts[i + 1] - ts[i]) * d[i] / (d[i] - d[i + 1]))
    return retired_distinct(t, np.maximum(np.interp(t, ta, va), np.interp(t, tb, vb)))


def retired_random_convex_knots(rng) -> np.ndarray:
    """The ``(k, 2)`` knots ``bounds._random_convex_pwl`` drew as it was, through ``np.unique``."""
    k = int(rng.integers(2, 9))
    ts = np.sort(0.02 + 0.96 * rng.random(k))
    grid = np.concatenate([[0.0], np.unique(ts), [1.0]])
    slopes = np.sort(rng.uniform(-1.0, 1.0, grid.size - 1))
    vals = 1.0 + np.concatenate([[0.0], np.cumsum(slopes * np.diff(grid))])
    vals -= (vals[-1] - 1.0) * grid
    vals[0] = 1.0
    vals[-1] = 1.0
    envelope = np.array([0.0, 0.5, 1.0]), np.array([1.0, 0.5, 1.0])
    return np.column_stack(retired_pwl_max(grid, vals, *envelope))


def retired_union_structural_report(ts, vs) -> ValidationReport:
    """The knot check as it was, with ``np.union1d`` for the probe points and the band violations."""
    ends = ((float(ts[0]), 0.0), (float(ts[-1]), 1.0))
    bad = [(t, "domain", abs(t - end)) for t, end in ends if abs(t - end) > _KNOT_TOL]
    bad += [
        (end, "endpoint", abs(float(v) - 1.0))
        for end, v in ((0.0, vs[0]), (1.0, vs[-1]))
        if abs(v - 1.0) > _KNOT_TOL
    ]
    t = np.union1d(ts, [0.5])
    a = np.interp(t, ts, vs)
    low = np.maximum(t, 1.0 - t) - a
    below = np.flatnonzero(low > _KNOT_TOL)[:50]
    above = np.flatnonzero(a - 1.0 > _KNOT_TOL)[:50]
    for i in np.union1d(below, above):
        kind, gap = ("envelope", low[i]) if low[i] > _KNOT_TOL else ("upper_bound", a[i] - 1.0)
        bad.append((float(t[i]), kind, float(gap)))
    bulge = _bulge(ts, vs)
    for i in np.flatnonzero(bulge > _KNOT_TOL):
        bad.append((float(ts[i + 1]), "convexity", float(bulge[i])))
    return ValidationReport(valid=not bad, violations=tuple(bad))


def retired_phi_table(df) -> tuple:
    """The sampler's inversion table as it was: one ``np.linspace`` per panel, then a concatenation."""
    edges = np.array([0.0, *df.split_points, 1.0])
    panels = [np.linspace(lo, hi, _PANEL_NODES) for lo, hi in zip(edges[:-1], edges[1:])]
    t = np.concatenate(panels)
    da = df.deriv_fn(t, "left")
    starts = np.cumsum([len(p) for p in panels[:-1]], dtype=np.intp)
    da[starts] = df.deriv_fn(t[starts], "right")
    q = np.append(t[:-1] / (1.0 - t[:-1]), np.inf)
    psi, m = _psi_m(df.eval_fn(t), da, t, q)
    pad = (1 << (len(q) - 1).bit_length()) - len(q)
    return tuple(np.append(arr, np.full(pad, arr[-1])) for arr in (q, psi, m))


def retired_invert(df, table, x, e):
    """The sampler's inversion as it was: secant steps in every cell of a ``retired_phi_table``."""
    q, psi, m = table
    j = np.zeros(len(x), dtype=np.intp)
    step = len(q) // 2
    while step:
        k = j + step
        j += step * (x * psi[k] + m[k] <= e)
        step //= 2
    a, b = q[j], q[j + 1]
    fa = x * psi[j] + m[j] - e
    fb = x * psi[j + 1] + m[j + 1] - e
    last = np.flatnonzero(np.isinf(b))
    b[last] = 1.0 + e[last] / x[last]
    fb[last] = _phi(df, x[last], b[last]) - e[last]
    out = a.copy()
    tol = _V_RESOLUTION / np.maximum(x * np.exp(-x * a), 1e-300)
    idx = np.flatnonzero(b - a > tol)
    a, b, c0, f0, c1, f1, x, e, tol = (arr[idx] for arr in (a, b, b, fb, a, fa, x, e, tol))
    mark = b - a
    steps = 0
    while idx.size:
        steps += 1
        with np.errstate(invalid="ignore"):
            c = c1 - f1 * (c1 - c0) / (f1 - f0)
        secant = (a <= c) & (c <= b) & np.isfinite(f0)
        if steps % 4 == 0:
            secant &= b - a <= 0.5 * mark
            mark = b - a
        c = np.where(secant, c, 0.5 * (a + b))
        c = np.minimum(np.maximum(c, a + 0.5 * tol), b - 0.5 * tol)
        fc = _phi(df, x, c) - e
        up = fc > 0.0
        a, b = np.where(up, a, c), np.where(up, c, b)
        c0, f0, c1, f1 = c1, f1, c, fc
        out[idx] = a
        keep = np.flatnonzero(b - a > tol)
        idx, a, b, c0, f0, c1, f1, x, e, tol, mark = (
            arr[keep] for arr in (idx, a, b, c0, f0, c1, f1, x, e, tol, mark)
        )
    return out


def read_pairs_loadtxt(stream) -> SampleBatch:
    """The pair reader as it was: every non-blank line of the stream through one ``np.loadtxt`` call."""
    header = stream.readline().strip()
    if [c.strip().lower() for c in header.split(",")[:2]] != ["u", "v"]:
        raise DegenerateSampleError("expected CSV header 'u,v'")
    rows = (line for line in stream if not line.isspace())
    first = next(rows, None)
    if first is None:
        raise DegenerateSampleError("no sample rows in input")
    lines = itertools.chain((first,), rows)
    try:
        data = np.loadtxt(lines, delimiter=",", usecols=(0, 1), ndmin=2, comments=None)
    except ValueError as exc:
        raise DegenerateSampleError(str(exc)) from None
    if not np.isfinite(data).all():
        raise DegenerateSampleError("coordinates must be finite numbers")
    u, v = data[:, 0], data[:, 1]
    if np.any((u < 0) | (u > 1) | (v < 0) | (v > 1)):
        raise DegenerateSampleError("coordinates must lie in [0, 1]")
    return SampleBatch(u, v, seed=-1, generator="file")
