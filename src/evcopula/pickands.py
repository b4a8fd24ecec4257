"""Pickands dependence functions: construction, validation, and geometry.

A dependence function A on [0, 1] is convex, satisfies
``max(t, 1-t) <= A(t) <= 1`` and ``A(0) = A(1) = 1``.  Every bivariate
extreme value copula is induced by exactly one such function.  This module
provides the Marshall-Olkin, Gumbel and tangent (Pareto-bound) families,
arbitrary piecewise-linear convex functions, convex mixtures, a grid
validator, and the supporting-tangent construction at t = 1/2.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidDependenceFunctionError, check_int, check_real, check_unit_interval

_KINK_TOL = 1e-12
_CHECK_TOL = 1e-9

ENVELOPE_KNOTS = ((0.0, 1.0), (0.5, 0.5), (1.0, 1.0))


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the constraint checks; ``valid`` iff no violations."""

    valid: bool
    violations: tuple


@dataclass(frozen=True)
class DependenceFunction:
    """A validated Pickands dependence function: A, A' and split points.

    ``split_points`` lists, in increasing order, the points strictly inside
    (0, 1) where a quadrature panel must end: every jump of A' (the kinks
    of piecewise-linear functions) and, for Gumbel, the edges of its
    narrow curvature spike at t = 1/2.  A is defined on [0, 1] only:
    calling the function or :meth:`deriv` with t outside [0, 1] or NaN
    raises :class:`ParamOutOfRangeError`.  ``second_fn`` is always None and
    nothing reads it.  Instances are immutable and safe to share across
    threads.
    """

    family: str
    params: dict = field(compare=False)
    split_points: tuple
    eval_fn: object = field(repr=False, compare=False)
    deriv_fn: object = field(repr=False, compare=False)
    # unused; kept only because perfbench/tracer.py passes it to dataclasses.replace
    second_fn: object = field(default=None, repr=False, compare=False)

    def __call__(self, t):
        arr = check_unit_interval(t, "t")
        out = self.eval_fn(arr)
        return float(out) if np.ndim(t) == 0 else out

    def deriv(self, t, side: str = "right"):
        """One-sided derivative; ``side`` is 'left' or 'right'."""
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        arr = check_unit_interval(t, "t")
        out = self.deriv_fn(arr, side)
        return float(out) if np.ndim(t) == 0 else out


# ---------------------------------------------------------------------------
# parameter checks, shared by constructors, closed forms, samplers and bounds
# ---------------------------------------------------------------------------


def check_mo(alpha: float, beta: float) -> tuple:
    """Marshall-Olkin parameters: ``alpha, beta`` in [0, 1], returned as floats."""
    return check_real(alpha, "alpha", 0.0, 1.0), check_real(beta, "beta", 0.0, 1.0)


def check_tangent(a: float, b: float) -> tuple:
    """Tangent-family parameters: ``a, b >= 0`` and ``a + b <= 1``, returned as floats."""
    a = check_real(a, "a", 0.0, 1.0)
    return a, check_real(b, "b", 0.0, 1.0 + 1e-12 - a)


def check_lambda(lam: float) -> float:
    """Tail coefficient in [0, 1] (not a bool), returned as a float."""
    return check_real(lam, "lambda", 0.0, 1.0)


def check_theta(theta: float) -> float:
    """Gumbel parameter: a finite real number (not a bool) >= 1, returned as a float."""
    return check_real(theta, "theta", 1.0, np.finfo(float).max)


# ---------------------------------------------------------------------------
# piecewise-linear machinery
# ---------------------------------------------------------------------------


def _pwl(ts, vs, family: str, params: dict, eval_fn=None) -> DependenceFunction:
    """Dependence function through the knot arrays ``(ts, vs)``, linear between them.

    A' is the slope of the piece to the left or right of t, and the split
    points are the interior knots where the slope rises by more than
    ``_KINK_TOL``.  A is ``np.interp`` over the knots unless ``eval_fn``
    gives a family's closed form.
    """
    slopes = np.diff(vs) / np.diff(ts)
    last = len(slopes) - 1

    def deriv_fn(t, side):
        idx = np.searchsorted(ts, t, side=side) - 1
        return slopes[np.clip(idx, 0, last)]

    return DependenceFunction(
        family=family,
        params=params,
        split_points=tuple(ts[1:-1][np.diff(slopes) > _KINK_TOL].tolist()),
        eval_fn=eval_fn if eval_fn is not None else lambda t: np.interp(t, ts, vs),
        deriv_fn=deriv_fn,
    )


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


def _structural_report(ts: np.ndarray, vs: np.ndarray) -> ValidationReport:
    """Exact constraint checks for a piecewise-linear candidate."""
    bad = []
    if abs(ts[0]) > _CHECK_TOL or abs(ts[-1] - 1.0) > _CHECK_TOL:
        bad.append((float(ts[0]), "domain", abs(float(ts[0]))))
    # linear pieces make knots (plus the envelope kink at 1/2) sufficient
    probe = np.union1d(ts, [0.5])
    bad += _band_violations(probe, np.interp(probe, ts, vs))
    rise = np.diff(np.diff(vs) / np.diff(ts))
    for i in np.flatnonzero(rise < -_CHECK_TOL):
        bad.append((float(ts[i + 1]), "convexity", float(-rise[i])))
    return ValidationReport(valid=not bad, violations=tuple(bad))


def _pwl_max(ta: np.ndarray, va: np.ndarray, tb: np.ndarray, vb: np.ndarray) -> tuple:
    """Knots ``(t, A)`` of the pointwise maximum of two piecewise-linear functions."""
    ts = np.union1d(ta, tb)
    d = np.interp(ts, ta, va) - np.interp(ts, tb, vb)
    i = np.flatnonzero(d[:-1] * d[1:] < 0.0)
    t = np.union1d(ts, ts[i] + (ts[i + 1] - ts[i]) * d[i] / (d[i] - d[i + 1]))
    # of two points within 1e-12 the first stays, except that t = 1 always stays
    keep = np.concatenate([[True], np.diff(t) > 1e-12]) & (t < t[-1] - 1e-12)
    t = np.append(t[keep], t[-1])
    return t, np.maximum(np.interp(t, ta, va), np.interp(t, tb, vb))


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------


def mo_dependence(alpha: float, beta: float) -> DependenceFunction:
    """Marshall-Olkin dependence function ``1 - min(beta*t, alpha*(1-t))``.

    Piecewise linear with a single kink at ``alpha / (alpha + beta)``;
    either parameter equal to zero collapses to independence (A == 1).
    """
    alpha, beta = check_mo(alpha, beta)

    def eval_fn(t):
        return 1.0 - np.minimum(beta * t, alpha * (1.0 - t))

    tstar = alpha / (alpha + beta) if alpha + beta > 0.0 else 0.0
    if alpha == 0.0 or beta == 0.0 or not 1e-12 < tstar < 1.0 - 1e-12:
        # no kink, or one indistinguishable from the boundary
        knots = [(0.0, 1.0), (1.0, 1.0)]
    else:
        knots = [(0.0, 1.0), (tstar, 1.0 - alpha * beta / (alpha + beta)), (1.0, 1.0)]
    return _pwl(*np.transpose(knots), "marshall_olkin", {"alpha": alpha, "beta": beta}, eval_fn)


def gumbel_dependence(theta: float) -> DependenceFunction:
    """Gumbel dependence function ``((1-t)^theta + t^theta)^(1/theta)``.

    Smooth for theta > 1 (no kinks); theta == 1 gives independence.
    Evaluation is stabilized as ``M * (1 + r^theta)^(1/theta)`` with
    ``M = max(t, 1-t)`` and ``r = min(t, 1-t) / M`` so large theta stays
    finite.  A' turns from about -1 to about +1 within ~1/theta of
    t = 1/2, so panels end at ``1/2`` and ``1/2 +- k/theta`` for
    k in {1, 4, 16, 64}, wherever those lie inside (0, 1).
    """
    theta = check_theta(theta)
    if theta == 1.0:
        return _pwl(
            np.array([0.0, 1.0]), np.ones(2), "gumbel", {"theta": 1.0},
            eval_fn=lambda t: np.ones_like(np.asarray(t, dtype=float)),
        )

    def _parts(t):
        t = np.asarray(t, dtype=float)
        big = np.maximum(t, 1.0 - t)
        r = np.minimum(t, 1.0 - t) / big
        return t, big, r

    def eval_fn(t):
        _, big, r = _parts(t)
        return big * (1.0 + r**theta) ** (1.0 / theta)

    def deriv_fn(t, side):
        t, _, r = _parts(t)
        sign = np.where(t >= 0.5, 1.0, -1.0)
        return sign * (1.0 + r**theta) ** (1.0 / theta - 1.0) * (1.0 - r ** (theta - 1.0))

    spike = {0.5} | {0.5 + s * k / theta for k in (1, 4, 16, 64) for s in (-1.0, 1.0)}
    return DependenceFunction(
        family="gumbel",
        params={"theta": theta},
        split_points=tuple(sorted(p for p in spike if 0.0 < p < 1.0)),
        eval_fn=eval_fn,
        deriv_fn=deriv_fn,
    )


def pareto_dependence(a: float, b: float) -> DependenceFunction:
    """Tangent-family dependence function ``max(1-t, t, (1-a)(1-t) + (1-b)t)``.

    Requires ``a, b >= 0`` and ``a + b <= 1``.  Kinks sit at
    ``t_P = a / (1 + a - b)`` and ``t_Q = (1 - a) / (1 - a + b)`` when those
    fall strictly inside (0, 1); ``a + b == 1`` collapses to the comonotone
    envelope.
    """
    a, b = check_tangent(a, b)

    def eval_fn(t):
        t = np.asarray(t, dtype=float)
        line = (1.0 - a) * (1.0 - t) + (1.0 - b) * t
        return np.maximum(np.maximum(1.0 - t, t), line)

    if a + b >= 1.0:
        knots = ENVELOPE_KNOTS
    else:
        nu = a - b
        knots = [(0.0, 1.0)]
        tp = a / (1.0 + nu)
        tq = (1.0 - a) / (1.0 - nu)
        if tp > 1e-12:
            knots.append((tp, 1.0 - tp))
        if tq < 1.0 - 1e-12 and tq - tp > 1e-12:  # a + b -> 1 collapses tq onto tp
            knots.append((tq, tq))
        knots.append((1.0, 1.0))
    return _pwl(*np.transpose(knots), "pareto", {"a": a, "b": b}, eval_fn)


def piecewise_linear_dependence(knots) -> DependenceFunction:
    """Validated piecewise-linear dependence function through ``knots``.

    ``knots`` is an iterable of ``(t, A)`` pairs, such as a ``(k, 2)``
    array.  They must be finite, start at (0, 1), end at (1, 1) and have
    strictly increasing abscissae; the interpolant must stay convex inside
    the admissible band, otherwise :class:`InvalidDependenceFunctionError`
    is raised carrying the validation report.
    """
    try:
        pts = np.array(list(knots), dtype=float)
    except (TypeError, ValueError):  # ragged rows or non-numbers
        pts = np.empty(0)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise InvalidDependenceFunctionError(
            "knots must be (t, A) pairs", ValidationReport(False, ((0.0, "format", 1.0),))
        )
    if len(pts) < 2:
        raise InvalidDependenceFunctionError(
            "need at least two knots",
            ValidationReport(False, ((0.0, "domain", 1.0),)),
        )
    ts, vs = pts.T.copy()  # contiguous rows
    finite = np.isfinite(ts) & np.isfinite(vs)
    if not finite.all():
        i = int(np.argmin(finite))
        raise InvalidDependenceFunctionError(
            f"knot {i} is not finite: ({ts[i]}, {vs[i]})",
            ValidationReport(False, ((float(ts[i]), "non_finite", math.inf),)),
        )
    if np.any(np.diff(ts) <= 0.0):
        raise InvalidDependenceFunctionError(
            "knot abscissae must be strictly increasing",
            ValidationReport(False, ((float(ts.min()), "domain", 0.0),)),
        )
    report = _structural_report(ts, vs)
    if not report.valid:
        raise InvalidDependenceFunctionError(
            "knots violate the dependence-function constraints: "
            + ", ".join(f"{c} at t={t:.6g}" for t, c, _ in report.violations[:4]),
            report,
        )
    # pin the endpoints so downstream identities hold exactly
    ts[0], ts[-1] = 0.0, 1.0
    vs[0], vs[-1] = 1.0, 1.0
    return _pwl(ts, vs, "piecewise_linear", {"knots": tuple(zip(ts.tolist(), vs.tolist()))})


def mix(first: DependenceFunction, second: DependenceFunction, weight: float) -> DependenceFunction:
    """Convex mixture ``weight * first + (1 - weight) * second``.

    All dependence-function constraints are preserved under convex
    combination, so the result is valid by construction.  Its split points
    are the union of both components' points.
    """
    w = check_real(weight, "weight", 0.0, 1.0)
    cw = 1.0 - w

    def eval_fn(t):
        return w * first.eval_fn(t) + cw * second.eval_fn(t)

    def deriv_fn(t, side):
        return w * first.deriv_fn(t, side) + cw * second.deriv_fn(t, side)

    return DependenceFunction(
        family="mixture",
        params={"weight": w, "components": (first.family, second.family)},
        split_points=tuple(sorted(set(first.split_points) | set(second.split_points))),
        eval_fn=eval_fn,
        deriv_fn=deriv_fn,
    )


# ---------------------------------------------------------------------------
# validation and geometry
# ---------------------------------------------------------------------------


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


def tangent_at_half(df: DependenceFunction) -> tuple:
    """Parameters (a, b) of a supporting tangent line at t = 1/2.

    The line ``(1-a)(1-t) + (1-b)t`` touches the graph at
    ``(1/2, A(1/2))`` with slope taken as the midpoint of the
    subdifferential there, clipped so that a, b >= 0.  Then
    ``a + b = 2 (1 - A(1/2))`` and the line never exceeds A.
    """
    lam = 2.0 * (1.0 - df(0.5))
    lam = min(max(lam, 0.0), 1.0)
    slope = 0.5 * (df.deriv(0.5, "left") + df.deriv(0.5, "right"))
    slope = min(max(slope, -lam), lam)
    a = max(0.5 * (lam + slope), 0.0)
    b = max(0.5 * (lam - slope), 0.0)
    return float(a), float(b)


def read_knots_csv(path) -> DependenceFunction:
    """Load a piecewise-linear dependence function from a ``t,A`` CSV file."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or [c.strip().lower() for c in rows[0][:2]] != ["t", "a"]:
        raise InvalidDependenceFunctionError(
            f"{path}: expected header 't,A'",
            ValidationReport(False, ((0.0, "header", 1.0),)),
        )
    knots = []
    for i, row in enumerate(rows[1:], start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) < 2:
            raise InvalidDependenceFunctionError(
                f"{path}: row {i} has one column, expected 't,A'",
                ValidationReport(False, ((0.0, "format", 1.0),)),
            )
        knots.append((float(row[0]), float(row[1])))
    return piecewise_linear_dependence(knots)


def write_knots_csv(path, df: DependenceFunction) -> None:
    """Serialize a dependence function as a ``t,A`` CSV: 257 equispaced knots plus split points."""
    grid = np.union1d(np.linspace(0.0, 1.0, 257), np.asarray(df.split_points))
    vals = df(grid)
    with open(path, "w", newline="") as fh:
        fh.write("t,A\n")
        for t, v in zip(grid, vals):
            fh.write(f"{t:.17g},{v:.17g}\n")
