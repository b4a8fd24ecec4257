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
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidDependenceFunctionError, ParamOutOfRangeError

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
    narrow curvature spike at t = 1/2.  ``second_fn`` is always None and
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
        arr = np.asarray(t, dtype=float)
        out = self.eval_fn(arr)
        return float(out) if np.ndim(t) == 0 else out

    def deriv(self, t, side: str = "right"):
        """One-sided derivative; ``side`` is 'left' or 'right'."""
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        arr = np.asarray(t, dtype=float)
        out = self.deriv_fn(arr, side)
        return float(out) if np.ndim(t) == 0 else out


# ---------------------------------------------------------------------------
# parameter checks, shared by constructors, closed forms, samplers and bounds
# ---------------------------------------------------------------------------


def check_mo(alpha: float, beta: float) -> None:
    """Marshall-Olkin parameters: ``alpha, beta`` in [0, 1]."""
    if not (0.0 <= alpha <= 1.0 and 0.0 <= beta <= 1.0):
        raise ParamOutOfRangeError(f"alpha={alpha}, beta={beta} not in [0, 1]")


def check_tangent(a: float, b: float) -> None:
    """Tangent-family parameters: ``a, b >= 0`` and ``a + b <= 1``."""
    if not (a >= 0.0 and b >= 0.0 and a + b <= 1.0 + 1e-12):
        raise ParamOutOfRangeError(f"need a, b >= 0 and a + b <= 1, got a={a}, b={b}")


def check_lambda(lam: float) -> float:
    """Tail coefficient in [0, 1], returned as a float."""
    if not 0.0 <= lam <= 1.0:
        raise ParamOutOfRangeError(f"lambda={lam} not in [0, 1]")
    return float(lam)


def check_theta(theta: float, allow_inf: bool = False) -> float:
    """Gumbel parameter: a real number (not a bool) >= 1, returned as a float.

    Python and numpy reals are accepted; infinity only with ``allow_inf``.
    """
    ok = isinstance(theta, numbers.Real) and not isinstance(theta, (bool, np.bool_))
    if not (ok and theta >= 1.0 and (allow_inf or math.isfinite(theta))):
        bound = "real" if allow_inf else "finite real"
        raise ParamOutOfRangeError(f"theta={theta} must be a {bound} >= 1")
    return float(theta)


# ---------------------------------------------------------------------------
# piecewise-linear machinery
# ---------------------------------------------------------------------------


def _pwl_accessors(ts: np.ndarray, vs: np.ndarray):
    slopes = np.diff(vs) / np.diff(ts)
    last = len(slopes) - 1

    def eval_fn(t):
        return np.interp(t, ts, vs)

    def deriv_fn(t, side):
        idx = np.searchsorted(ts, t, side=side) - 1
        return slopes[np.clip(idx, 0, last)]

    split_points = tuple(
        float(ts[i]) for i in range(1, len(ts) - 1) if slopes[i] - slopes[i - 1] > _KINK_TOL
    )
    return eval_fn, deriv_fn, split_points


def _structural_report(ts: np.ndarray, vs: np.ndarray) -> ValidationReport:
    """Exact constraint checks for a piecewise-linear candidate."""
    bad = []
    if abs(ts[0]) > _CHECK_TOL or abs(ts[-1] - 1.0) > _CHECK_TOL:
        bad.append((float(ts[0]), "domain", abs(float(ts[0]))))
    if abs(vs[0] - 1.0) > _CHECK_TOL:
        bad.append((0.0, "endpoint", abs(float(vs[0]) - 1.0)))
    if abs(vs[-1] - 1.0) > _CHECK_TOL:
        bad.append((1.0, "endpoint", abs(float(vs[-1]) - 1.0)))
    # linear pieces make knots (plus the envelope kink at 1/2) sufficient
    probe_t = np.union1d(ts, [0.5])
    probe_v = np.interp(probe_t, ts, vs)
    env = np.maximum(probe_t, 1.0 - probe_t)
    for t, v, e in zip(probe_t, probe_v, env):
        if v < e - _CHECK_TOL:
            bad.append((float(t), "envelope", float(e - v)))
        if v > 1.0 + _CHECK_TOL:
            bad.append((float(t), "upper_bound", float(v - 1.0)))
    slopes = np.diff(vs) / np.diff(ts)
    for i in range(1, len(slopes)):
        if slopes[i] < slopes[i - 1] - _CHECK_TOL:
            bad.append((float(ts[i]), "convexity", float(slopes[i - 1] - slopes[i])))
    return ValidationReport(valid=not bad, violations=tuple(bad))


def _build_pwl(knots, family: str, params: dict, eval_fn=None) -> DependenceFunction:
    ts = np.asarray([k[0] for k in knots], dtype=float)
    vs = np.asarray([k[1] for k in knots], dtype=float)
    interp_eval, deriv_fn, split_points = _pwl_accessors(ts, vs)
    return DependenceFunction(
        family=family,
        params=params,
        split_points=split_points,
        eval_fn=eval_fn if eval_fn is not None else interp_eval,
        deriv_fn=deriv_fn,
    )


def _pwl_max(knots_a, knots_b):
    """Knot list of the pointwise maximum of two piecewise-linear functions."""
    ta = np.asarray([k[0] for k in knots_a], dtype=float)
    va = np.asarray([k[1] for k in knots_a], dtype=float)
    tb = np.asarray([k[0] for k in knots_b], dtype=float)
    vb = np.asarray([k[1] for k in knots_b], dtype=float)
    ts = np.union1d(ta, tb)
    d = np.interp(ts, ta, va) - np.interp(ts, tb, vb)
    crossings = []
    for i in range(len(ts) - 1):
        if d[i] * d[i + 1] < 0.0:
            crossings.append(ts[i] + (ts[i + 1] - ts[i]) * d[i] / (d[i] - d[i + 1]))
    allt = np.union1d(ts, np.asarray(crossings, dtype=float))
    keep = np.concatenate([[True], np.diff(allt) > 1e-12])
    allt = allt[keep]
    vals = np.maximum(np.interp(allt, ta, va), np.interp(allt, tb, vb))
    return list(zip(allt.tolist(), vals.tolist()))


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------


def mo_dependence(alpha: float, beta: float) -> DependenceFunction:
    """Marshall-Olkin dependence function ``1 - min(beta*t, alpha*(1-t))``.

    Piecewise linear with a single kink at ``alpha / (alpha + beta)``;
    either parameter equal to zero collapses to independence (A == 1).
    """
    check_mo(alpha, beta)

    def eval_fn(t):
        return 1.0 - np.minimum(beta * t, alpha * (1.0 - t))

    tstar = alpha / (alpha + beta) if alpha + beta > 0.0 else 0.0
    if alpha == 0.0 or beta == 0.0 or not 1e-12 < tstar < 1.0 - 1e-12:
        # no kink, or one indistinguishable from the boundary
        knots = [(0.0, 1.0), (1.0, 1.0)]
    else:
        knots = [(0.0, 1.0), (tstar, 1.0 - alpha * beta / (alpha + beta)), (1.0, 1.0)]
    return _build_pwl(
        knots, "marshall_olkin", {"alpha": alpha, "beta": beta}, eval_fn=eval_fn
    )


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
        return _build_pwl(
            [(0.0, 1.0), (1.0, 1.0)], "gumbel", {"theta": 1.0},
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
    check_tangent(a, b)

    def eval_fn(t):
        t = np.asarray(t, dtype=float)
        line = (1.0 - a) * (1.0 - t) + (1.0 - b) * t
        return np.maximum(np.maximum(1.0 - t, t), line)

    if a + b >= 1.0:
        knots = [(0.0, 1.0), (0.5, 0.5), (1.0, 1.0)]
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
    return _build_pwl(knots, "pareto", {"a": a, "b": b}, eval_fn=eval_fn)


def piecewise_linear_dependence(knots) -> DependenceFunction:
    """Validated piecewise-linear dependence function through ``knots``.

    ``knots`` must be finite, start at (0, 1), end at (1, 1) and have
    strictly increasing abscissae; the interpolant must stay convex inside
    the admissible band, otherwise :class:`InvalidDependenceFunctionError`
    is raised carrying the validation report.
    """
    knots = [(float(t), float(v)) for t, v in knots]
    if len(knots) < 2:
        raise InvalidDependenceFunctionError(
            "need at least two knots",
            ValidationReport(False, ((0.0, "domain", 1.0),)),
        )
    ts = np.asarray([k[0] for k in knots])
    vs = np.asarray([k[1] for k in knots])
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
    return _build_pwl(
        list(zip(ts.tolist(), vs.tolist())),
        "piecewise_linear",
        {"knots": tuple(zip(ts.tolist(), vs.tolist()))},
    )


def mix(first: DependenceFunction, second: DependenceFunction, weight: float) -> DependenceFunction:
    """Convex mixture ``weight * first + (1 - weight) * second``.

    All dependence-function constraints are preserved under convex
    combination, so the result is valid by construction.  Its split points
    are the union of both components' points.
    """
    if not 0.0 <= weight <= 1.0:
        raise ParamOutOfRangeError(f"weight={weight} not in [0, 1]")
    w, cw = float(weight), 1.0 - float(weight)

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

    Verifies the endpoint condition, the band ``max(t, 1-t) <= A <= 1``,
    and midpoint convexity over all grid pairs, each with absolute
    tolerance 1e-9.  Declared split points of a :class:`DependenceFunction`
    are added to the grid.
    """
    if grid_size < 3:
        raise ValueError("grid_size must be at least 3")
    grid = np.linspace(0.0, 1.0, grid_size)
    if isinstance(fn, DependenceFunction) and fn.split_points:
        grid = np.union1d(grid, np.asarray(fn.split_points))
    vals = np.asarray(fn(grid), dtype=float)

    bad = []
    if abs(vals[0] - 1.0) > _CHECK_TOL:
        bad.append((0.0, "endpoint", abs(float(vals[0]) - 1.0)))
    if abs(vals[-1] - 1.0) > _CHECK_TOL:
        bad.append((1.0, "endpoint", abs(float(vals[-1]) - 1.0)))

    env = np.maximum(grid, 1.0 - grid)
    low = env - vals
    for i in np.flatnonzero(low > _CHECK_TOL)[:50]:
        bad.append((float(grid[i]), "envelope", float(low[i])))
    high = vals - 1.0
    for i in np.flatnonzero(high > _CHECK_TOL)[:50]:
        bad.append((float(grid[i]), "upper_bound", float(high[i])))

    # midpoint convexity over all pairs, in row blocks to bound memory
    worst = (-np.inf, 0.0)
    count = 0
    block = 128
    for start in range(0, len(grid), block):
        s = grid[start : start + block, None]
        mids = 0.5 * (s + grid[None, :])
        gap = np.asarray(fn(mids), dtype=float) - 0.5 * (
            vals[start : start + block, None] + vals[None, :]
        )
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
