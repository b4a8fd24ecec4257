"""Pickands dependence functions: construction, validation, and geometry.

A dependence function A on [0, 1] is convex, satisfies
``max(t, 1-t) <= A(t) <= 1`` and ``A(0) = A(1) = 1``.  Every bivariate
extreme value copula is induced by exactly one such function.  This module
provides the Marshall-Olkin, Gumbel and tangent (Pareto-bound) families,
arbitrary piecewise-linear convex functions, convex mixtures, and the
supporting-tangent construction at t = 1/2.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .errors import (
    InvalidDependenceFunctionError,
    NonFiniteError,
    ParamOutOfRangeError,
    check_path,
    check_real,
    check_reals,
    check_split_points,
    check_type,
    check_unit_interval,
)
from .numerics import _run_starts

_CHECK_TOL = 1e-9

ENVELOPE_KNOTS = ((0.0, 1.0), (0.5, 0.5), (1.0, 1.0))
# Gumbel split points for theta < 2: 4^-k and 1 - 4^-k, k = 1..20, graded toward both ends
_GRADED = frozenset(e for k in range(1, 21) for e in (4.0**-k, 1.0 - 4.0**-k))


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the constraint checks; ``valid`` iff no violations."""

    valid: bool
    violations: tuple


@dataclass(frozen=True)
class DependenceFunction:
    """A validated Pickands dependence function: A, A' and split points.

    ``split_points`` lists, in increasing order, the points strictly inside
    (0, 1) where a quadrature panel must end: every jump of A' (each kink of
    ``eval_fn`` is one of ``deriv_fn``; every MO and tangent kink, whose
    pieces read their exact slopes, and each knot-file knot more than 1e-15
    off the chord of its neighbours) and, for Gumbel, the edges of its
    narrow curvature spike at t = 1/2 and, for theta < 2, the points
    ``4^-k`` and ``1 - 4^-k`` graded toward both ends, where the slope of
    A' is unbounded.  A is defined on [0, 1] only: calling the function or
    :meth:`deriv` with t outside [0, 1] or NaN raises
    :class:`ParamOutOfRangeError`, and so does building one whose
    ``family`` is not a str, whose ``params`` is not a mapping (stored as a
    read-only copy), whose ``eval_fn`` or ``deriv_fn`` is not callable, or
    whose split points break the rule of :func:`errors.check_split_points`;
    they are stored as a tuple of floats, and ``edges`` holds the read-only
    array ``[0, *split_points, 1]`` that the check returns, the panel ends
    of quadrature and of the sampler's table.  ``exact`` is None, except on
    the output of an MO, tangent or Gumbel builder, where it is the tuple
    of parameters the builder checked.  ``second_fn`` is always None and
    nothing reads it.  Instances are immutable and safe to share across
    threads.
    """

    family: str
    params: Mapping = field(compare=False)
    split_points: tuple
    eval_fn: object = field(repr=False, compare=False)
    deriv_fn: object = field(repr=False, compare=False)
    # unused; kept only because perfbench/tracer.py passes it to dataclasses.replace
    second_fn: object = field(default=None, repr=False, compare=False)
    edges: np.ndarray = field(init=False, repr=False, compare=False)
    exact: tuple | None = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        check_type(self.family, str, "family")
        object.__setattr__(self, "params", MappingProxyType(dict(check_type(self.params, Mapping, "params"))))
        for name in ("eval_fn", "deriv_fn"):
            if not callable(getattr(self, name)):
                kind = type(getattr(self, name)).__name__
                raise ParamOutOfRangeError(f"{name} must be callable, got {kind}")
        edges = check_split_points(self.split_points)
        edges.flags.writeable = False
        object.__setattr__(self, "split_points", tuple(edges[1:-1].tolist()))
        object.__setattr__(self, "edges", edges)

    def __call__(self, t):
        arr = check_unit_interval(t, "t")
        out = self.eval_fn(arr)
        return float(out) if np.ndim(t) == 0 else out

    def deriv(self, t, side: str = "right"):
        """One-sided derivative; ``side`` is 'left' or 'right'."""
        if side not in ("left", "right"):
            raise ParamOutOfRangeError(f"side must be 'left' or 'right', got {side!r}")
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


def _pwl(ts, vs, family: str, params: dict) -> DependenceFunction:
    """Dependence function ``np.interp`` over the knots ``(ts, vs)`` of a knot file or corpus draw.

    A' is the knot-difference slope of the piece to the left or right of t,
    indexed by the count of interior knots below t (at or below it for
    ``side='right'``); NaN and t at or past either end take an end piece.
    The split points are the interior knots whose :func:`_bulge` is more
    than 1e-15 from 0, a few ulps of 1: a kink, or a knot that bulges up
    within ``_CHECK_TOL``.
    """
    slopes = (vs[1:] - vs[:-1]) / (ts[1:] - ts[:-1])
    inner = ts[1:-1]

    def deriv_fn(t, side):
        return slopes[inner.searchsorted(t, side=side)]

    return DependenceFunction(
        family=family,
        params=params,
        split_points=tuple(inner[np.abs(_bulge(ts, vs)) > 1e-15].tolist()),
        eval_fn=lambda t: np.interp(t, ts, vs),
        deriv_fn=deriv_fn,
    )


def _pieces(family: str, params: dict, eval_fn, kinks, slopes) -> DependenceFunction:
    """Dependence function ``eval_fn`` whose pieces between ``kinks`` have the exact ``slopes``, one more.

    A piece that rounding leaves with no width, its kink at or before the one
    before it (or 0) or at 1, goes; every other kink is a split point.  A'
    reads as in :func:`_pwl`, and a -0.0 slope as 0.0.
    """
    edges = np.array([0.0, *kinks, 1.0])
    keep = edges[1:] > edges[:-1]
    kinks = edges[1:][keep][:-1]
    slopes = np.array(slopes)[keep] + 0.0  # -0.0 + 0.0 is 0.0

    def deriv_fn(t, side):
        return slopes[kinks.searchsorted(t, side=side)]

    return DependenceFunction(family, params, tuple(kinks.tolist()), eval_fn, deriv_fn)


def _bulge(ts: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Height of each interior knot above the chord of its neighbours, in A units; < 0 at a kink."""
    w = (ts[1:-1] - ts[:-2]) / (ts[2:] - ts[:-2])
    return vs[1:-1] - (vs[:-2] + w * (vs[2:] - vs[:-2]))


def _structural_report(ts: np.ndarray, vs: np.ndarray) -> ValidationReport:
    """Exact constraint checks for finite, increasing knots, in A units within ``_CHECK_TOL``.

    Each end of the domain that is off 0 or 1, at its own t, then the
    endpoint values, then knot values against the band in increasing t
    (at most 50 envelope and 50 upper-bound violations; no t is both), then
    each interior knot against the chord of its two neighbours.
    """
    ends = ((float(ts[0]), 0.0), (float(ts[-1]), 1.0))
    bad = [(t, "domain", abs(t - end)) for t, end in ends if abs(t - end) > _CHECK_TOL]
    bad += [
        (end, "endpoint", abs(float(v) - 1.0))
        for end, v in ((0.0, vs[0]), (1.0, vs[-1]))
        if abs(v - 1.0) > _CHECK_TOL
    ]
    # linear pieces make knots (plus the envelope kink at 1/2) sufficient
    t = _union(ts, (0.5,))
    a = np.interp(t, ts, vs)
    low = np.maximum(t, 1.0 - t) - a
    below = np.flatnonzero(low > _CHECK_TOL)[:50]
    above = np.flatnonzero(a - 1.0 > _CHECK_TOL)[:50]
    for i in sorted({*below.tolist(), *above.tolist()}):
        kind, gap = ("envelope", low[i]) if low[i] > _CHECK_TOL else ("upper_bound", a[i] - 1.0)
        bad.append((float(t[i]), kind, float(gap)))
    bulge = _bulge(ts, vs)
    for i in np.flatnonzero(bulge > _CHECK_TOL):
        bad.append((float(ts[i + 1]), "convexity", float(bulge[i])))
    return ValidationReport(valid=not bad, violations=tuple(bad))


def _union(*arrays) -> np.ndarray:
    """The sorted distinct values of the arrays, which are not all empty, as ``np.union1d``."""
    t = np.sort(np.concatenate(arrays))
    return t[_run_starts(t)]


def _pwl_max(ta: np.ndarray, va: np.ndarray, tb: np.ndarray, vb: np.ndarray) -> tuple:
    """Knots ``(t, A)`` of the pointwise maximum of two piecewise-linear functions."""
    ts = _union(ta, tb)
    d = np.interp(ts, ta, va) - np.interp(ts, tb, vb)
    i = np.flatnonzero(d[:-1] * d[1:] < 0.0)
    t = _union(ts, ts[i] + (ts[i + 1] - ts[i]) * d[i] / (d[i] - d[i + 1]))
    return t, np.maximum(np.interp(t, ta, va), np.interp(t, tb, vb))


def _exact(df: DependenceFunction, *params: float) -> DependenceFunction:
    """``df`` with ``exact`` set to ``params``, the floats its builder checked."""
    object.__setattr__(df, "exact", params)
    return df


def _invalid(message: str, t: float, kind: str, gap: float) -> InvalidDependenceFunctionError:
    """The knot error whose report holds the one violation ``(t, kind, gap)``."""
    report = ValidationReport(False, ((float(t), kind, gap),))
    return InvalidDependenceFunctionError(message, report)


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

    kink = alpha / (alpha + beta or 1.0)  # both zero: the kink sits at t = 0 and is dropped
    df = _pieces("marshall_olkin", {"alpha": alpha, "beta": beta}, eval_fn, (kink,), (-beta, alpha))
    return _exact(df, alpha, beta)


def gumbel_dependence(theta: float) -> DependenceFunction:
    """Gumbel dependence function ``((1-t)^theta + t^theta)^(1/theta)``.

    Smooth for theta > 1 (no kinks); theta == 1 gives independence.
    Evaluation is stabilized as ``M * (1 + r^theta)^(1/theta)`` with
    ``M = max(t, 1-t)`` and ``r = min(t, 1-t) / M`` so large theta stays
    finite.  A' turns from about -1 to about +1 within ~1/theta of
    t = 1/2, so panels end at ``1/2`` and ``1/2 +- k/theta`` for
    k in {1, 4, 16, 64}, wherever those lie inside (0, 1).  For
    theta < 2, A' holds ``r^(theta-1)``, whose slope is unbounded at t = 0
    and t = 1, so panels also end at ``4^-k`` and ``1 - 4^-k`` for
    k = 1..20, graded toward both ends.
    """
    theta = check_theta(theta)
    if theta == 1.0:
        df = _pieces("gumbel", {"theta": 1.0}, lambda t: np.ones_like(np.asarray(t, dtype=float)), (), (0.0,))
        return _exact(df, theta)

    def _parts(t):
        t = np.asarray(t, dtype=float)
        s = 1.0 - t
        big = np.maximum(t, s)
        r = np.minimum(t, s) / big
        return t, big, r

    def eval_fn(t):
        _, big, r = _parts(t)
        return big * (1.0 + r**theta) ** (1.0 / theta)

    def deriv_fn(t, side):
        t, _, r = _parts(t)
        sign = (t >= 0.5) * 2.0 - 1.0  # -1 below 1/2 and at NaN
        return sign * (1.0 + r**theta) ** (1.0 / theta - 1.0) * (1.0 - r ** (theta - 1.0))

    points = {0.5} | {0.5 + s * k / theta for k in (1, 4, 16, 64) for s in (-1.0, 1.0)}
    if theta < 2.0:  # r^(theta-1) in A' has an unbounded slope at t = 0 and t = 1
        points |= _GRADED
    df = DependenceFunction(
        family="gumbel",
        params={"theta": theta},
        split_points=tuple(sorted(p for p in points if 0.0 < p < 1.0)),
        eval_fn=eval_fn,
        deriv_fn=deriv_fn,
    )
    return _exact(df, theta)


def _tangent_kinks(a: float, b: float) -> tuple:
    """``(t_P, t_Q)``, where the line ``(1-a)(1-t) + (1-b)t`` meets ``1 - t`` and ``t``; needs a + b < 1."""
    return a / (1.0 + (a - b)), (1.0 - a) / (1.0 - (a - b))


def pareto_dependence(a: float, b: float) -> DependenceFunction:
    """Tangent-family dependence function ``max(1-t, t, (1-a)(1-t) + (1-b)t)``.

    Requires ``a, b >= 0`` and ``a + b <= 1``.  Kinks sit where the line
    meets ``1 - t`` and ``t`` (:func:`_tangent_kinks`); ``a + b == 1``
    collapses to the comonotone envelope.
    """
    a, b = check_tangent(a, b)

    def eval_fn(t):
        t = np.asarray(t, dtype=float)
        line = (1.0 - a) * (1.0 - t) + (1.0 - b) * t
        return np.maximum(np.maximum(1.0 - t, t), line)

    kinks, slopes = ((0.5,), (-1.0, 1.0)) if a + b >= 1.0 else (_tangent_kinks(a, b), (-1.0, a - b, 1.0))
    return _exact(_pieces("pareto", {"a": a, "b": b}, eval_fn, kinks, slopes), a, b)


def piecewise_linear_dependence(knots) -> DependenceFunction:
    """Validated piecewise-linear dependence function through ``knots``.

    ``knots`` is an iterable of ``(t, A)`` pairs, such as a ``(k, 2)``
    array.  They must be finite, start at (0, 1), end at (1, 1) and have
    strictly increasing abscissae; the interpolant must stay convex inside
    the admissible band, otherwise :class:`InvalidDependenceFunctionError`
    is raised carrying the validation report.
    """
    try:
        pts = check_reals(knots if isinstance(knots, np.ndarray) else list(knots), "knots")
    except (TypeError, ParamOutOfRangeError):  # not iterable, or not real numbers
        pts = np.empty(0)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise _invalid("knots must be (t, A) pairs", 0.0, "format", 1.0)
    if len(pts) < 2:
        raise _invalid("need at least two knots", 0.0, "domain", 1.0)
    ts, vs = pts.T.copy()  # contiguous rows
    finite = np.isfinite(ts) & np.isfinite(vs)
    if not finite.all():
        i = int(np.argmin(finite))
        raise _invalid(f"knot {i} is not finite: ({ts[i]}, {vs[i]})", ts[i], "non_finite", math.inf)
    if (ts[1:] - ts[:-1] <= 0.0).any():
        raise _invalid("knot abscissae must be strictly increasing", ts.min(), "domain", 0.0)
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
    check_type(first, DependenceFunction, "first")
    check_type(second, DependenceFunction, "second")
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
# tangent geometry and knot files
# ---------------------------------------------------------------------------


def lambda_upper(df: DependenceFunction) -> float:
    """Upper tail coefficient ``2 (1 - A(1/2))`` in [0, 1]; A is read through ``df.eval_fn``.

    A non-finite A(1/2) raises :class:`NonFiniteError` naming t = 1/2.
    """
    a_half = float(check_type(df, DependenceFunction, "df").eval_fn(np.asarray(0.5)))
    if not math.isfinite(a_half):
        raise NonFiniteError(f"A returned a non-finite value at t=0.5: {a_half!r}")
    return min(max(2.0 * (1.0 - a_half), 0.0), 1.0)


def _tangent(df: DependenceFunction, lam: float) -> tuple:
    """Parameters (a, b) of a supporting tangent line at t = 1/2; ``lam`` must be ``lambda_upper(df)``.

    The line ``(1-a)(1-t) + (1-b)t`` touches the graph at
    ``(1/2, A(1/2))`` with slope taken as the midpoint of the
    subdifferential there, clipped so that a, b >= 0.  Then ``a + b = lam``
    and the line never exceeds A.  A' is read through ``df.deriv_fn``:
    t = 1/2 needs no check.
    """
    half = np.asarray(0.5)
    slope = 0.5 * float(df.deriv_fn(half, "left") + df.deriv_fn(half, "right"))
    slope = min(max(slope, -lam), lam)
    a = max(0.5 * (lam + slope), 0.0)
    b = max(0.5 * (lam - slope), 0.0)
    return float(a), float(b)


def read_knots_csv(path) -> DependenceFunction:
    """Load a piecewise-linear dependence function from a ``t,A`` CSV file at ``path``."""
    with open(check_path(path, "path"), newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or [c.strip().lower() for c in rows[0][:2]] != ["t", "a"]:
        raise _invalid(f"{path}: expected header 't,A'", 0.0, "header", 1.0)
    knots = []
    for i, row in enumerate(rows[1:], start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        try:
            knots.append((float(row[0]), float(row[1])))
        except (IndexError, ValueError):  # one column, or not a number
            got = "one column" if len(row) < 2 else f"{row[0]!r}, {row[1]!r}"
            message = f"{path}: row {i} has {got}, expected two numbers 't,A'"
            raise _invalid(message, 0.0, "format", 1.0) from None
    return piecewise_linear_dependence(knots)


def write_knots_csv(path, df: DependenceFunction) -> None:
    """Serialize a dependence function as a ``t,A`` CSV: 257 equispaced knots plus split points.

    ``path`` is a file path, or a text stream that ``np.savetxt`` writes to.
    """
    if not hasattr(path, "write"):
        check_path(path, "path")
    t = np.union1d(np.linspace(0, 1, 257), check_type(df, DependenceFunction, "df").split_points)
    rows = np.column_stack((t, df(t)))
    np.savetxt(path, rows, fmt="%.17g", delimiter=",", header="t,A", comments="")
