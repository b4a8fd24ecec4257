"""Sharp bounds for extreme value copulas with a known tail coefficient.

Pointwise: every EV copula with upper tail coefficient lam satisfies

    min(u**(1-lam) * v, u * v**(1-lam))  <=  C(u, v)  <=  min(u, v, u**(1-a) * v**(1-b))

for some a, b >= 0 with a + b = lam (a supporting tangent of the dependence
function at t = 1/2).  Coefficientwise:

    3 lam / (4 - lam)  <=  rho  <=  1 - 16 ((1 - lam) / (4 - lam))**2
    lam / (2 - lam)    <=  tau  <=  lam

with the lower ends attained by the Marshall-Olkin copula (alpha = beta =
lam) and the upper ends by the tangent family with a = b = lam / 2.  The
Hutchinson-Lai and the Trutschnig inequalities are also provided, plus a
seeded generator of random valid dependence functions for verification
sweeps.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import pickands
from .coefficients import _quadrature, lambda_upper, rho_numeric, tau_numeric
from .copula import EvCopula, copula_from_pickands  # noqa: F401  perfbench/tracer.py swaps it
from .errors import check_int, check_pair, check_real, check_type, check_unit_interval
from .pickands import (
    ENVELOPE_KNOTS,
    DependenceFunction,
    _pwl_max,
    _tangent,
    _tangent_kinks,
    _union,
    check_lambda,
    check_tangent,
    gumbel_dependence,
    mix,
    mo_dependence,
    pareto_dependence,
)
from .rng import make_rng

_CONTAINMENT_SLACK = 1e-7
_ENVELOPE_TOL = 1e-9
_ENVELOPE_T, _ENVELOPE_A = np.transpose(ENVELOPE_KNOTS)


@dataclass(frozen=True)
class BoundsInterval:
    """Closed coefficient interval with its attaining families."""

    lo: float
    hi: float
    attained_lo: str
    attained_hi: str


@dataclass(frozen=True)
class EnvelopeCheck:
    """Worst pointwise violations of the two-sided copula envelope (0 if none).

    :func:`check_envelope` reports them in C units, on a (u, v) grid;
    :func:`verify_case` reports them in A units, on a t-grid.
    """

    grid: int
    max_lower_violation: float
    max_upper_violation: float
    tangent_params: tuple


@dataclass(frozen=True)
class InequalityReport:
    """Margins (>= 0 means satisfied) of the rho-tau inequalities."""

    passed: bool
    hl_lower_margin: float
    hl_upper_margin: float
    trutschnig_margin: float


def pointwise_lower(lam: float, u, v):
    """Lower envelope: the Marshall-Olkin copula with alpha = beta = lam; u, v in [0, 1]."""
    lam = check_lambda(lam)
    u, v = check_pair(check_unit_interval(u, "u"), check_unit_interval(v, "v"))
    return np.minimum(u ** (1.0 - lam) * v, u * v ** (1.0 - lam))


def pointwise_upper(a: float, b: float, u, v):
    """Upper envelope member ``min(u, v, u**(1-a) * v**(1-b))``; u, v in [0, 1]."""
    a, b = check_tangent(a, b)
    u, v = check_pair(check_unit_interval(u, "u"), check_unit_interval(v, "v"))
    return np.minimum(np.minimum(u, v), u ** (1.0 - a) * v ** (1.0 - b))


def check_envelope(copula: EvCopula, grid: int = 200) -> EnvelopeCheck:
    """Evaluate both envelopes against the copula on a uniform grid."""
    grid = check_int(grid, "grid", 2)
    df = check_type(copula, EvCopula, "copula").dependence
    lam = lambda_upper(df)
    a, b = _tangent(df, lam)
    pts = np.linspace(0.0, 1.0, grid)
    uu = pts[:, None]
    vv = pts[None, :]
    cvals = copula(uu, vv)
    lower_gap = pointwise_lower(lam, uu, vv) - cvals
    upper_gap = cvals - pointwise_upper(a, b, uu, vv)
    return EnvelopeCheck(
        grid=grid,
        max_lower_violation=max(float(lower_gap.max()), 0.0),
        max_upper_violation=max(float(upper_gap.max()), 0.0),
        tangent_params=(a, b),
    )


@functools.lru_cache(maxsize=4)
def _t_grid(grid: int) -> np.ndarray:
    """The read-only ``16 (grid - 1) + 1`` equispaced t in [0, 1], built once per ``grid``."""
    t = np.linspace(0.0, 1.0, 16 * (grid - 1) + 1)
    t.flags.writeable = False
    return t


def _envelope_in_t(df: DependenceFunction, lam: float, grid: int) -> EnvelopeCheck:
    """Both envelope gaps in A units, on a t-grid of ``16 (grid - 1) + 1`` points plus kinks.

    With w = ln(uv) < 0 and t = ln v / w, C = exp(w A(t)); so C lies above
    the lower envelope iff ``A(t) <= 1 - lam min(t, 1-t)``, and below the
    upper one iff ``A(t) >= max(t, 1-t, (1-a)(1-t) + (1-b)t)``.  The gaps are
    maximized over the grid followed by the kinks (split points of A, kinks
    of both bounds), so for a piecewise-linear A the check is exact; a
    maximum does not depend on the order of the points.  ``lam`` must be
    ``lambda_upper(df)`` and ``grid`` an int >= 2.  ``np.maximum`` keeps
    NaN, so a NaN in A is a violation.
    """
    a, b = _tangent(df, lam)
    kinks = [0.5, *df.split_points]
    if a + b < 1.0:
        kinks += _tangent_kinks(a, b)
    t = np.concatenate((_t_grid(grid), kinks))
    s, at = 1.0 - t, df.eval_fn(t)
    lower = np.maximum(0.0, (at - (1.0 - lam * np.minimum(t, s))).max())
    top = np.maximum(np.maximum(t, s), (1.0 - a) * s + (1.0 - b) * t)
    upper = np.maximum(0.0, (top - at).max())
    return EnvelopeCheck(grid, float(lower), float(upper), (a, b))


def rho_bounds(lam: float) -> BoundsInterval:
    """Attainable Spearman rho interval for a known tail coefficient."""
    lam = check_lambda(lam)
    lo = 3.0 * lam / (4.0 - lam)
    hi = 1.0 - 16.0 * ((1.0 - lam) / (4.0 - lam)) ** 2
    return BoundsInterval(lo, hi, "MO alpha=beta=lambda", "Pareto a=b=lambda/2")


def tau_bounds(lam: float) -> BoundsInterval:
    """Attainable Kendall tau interval for a known tail coefficient."""
    lam = check_lambda(lam)
    return BoundsInterval(
        lam / (2.0 - lam), lam, "MO alpha=beta=lambda", "Pareto a=b=lambda/2"
    )


def ev_inequalities(rho: float, tau: float) -> InequalityReport:
    """Hutchinson-Lai and Trutschnig margins for an EV (rho, tau) pair; passed if all >= -1e-9."""
    rho, tau = check_real(rho, "rho", 0.0, 1.0), check_real(tau, "tau", 0.0, 1.0)
    hl_lower = rho - (np.sqrt(1.0 + 3.0 * tau) - 1.0)
    hl_upper = min(1.5 * tau, 2.0 * tau - tau * tau) - rho
    trut = rho - 3.0 * tau / (2.0 + tau)
    passed = bool(min(hl_lower, hl_upper, trut) >= -_ENVELOPE_TOL)
    return InequalityReport(passed, float(hl_lower), float(hl_upper), float(trut))


# ---------------------------------------------------------------------------
# randomized corpus of valid dependence functions
# ---------------------------------------------------------------------------


def _random_convex_pwl(rng) -> DependenceFunction:
    # nondecreasing slopes in [-1, 1], integrated from A(0) = 1, detrended
    # so A(1) = 1, then clipped into the band by taking the max with the
    # envelope max(t, 1 - t); the result is convex with slopes in [-1, 1].
    # The knots are finite and strictly increasing, start at (0, 1) and end
    # at (1, 1) exactly, and pass every check of piecewise_linear_dependence,
    # so they go to _pwl as that would pass them.
    k = int(rng.integers(2, 9))
    grid = _union((0.0, 1.0), 0.02 + 0.96 * rng.random(k))
    slopes = np.sort(rng.uniform(-1.0, 1.0, grid.size - 1))
    vals = 1.0 + np.concatenate([[0.0], np.cumsum(slopes * (grid[1:] - grid[:-1]))])
    vals -= (vals[-1] - 1.0) * grid
    vals[0] = 1.0
    vals[-1] = 1.0
    ts, vs = _pwl_max(grid, vals, _ENVELOPE_T, _ENVELOPE_A)
    return pickands._pwl(ts, vs, "piecewise_linear", {"knots": tuple(zip(ts.tolist(), vs.tolist()))})


def _random_component(rng, kind: int) -> DependenceFunction:
    if kind == 0:
        return _random_convex_pwl(rng)
    if kind == 1:
        return mo_dependence(rng.random(), rng.random())
    if kind == 2:
        return gumbel_dependence(1.0 + 3.0 * -np.log1p(-rng.random()))
    lam = rng.random()
    split = rng.random()
    return pareto_dependence(lam * split, lam * (1.0 - split))


def random_dependence_function(rng) -> DependenceFunction:
    """Draw one valid dependence function (PWL, MO, Gumbel, tangent, or mixture)."""
    kind = int(check_type(rng, np.random.Generator, "rng").integers(0, 5))
    if kind < 4:
        return _random_component(rng, kind)
    first = _random_component(rng, int(rng.integers(0, 4)))
    second = _random_component(rng, int(rng.integers(0, 4)))
    return mix(first, second, rng.random())


def dependence_corpus(n: int, seed: int) -> list:
    """n >= 1 seeded random dependence functions; item i depends only on (seed, i)."""
    return [random_dependence_function(make_rng(seed, i)) for i in range(check_int(n, "n", 1))]


def verify_case(df: DependenceFunction, envelope_grid: int = 200) -> dict:
    """Run every bound of this module against one dependence function.

    Returns a report dict with the computed coefficients, the interval
    margins (negative means violation), the pointwise envelope check and a
    ``passed`` flag: margins >= -1e-7, envelope violations <= 1e-9 and the
    EV inequalities to 1e-9.  Rho and tau are those of
    :func:`rho_numeric` and :func:`tau_numeric`.  The envelope is checked
    on A at ``16 (envelope_grid - 1) + 1`` values of t plus the kinks, so
    its violations are in A units; :func:`check_envelope` checks C itself,
    in C units.  The report is ``_verify_many([df], envelope_grid)[0]``.
    """
    return _verify_many([df], envelope_grid)[0]


def _verify_many(dfs, envelope_grid: int = 200) -> list:
    """The :func:`verify_case` report of each function of ``dfs``, whose rho and tau are one batch.

    ``envelope_grid`` is checked first.  A report does not depend on the
    other functions of the batch.  If the tail coefficients or the batch
    raise, each report comes in turn from :func:`lambda_upper`,
    :func:`rho_numeric` and :func:`tau_numeric`, so the first failing case
    raises its own error, whatever its A or A' raised.
    """
    grid = check_int(envelope_grid, "grid", 2)
    try:
        lams = [lambda_upper(df) for df in dfs]
        integrals = _quadrature(dfs)
    except Exception:  # A and A' are the caller's, and may raise anything
        return [_report(df, lambda_upper(df), rho_numeric(df), tau_numeric(df), grid) for df in dfs]
    return [_report(df, lam, 12.0 * rho - 3.0, tau, grid) for df, lam, (rho, tau) in zip(dfs, lams, integrals)]


def _report(df: DependenceFunction, lam: float, rho: float, tau: float, envelope_grid: int) -> dict:
    """The :func:`verify_case` report of ``df`` with its tail coefficient, rho and tau."""
    ri = rho_bounds(lam)
    ti = tau_bounds(lam)
    env = _envelope_in_t(df, lam, envelope_grid)
    ineq = ev_inequalities(min(max(rho, 0.0), 1.0), min(max(tau, 0.0), 1.0))
    margins = {
        "rho_above_lo": rho - ri.lo,
        "rho_below_hi": ri.hi - rho,
        "tau_above_lo": tau - ti.lo,
        "tau_below_hi": ti.hi - tau,
    }
    passed = (
        all(m >= -_CONTAINMENT_SLACK for m in margins.values())
        and env.max_lower_violation <= _ENVELOPE_TOL
        and env.max_upper_violation <= _ENVELOPE_TOL
        and ineq.passed
    )
    return {
        "family": df.family,
        "lambda": lam,
        "rho": rho,
        "tau": tau,
        "margins": margins,
        "envelope": env,
        "inequalities": ineq,
        "passed": passed,
    }
