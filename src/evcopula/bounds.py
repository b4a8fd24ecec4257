"""Sharp bounds for extreme value copulas with a known tail coefficient.

Pointwise: every EV copula with upper tail coefficient lam satisfies

    min(u**(1-lam) * v, u * v**(1-lam))  <=  C(u, v)  <=  min(u, v, u**(1-a) * v**(1-b))

for some a, b >= 0 with a + b = lam (a supporting tangent of the dependence
function at t = 1/2).  Coefficientwise:

    3 lam / (4 - lam)  <=  rho  <=  1 - 16 ((1 - lam) / (4 - lam))**2
    lam / (2 - lam)    <=  tau  <=  lam

with the lower ends attained by the Marshall-Olkin copula (alpha = beta =
lam) and the upper ends by the tangent family with a = b = lam / 2.  The
classical rho-tau region, the Hutchinson-Lai and the Trutschnig
inequalities, and the Blomqvist <-> lambda conversion are also provided,
plus a seeded generator of random valid dependence functions for
verification sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coefficients import lambda_upper, rho_numeric, tau_numeric
from .copula import EvCopula, copula_from_pickands
from .errors import ParamOutOfRangeError
from .pickands import (
    ENVELOPE_KNOTS,
    DependenceFunction,
    _pwl_max,
    check_lambda,
    check_tangent,
    gumbel_dependence,
    mix,
    mo_dependence,
    pareto_dependence,
    piecewise_linear_dependence,
    tangent_at_half,
)
from .rng import make_rng

_CONTAINMENT_SLACK = 1e-7
_ENVELOPE_TOL = 1e-9


@dataclass(frozen=True)
class BoundsInterval:
    """Closed coefficient interval with its attaining families."""

    lo: float
    hi: float
    attained_lo: str
    attained_hi: str


@dataclass(frozen=True)
class EnvelopeCheck:
    """Worst pointwise violations of the two-sided copula envelope."""

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
    """Lower envelope: the Marshall-Olkin copula with alpha = beta = lam."""
    lam = check_lambda(lam)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return np.minimum(u ** (1.0 - lam) * v, u * v ** (1.0 - lam))


def pointwise_upper(a: float, b: float, u, v):
    """Upper envelope member ``min(u, v, u**(1-a) * v**(1-b))``."""
    check_tangent(a, b)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return np.minimum(np.minimum(u, v), u ** (1.0 - a) * v ** (1.0 - b))


def check_envelope(copula: EvCopula, grid: int = 200) -> EnvelopeCheck:
    """Evaluate both envelopes against the copula on a uniform grid."""
    if grid < 2:
        raise ParamOutOfRangeError("grid must be >= 2")
    df = copula.dependence
    lam = lambda_upper(df)
    a, b = tangent_at_half(df)
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


def classical_region(tau: float) -> tuple:
    """Classical (all-copulas) rho range for a given tau."""
    if not -1.0 <= tau <= 1.0:
        raise ParamOutOfRangeError(f"tau={tau} not in [-1, 1]")
    if tau >= 0.0:
        return (3.0 * tau - 1.0) / 2.0, (1.0 + 2.0 * tau - tau * tau) / 2.0
    return (tau * tau + 2.0 * tau - 1.0) / 2.0, (1.0 + 3.0 * tau) / 2.0


def ev_inequalities(rho: float, tau: float) -> InequalityReport:
    """Hutchinson-Lai and Trutschnig margins for an EV (rho, tau) pair; passed if all >= -1e-9."""
    if not (0.0 <= rho <= 1.0 and 0.0 <= tau <= 1.0):
        raise ParamOutOfRangeError("rho and tau must lie in [0, 1] for EV copulas")
    hl_lower = rho - (np.sqrt(1.0 + 3.0 * tau) - 1.0)
    hl_upper = min(1.5 * tau, 2.0 * tau - tau * tau) - rho
    trut = rho - 3.0 * tau / (2.0 + tau)
    passed = bool(min(hl_lower, hl_upper, trut) >= -_ENVELOPE_TOL)
    return InequalityReport(passed, float(hl_lower), float(hl_upper), float(trut))


def blomqvist_from_lambda(lam: float) -> float:
    """Blomqvist beta of an EV copula with tail coefficient lam: ``2**lam - 1``."""
    lam = check_lambda(lam)
    return 2.0**lam - 1.0


def lambda_from_blomqvist(beta: float) -> float:
    """Tail coefficient from Blomqvist beta: ``log2(1 + beta)``."""
    if not 0.0 <= beta <= 1.0:
        raise ParamOutOfRangeError(f"beta={beta} not in [0, 1]")
    return float(np.log2(1.0 + beta))


# ---------------------------------------------------------------------------
# randomized corpus of valid dependence functions
# ---------------------------------------------------------------------------


def _random_convex_pwl(rng) -> DependenceFunction:
    # nondecreasing slopes in [-1, 1], integrated from A(0) = 1, detrended
    # so A(1) = 1, then clipped into the band by taking the max with the
    # envelope max(t, 1 - t); the result is convex with slopes in [-1, 1].
    k = int(rng.integers(2, 9))
    ts = np.sort(0.02 + 0.96 * rng.random(k))
    grid = np.concatenate([[0.0], np.unique(ts), [1.0]])
    slopes = np.sort(rng.uniform(-1.0, 1.0, grid.size - 1))
    vals = 1.0 + np.concatenate([[0.0], np.cumsum(slopes * np.diff(grid))])
    vals -= (vals[-1] - 1.0) * grid
    vals[0] = 1.0
    vals[-1] = 1.0
    return piecewise_linear_dependence(
        np.column_stack(_pwl_max(grid, vals, *np.transpose(ENVELOPE_KNOTS)))
    )


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
    kind = int(rng.integers(0, 5))
    if kind < 4:
        return _random_component(rng, kind)
    first = _random_component(rng, int(rng.integers(0, 4)))
    second = _random_component(rng, int(rng.integers(0, 4)))
    return mix(first, second, rng.random())


def dependence_corpus(n: int, seed: int) -> list:
    """n seeded random dependence functions; item i depends only on (seed, i)."""
    return [random_dependence_function(make_rng(seed, i)) for i in range(n)]


def verify_case(df: DependenceFunction, envelope_grid: int = 200) -> dict:
    """Run every bound of this module against one dependence function.

    Returns a report dict with the computed coefficients, the interval
    margins (negative means violation) and a ``passed`` flag: margins
    >= -1e-7, envelope violations <= 1e-9 and the EV inequalities to 1e-9.
    """
    lam = lambda_upper(df)
    rho = rho_numeric(df)
    tau = tau_numeric(df)
    ri = rho_bounds(lam)
    ti = tau_bounds(lam)
    env = check_envelope(copula_from_pickands(df), envelope_grid)
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
