"""Dependence coefficients of extreme value copulas.

Spearman's rho, Kendall's tau, the upper tail coefficient and Blomqvist's
beta are computed numerically from any dependence function, and in closed
form for the Marshall-Olkin, Gumbel and tangent (Pareto-bound) families.

For a dependence function A:

    rho    = 12 * integral dt / (A(t) + 1)^2 - 3
    tau    = integral t (1 - t) dA'(t) / A(t)      (Stieltjes)
           = integral A'(t) [t (1 - t) A'(t) - (1 - 2t) A(t)] / A(t)^2 dt
    lambda = 2 (1 - A(1/2))
    beta   = 2^lambda - 1 = 4 C(1/2, 1/2) - 1

The second form of tau is the first integrated by parts: ``t (1 - t) / A``
vanishes at both ends, so no boundary terms remain.  It needs only A and
A', never A''.  Both integrals run over panels that end at the function's
declared split points, so every jump of A' sits on a panel edge and the
integrands are smooth inside each panel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .copula import EvCopula
from .errors import check_real, check_type
from .numerics import _integrate_many as integrate  # perfbench's tracer wraps this name
from .pickands import DependenceFunction, check_lambda, check_mo, check_tangent, lambda_upper

CLOSED_FORM = "closed_form"
QUADRATURE = "quadrature"


@dataclass(frozen=True)
class CoefficientSet:
    """Rho, tau, upper tail lambda and Blomqvist beta with provenance tags."""

    rho: float
    tau: float
    lambda_u: float
    beta: float
    method: dict

    def as_rows(self):
        return (
            ("rho", self.rho, self.method["rho"]),
            ("tau", self.tau, self.method["tau"]),
            ("lambda", self.lambda_u, self.method["lambda"]),
            ("beta", self.beta, self.method["beta"]),
        )


def _quadrature(dfs, rho: bool = True, tau: bool = True) -> list:
    """Per function of ``dfs``, its rho integral if ``rho`` and its tau if ``tau``, by one batch.

    The rho integral is ``integral dt / (A + 1)^2``, and tau integrates
    ``A' [t (1-t) A' - (1-2t) A] / A^2``.  The Stieltjes atoms
    ``t (1-t) (A'(t+) - A'(t-)) / A(t)`` of kinked functions need no
    separate sum: integration by parts turns them into jumps of the
    integrand, and each jump of A' is a panel edge.  Each integral runs
    over its function's ``edges`` to ``1e-12 + 1e-10 |I|`` by
    :func:`numerics._integrate_many`, whose errors it raises, so no value
    depends on the other integrals of the batch, bit for bit.  Rho or tau
    alone is for one function.  On each level A is read once per
    function, over its rho and tau rows together, and A' once more over
    its tau rows.
    """

    def integrand(x, rows):
        if not (rho and tau):
            # one integral of one function: A and A' are used as they come, uncopied,
            # so a scalar broadcasts and any other wrong shape raises numpy's own error
            a = dfs[0].eval_fn(x)
            if rho:
                return (a + 1.0) ** -2.0
            t, at, d = x, a, dfs[0].deriv_fn(x, "right")
        else:
            # function i's rho is on rows rows[2i]:rows[2i + 1] of x, its tau on rows up to rows[2i + 2]
            a, d = np.empty_like(x), np.empty_like(x)
            for df, lo, mid, hi in zip(dfs, rows[::2], rows[1::2], rows[2::2]):
                if lo < hi:
                    a[lo:hi] = df.eval_fn(x[lo:hi])
                if mid < hi:
                    d[mid:hi] = df.deriv_fn(x[mid:hi], "right")
            if len(dfs) == 1:
                is_tau = slice(rows[1], None)
            else:
                is_tau = np.array([False, True] * len(dfs)).repeat(np.diff(rows))
            t, at, d = x[is_tau], a[is_tau], d[is_tau]
            a = (a + 1.0) ** -2.0  # on every row: the tau rows are written over below
        y = d * (t * (1.0 - t) * d - (1.0 - 2.0 * t) * at) / (at * at)
        if not rho:
            return y
        a[is_tau] = y
        return a  # the integrand, written over A

    return integrate(integrand, [df.edges for df in dfs for _ in range(rho + tau)]).reshape(len(dfs), -1).tolist()


def rho_numeric(df: DependenceFunction) -> float:
    """Spearman's rho of :func:`_quadrature`, split at ``df.split_points``, to 1e-12 + 1e-10 |I|."""
    return 12.0 * _quadrature([check_type(df, DependenceFunction, "df")], tau=False)[0][0] - 3.0


def tau_numeric(df: DependenceFunction) -> float:
    """Kendall's tau of :func:`_quadrature`, split at ``df.split_points``, to 1e-12 + 1e-10 |I|."""
    return _quadrature([check_type(df, DependenceFunction, "df")], rho=False)[0][0]


def blomqvist(copula) -> float:
    """Blomqvist's beta ``4 C(1/2, 1/2) - 1``."""
    return 4.0 * float(check_type(copula, EvCopula, "copula")(0.5, 0.5)) - 1.0


def compute_coefficients(df: DependenceFunction) -> CoefficientSet:
    """All four coefficients, closed-form where the family provides one.

    A closed form is used only on a builder's own output, whose ``exact``
    holds the parameters it checked; any other function, whatever its
    family, takes lambda from :func:`lambda_upper`, rho and tau from
    quadrature.
    """
    exact = check_type(df, DependenceFunction, "df").exact
    family = None if exact is None else df.family
    if family == "marshall_olkin":
        return mo_closed_form(*exact)
    lam = lambda_upper(df)
    beta = 2.0**lam - 1.0
    method = {"lambda": CLOSED_FORM, "beta": CLOSED_FORM}
    if family == "pareto":
        rho, tau = pareto_closed_form(*exact)
        method.update(rho=CLOSED_FORM, tau=CLOSED_FORM)
        return CoefficientSet(rho, tau, lam, beta, method)
    if family == "gumbel":
        tau, _ = gumbel_closed_form(*exact)
        method.update(rho=QUADRATURE, tau=CLOSED_FORM)
        return CoefficientSet(rho_numeric(df), tau, lam, beta, method)
    method.update(rho=QUADRATURE, tau=QUADRATURE)
    return CoefficientSet(rho_numeric(df), tau_numeric(df), lam, beta, method)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def mo_closed_form(alpha: float, beta: float) -> CoefficientSet:
    """Marshall-Olkin coefficients.

    rho = 3ab / (2a - ab + 2b), tau = ab / (a - ab + b),
    lambda = min(a, b); both correlation formulas degenerate to 0 when
    a + b == 0.
    """
    alpha, beta = check_mo(alpha, beta)
    if alpha + beta == 0.0:
        rho = tau = 0.0
    else:
        rho = 3.0 * alpha * beta / (2.0 * alpha - alpha * beta + 2.0 * beta)
        tau = alpha * beta / (alpha - alpha * beta + beta)
    lam = min(alpha, beta)
    return CoefficientSet(
        rho,
        tau,
        lam,
        2.0**lam - 1.0,
        {k: CLOSED_FORM for k in ("rho", "tau", "lambda", "beta")},
    )


def gumbel_closed_form(theta: float) -> tuple:
    """Gumbel ``(tau, lambda) = (1 - 1/theta, 2 - 2**(1/theta))``; theta may be inf."""
    theta = check_real(theta, "theta", 1.0, math.inf)
    if math.isinf(theta):
        return 1.0, 1.0
    return 1.0 - 1.0 / theta, 2.0 - 2.0 ** (1.0 / theta)


def gumbel_tau_from_lambda(lam: float) -> float:
    """Gumbel tau as a function of its tail coefficient: ``1 - log2(2 - lam)``."""
    lam = check_lambda(lam)
    return 1.0 - math.log2(2.0 - lam)


def gumbel_theta_from_lambda(lam: float) -> float:
    """Invert ``lam = 2 - 2**(1/theta)``; lam == 1 maps to infinity."""
    lam = check_lambda(lam)
    if lam == 1.0:
        return math.inf
    return 1.0 / math.log2(2.0 - lam)


def pareto_closed_form(a: float, b: float) -> tuple:
    """Tangent-family ``(rho, tau)``.

    rho = 1 - 16 (1 - lam)^2 / ((4 - lam)^2 - 9 (a - b)^2) with
    lam = min(a + b, 1), and tau = lam exactly; ``check_tangent`` lets
    a + b pass 1 by up to 1e-12.
    """
    a, b = check_tangent(a, b)
    lam = min(a + b, 1.0)
    denom = (4.0 - lam) ** 2 - 9.0 * (a - b) ** 2
    rho = 1.0 if denom == 0.0 else 1.0 - 16.0 * (1.0 - lam) ** 2 / denom
    return rho, lam
