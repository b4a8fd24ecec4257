"""Numerical engine: adaptive quadrature on [0, 1] with declared split points.

Integrands are expected to accept numpy arrays of any shape (all callers in
this package evaluate vectorized functions).  Quadrature is adaptive
Gauss-Kronrod 7-15 with panels bounded by declared split points, so
piecewise-smooth integrands keep their convergence order.  Refinement goes
level by level: every active panel of a level is evaluated in one call of
the integrand, the panels with the smallest error estimates are accepted
while their errors fit in half of the remaining error budget, and the rest
are bisected into the next level.  A level may hold at most ``_MAX_PANELS``
panels.
"""

from __future__ import annotations

import numpy as np

from .errors import NonConvergentError, NonFiniteError, ParamOutOfRangeError, check_split_points

# Gauss-Kronrod 7-15 abscissae and weights on [-1, 1] (QUADPACK dqk15).
_XGK_HALF = np.array([
    0.9914553711208126, 0.9491079123427585, 0.8648644233597691, 0.7415311855993944,
    0.5860872354676911, 0.4058451513773972, 0.2077849550078985, 0.0,
])
_WGK_HALF = np.array([
    0.0229353220105292, 0.0630920926299786, 0.1047900103222502, 0.1406532597155259,
    0.1690047266392679, 0.1903505780647854, 0.2044329400752989, 0.2094821410847278,
])
_WG_HALF = np.array([0.1294849661688697, 0.2797053914892767, 0.3818300505051189, 0.4179591836734694])

# Full 15-point rule, nodes ascending; Gauss-7 weights sit on the odd slots.
_NODES = np.concatenate([-_XGK_HALF[:7], _XGK_HALF[::-1]])
_WK = np.concatenate([_WGK_HALF[:7], _WGK_HALF[::-1]])
_WG = np.zeros(15)
_WG[1:14:2] = np.concatenate([_WG_HALF[:3], _WG_HALF[::-1]])
_W = np.stack([_WK, _WG], axis=1)  # one product gives both rules


_ABS_TOL = 1e-12
_REL_TOL = 1e-10
_MAX_DEPTH = 60
_MAX_PANELS = 2**16


def _run_starts(xs: np.ndarray) -> np.ndarray:
    """Mask of the first item of each run of equal values in ``xs``, which is not empty."""
    starts = np.empty(len(xs), dtype=bool)
    starts[0] = True
    np.not_equal(xs[1:], xs[:-1], out=starts[1:])
    return starts


def _gk15(f, a: np.ndarray, b: np.ndarray):
    """Gauss-Kronrod 7-15 on the panels ``[a[i], b[i]]``; returns (kronrod, error) arrays.

    ``f`` is called once, on the (panels, 15) array of nodes.
    """
    h = 0.5 * (b - a)
    x = (0.5 * (a + b))[:, None] + h[:, None] * _NODES
    y = np.asarray(f(x), dtype=float)
    if y.shape != x.shape:
        y = np.broadcast_to(y, x.shape)
    finite = np.isfinite(y)
    if not finite.all():
        raise NonFiniteError(f"integrand returned a non-finite value at t={float(x[~finite][0])!r}")
    kron, gauss = h * (y @ _W).T
    return kron, np.abs(kron - gauss)


def integrate(f, split_points=()) -> float:
    """Integrate ``f`` over [0, 1] adaptively to ``1e-12 + 1e-10 * |I|``.

    The first level holds the panels between consecutive ``split_points``.
    Each level evaluates all its panels in one call of ``f``.  If the
    accepted errors plus the level's errors meet the tolerance, the sum of
    the accepted values and the level's values is returned.  Otherwise the
    panels with the smallest error estimates are accepted while their
    errors sum to at most half of what the tolerance leaves after the
    errors accepted so far, and the rest are bisected into the next level.
    :class:`NonConvergentError` names the worst panel when it would need
    bisecting at depth 60, or when the next level would hold more than
    ``_MAX_PANELS`` (2**16) panels.  A non-finite value of ``f`` raises
    :class:`NonFiniteError` naming its t.  Split points must be real
    numbers, strictly increasing and inside (0, 1), else
    :class:`ParamOutOfRangeError` (see :func:`errors.check_split_points`),
    as is an ``f`` that is not callable.
    """
    if not callable(f):
        raise ParamOutOfRangeError(f"integrand must be callable, got {type(f).__name__}")
    return _integrate(f, check_split_points(split_points))


def _integrate(f, edges: np.ndarray) -> float:
    """:func:`integrate` of ``f`` over the panels between the checked ``edges``, ``[0, *split_points, 1]``."""
    a, b = edges[:-1], edges[1:]
    done = done_err = 0.0
    for depth in range(_MAX_DEPTH + 1):
        val, err = _gk15(f, a, b)
        total = done + val.sum()
        budget = _ABS_TOL + _REL_TOL * abs(total) - done_err
        if err.sum() <= budget:
            return float(total)
        order = np.argsort(err, kind="stable")
        cum = np.cumsum(err[order])
        k = int(np.searchsorted(cum, 0.5 * budget, side="right"))
        done += val[order[:k]].sum()
        done_err += cum[k - 1] if k else 0.0
        rest = order[k:]
        if depth == _MAX_DEPTH or 2 * len(rest) > _MAX_PANELS:
            w = order[-1]
            raise NonConvergentError(
                f"quadrature stalled on [{a[w]}, {b[w]}] at depth {depth} with "
                f"{len(rest)} panels to bisect (error estimate {err[w]:.3e})"
            )
        a, b = a[rest], b[rest]
        mid = 0.5 * (a + b)
        a, b = np.concatenate([a, mid]), np.concatenate([mid, b])
