"""Numerical engine: adaptive quadrature on [0, 1] with declared split points.

Integrands are expected to accept numpy arrays (all callers in this package
evaluate vectorized functions). Quadrature is adaptive Gauss-Kronrod 7-15
with panels bounded by declared split points, so piecewise-smooth integrands
keep their convergence order.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergentError, NonFiniteError

# Gauss-Kronrod 7-15 abscissae and weights on [-1, 1] (QUADPACK dqk15).
_XGK_HALF = np.array(
    [
        0.9914553711208126,
        0.9491079123427585,
        0.8648644233597691,
        0.7415311855993944,
        0.5860872354676911,
        0.4058451513773972,
        0.2077849550078985,
        0.0,
    ]
)
_WGK_HALF = np.array(
    [
        0.0229353220105292,
        0.0630920926299786,
        0.1047900103222502,
        0.1406532597155259,
        0.1690047266392679,
        0.1903505780647854,
        0.2044329400752989,
        0.2094821410847278,
    ]
)
_WG_HALF = np.array(
    [
        0.1294849661688697,
        0.2797053914892767,
        0.3818300505051189,
        0.4179591836734694,
    ]
)

# Full 15-point rule, nodes ascending; Gauss-7 weights sit on the odd slots.
_NODES = np.concatenate([-_XGK_HALF[:7], _XGK_HALF[::-1]])
_WK = np.concatenate([_WGK_HALF[:7], _WGK_HALF[::-1]])
_WG = np.zeros(15)
_WG[1:14:2] = np.concatenate([_WG_HALF[:3], _WG_HALF[::-1]])


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and panel layout for :func:`integrate`."""

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_depth: int = 60
    split_points: tuple = ()

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise ValueError("quadrature tolerances must be positive")
        if self.max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        pts = tuple(float(p) for p in self.split_points)
        if any(not 0.0 < p < 1.0 for p in pts):
            raise ValueError("split points must lie strictly inside (0, 1)")
        if any(b <= a for a, b in zip(pts, pts[1:])):
            raise ValueError("split points must be strictly increasing")
        object.__setattr__(self, "split_points", pts)


def _gk15(f, a: float, b: float):
    """One Gauss-Kronrod 7-15 panel; returns (kronrod, error_estimate)."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    x = c + h * _NODES
    y = np.asarray(f(x), dtype=float)
    if y.shape != x.shape:
        y = np.broadcast_to(y, x.shape)
    if not np.all(np.isfinite(y)):
        bad = x[~np.isfinite(y)][0]
        raise NonFiniteError(f"integrand returned a non-finite value at t={bad!r}")
    kron = h * float(_WK @ y)
    gauss = h * float(_WG @ y)
    return kron, abs(kron - gauss)


def integrate(f, spec: QuadratureSpec | None = None) -> float:
    """Integrate ``f`` over [0, 1] adaptively.

    Panels between consecutive split points are refined independently; the
    worst panel (largest error estimate) is bisected until the summed error
    estimate meets ``abs_tol + rel_tol * |I|``.
    """
    if spec is None:
        spec = QuadratureSpec()
    edges = [0.0, *spec.split_points, 1.0]

    # Heap of (-err, order, a, b, value, depth); order breaks ties.
    heap = []
    total = 0.0
    total_err = 0.0
    counter = 0
    for a, b in zip(edges, edges[1:]):
        val, err = _gk15(f, a, b)
        heapq.heappush(heap, (-err, counter, a, b, val, 0))
        counter += 1
        total += val
        total_err += err

    while total_err > spec.abs_tol + spec.rel_tol * abs(total):
        neg_err, _, a, b, val, depth = heapq.heappop(heap)
        if depth >= spec.max_depth:
            raise NonConvergentError(
                f"quadrature stalled on [{a}, {b}] at depth {depth} "
                f"(error estimate {-neg_err:.3e})"
            )
        mid = 0.5 * (a + b)
        val_l, err_l = _gk15(f, a, mid)
        val_r, err_r = _gk15(f, mid, b)
        total += val_l + val_r - val
        total_err += err_l + err_r + neg_err  # neg_err == -err
        heapq.heappush(heap, (-err_l, counter, a, mid, val_l, depth + 1))
        counter += 1
        heapq.heappush(heap, (-err_r, counter, mid, b, val_r, depth + 1))
        counter += 1
    return total
