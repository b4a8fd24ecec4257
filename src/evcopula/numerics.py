"""Numerical engine: adaptive quadrature on [0, 1] with declared split points.

Integrands are expected to accept numpy arrays of any shape (all callers in
this package evaluate vectorized functions).  Quadrature is adaptive
Gauss-Kronrod 7-15 with panels bounded by declared split points, so
piecewise-smooth integrands keep their convergence order.  Many integrals
are refined together, level by level: every active panel of every integral
of a batch is evaluated in one pass, one call ``f(x, rows)`` of the
integrand on one node array ``x``, whose rows ``rows`` split by integral.
Each integral then accepts its panels with the smallest error estimates
while their errors fit in half of its remaining error budget, and bisects
the rest into the next level.  The tolerance, the depth limit and the
``_MAX_PANELS`` limit on a level hold per integral, and every sum runs over
one integral's panels in a fixed order, so no integral's value depends on
the others in its batch.  One integral is a batch of one.
"""

from __future__ import annotations

import numpy as np

from .errors import NonConvergentError, NonFiniteError

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

    ``f`` is called once, on the (panels, 15) array of nodes.  Each panel's
    rules sum its own row, so its values do not depend on the other panels.
    """
    h = 0.5 * (b - a)
    x = (0.5 * (a + b))[:, None] + h[:, None] * _NODES
    y = np.asarray(f(x), dtype=float)
    if y.shape != x.shape:
        y = np.broadcast_to(y, x.shape)
    finite = np.isfinite(y)
    if not finite.all():
        raise NonFiniteError(f"integrand returned a non-finite value at t={float(x[~finite][0])!r}")
    kron = h * (y * _WK).sum(axis=1)
    return kron, np.abs(kron - h * (y * _WG).sum(axis=1))


def _integrate_many(f, edges) -> np.ndarray:
    """Integrate ``len(edges)`` integrands over [0, 1] adaptively, each to ``1e-12 + 1e-10 * |I|``.

    Integral j's first level holds the panels between ``edges[j]``, the
    array ``[0, *split_points, 1]`` checked by
    :func:`errors.check_split_points`.  Each level calls ``f(x, rows)``
    once: ``x`` is the (panels, 15) node array of every active panel,
    grouped by integral in order, so integral j's nodes are rows
    ``rows[j]:rows[j + 1]`` of ``x`` (none once it has converged).  If an
    integral's accepted errors plus its level's errors meet its tolerance,
    its value is the sum of its accepted values and its level's values.
    Otherwise its panels with the smallest error estimates are accepted
    while their errors sum to at most half of what its tolerance leaves
    after the errors it accepted before, and the rest are bisected into the
    next level.  :class:`NonConvergentError` names an integral's worst
    panel when it would need bisecting at depth 60, or when its next level
    would hold more than ``_MAX_PANELS`` (2**16) panels.  A non-finite value
    of ``f`` raises :class:`NonFiniteError` naming its t.  Either names the
    first integral, in order, that fails on the first level where any fails.
    """
    m = len(edges)
    counts = np.array([len(e) - 1 for e in edges])
    ids = np.arange(m).repeat(counts)
    a = np.concatenate([e[:-1] for e in edges])
    b = np.concatenate([e[1:] for e in edges])
    # a settled integral keeps its value in ``done`` and an unbounded budget
    done, done_err = np.zeros(m), np.zeros(m)
    for depth in range(_MAX_DEPTH + 1):
        ends = counts.cumsum()
        rows = [0, *ends.tolist()]
        val, err = _gk15(lambda x: f(x, rows), a, b)
        # bincount sums each integral's panels one after another, in panel order
        total = done + np.bincount(ids, val, m)
        budget = _ABS_TOL + _REL_TOL * np.abs(total) - done_err
        settled = np.bincount(ids, err, m) <= budget
        if settled.all():
            return total
        budget[settled] = np.inf  # so a settled integral accepts all its panels
        # each integral's panels by increasing error, ties in panel order; ids stay sorted
        order = np.lexsort((err, ids))
        err, val = err[order], val[order]
        col = np.arange(ids.size) - (ends - counts)[ids]
        cum = np.zeros((m, counts.max()))
        cum[ids, col] = err
        np.add.accumulate(cum, axis=1, out=cum)  # each row summed one panel after another
        accept = cum[ids, col] <= 0.5 * budget[ids]
        done = np.where(settled, total, done + np.bincount(ids, val * accept, m))
        done_err += np.bincount(ids, err * accept, m)  # the last accepted sum of each row
        done_err[settled] = -np.inf
        bisect = ~accept
        rest = np.bincount(ids[bisect], minlength=m)
        stalled = (rest > (0 if depth == _MAX_DEPTH else _MAX_PANELS // 2)).nonzero()[0]
        if stalled.size:
            g = stalled[0]
            w = order[ends[g] - 1]
            raise NonConvergentError(
                f"quadrature stalled on [{a[w]}, {b[w]}] at depth {depth} with "
                f"{rest[g]} panels to bisect (error estimate {err[ends[g] - 1]:.3e})"
            )
        # each integral's left halves, then its right halves
        keep = order[bisect]
        a, b = a[keep], b[keep]
        mid = 0.5 * (a + b)
        ids = np.concatenate((ids[bisect],) * 2)
        halves = ids.argsort(kind="stable")
        ids, a, b = ids[halves], np.concatenate((a, mid))[halves], np.concatenate((mid, b))[halves]
        counts = 2 * rest


def _integrate(f, edges: np.ndarray) -> float:
    """Integrate ``f`` over the panels between ``edges`` as a batch of one of :func:`_integrate_many`."""
    return float(_integrate_many(lambda x, rows: f(x), [edges])[0])
