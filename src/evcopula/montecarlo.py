"""Sampling from extreme value copulas and empirical coefficient estimation.

Marshall-Olkin pairs come from the exact common-shock construction: with
independent exponentials E1, E2, E12 at rates (1-alpha)/alpha,
(1-beta)/beta and 1, the survival transforms of
(min(E1, E12), min(E2, E12)) are uniform and jointly follow the MO copula.
Any other EV copula is sampled by inverting its conditional distribution
v -> dC/du(u, v) in q = ln v / ln u: a per-copula table of that CDF at
exact nodes between the split points of A brackets each draw.  On a
linear piece of A the CDF is exp(-phi) with phi linear in q, so such a
piece is one table cell, inverted in one division; in a curved cell,
secant steps on the exact CDF narrow the bracket.  A kink of A is still a
zero-width table cell, so the singular mass of kinked families lands
exactly on its jump curve.

The rank estimators sort each coordinate once and take every statistic
from the runs of ties of those sorts; Kendall's discordant pairs are
counted by Knight's (1966) merge count, vectorized one merge level at a
time.

All randomness flows through the Philox streams of :mod:`evcopula.rng` and
only uniform draws are consumed, so batches are bit-reproducible from
(seed, generator, n).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .copula import EvCopula
from .errors import DegenerateSampleError, ParamOutOfRangeError, check_int, check_real, check_type
from .numerics import _run_starts
from .pickands import check_mo
from .rng import make_rng


def _real_1d(x, name: str) -> np.ndarray:
    """``x`` as a 1-D float array.

    Lists and integer arrays are accepted; any other dimension, and bool,
    complex, object or string data, raise :class:`DegenerateSampleError`.
    """
    try:
        x = np.asarray(x)
    except ValueError as exc:  # a ragged list
        raise DegenerateSampleError(f"{name} must be a 1-D array of real numbers: {exc}") from None
    if x.ndim != 1 or x.dtype.kind not in "iuf":
        raise DegenerateSampleError(
            f"{name} must be a 1-D array of real numbers, got {x.ndim}-D {x.dtype}"
        )
    return x.astype(float, copy=False)


def _check_pairs(u, v) -> tuple:
    """``u`` and ``v`` as 1-D float arrays of one length, each checked by :func:`_real_1d`."""
    u, v = _real_1d(u, "u"), _real_1d(v, "v")
    if len(u) != len(v):
        raise DegenerateSampleError(f"{len(u)} u values but {len(v)} v values")
    return u, v


@dataclass(frozen=True)
class SampleBatch:
    """Immutable batch of (u, v) pairs plus generation metadata; ``n = len(u) == len(v)``.

    ``u`` and ``v`` are stored as 1-D float arrays (see :func:`_check_pairs`).
    """

    u: np.ndarray
    v: np.ndarray
    seed: int
    generator: str

    def __post_init__(self):
        u, v = _check_pairs(self.u, self.v)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    @property
    def n(self) -> int:
        return len(self.u)


@dataclass(frozen=True)
class EmpiricalCoefficients:
    """Rank-based estimates; ``lambda_hat`` maps threshold to estimate."""

    rho_hat: float
    tau_hat: float
    beta_hat: float
    lambda_hat: tuple
    lambda_summary: float


def sample_mo(alpha: float, beta: float, n: int, seed: int) -> SampleBatch:
    """Exact Marshall-Olkin sample via the three-shock construction.

    A zero parameter removes the common shock's effect on that margin, so
    those cases route to the independence sampler.
    """
    alpha, beta = check_mo(alpha, beta)
    n = check_int(n, "n", 1)
    rng = make_rng(seed, 0xA0)  # stream tag distinct from the generic sampler
    if alpha == 0.0 or beta == 0.0:
        u = rng.random(n)
        v = rng.random(n)
        return SampleBatch(u, v, seed, f"mo(alpha={alpha},beta={beta})")
    e_shared = -np.log1p(-rng.random(n))
    e1 = -np.log1p(-rng.random(n))
    e2 = -np.log1p(-rng.random(n))
    x = e_shared if alpha == 1.0 else np.minimum(e1 * (alpha / (1.0 - alpha)), e_shared)
    y = e_shared if beta == 1.0 else np.minimum(e2 * (beta / (1.0 - beta)), e_shared)
    u = np.exp(-x / alpha)
    v = np.exp(-y / beta)
    return SampleBatch(u, v, seed, f"mo(alpha={alpha},beta={beta})")


_PANEL_NODES = 64  # equispaced table nodes per panel between split points, ends included
_BLOCK = 16384  # pairs inverted at once, so temporaries do not grow with n
_V_RESOLUTION = 2.0**-47  # accuracy of v, that of the retired 47-pass bisection
_LINEAR_TOL = 1e-15  # largest rise of A' over a linear panel, and gap of A from its chord
_PANEL_FRACTIONS = np.linspace(0.0, 1.0, _PANEL_NODES)  # where the nodes lie in their panel


def _psi_m(a, da, t, q):
    """psi = A (1 + q) - 1 and m = -ln(A - t A'), so that phi(q) = x psi + m.

    psi is summed as (A - 1) + A q, where A - 1 is exact: rounding 1 + q
    first costs about 1e-16 x in phi, which moved v by 2e-12 where dC/du
    is flat in v.  m is inf on a piece where A = t.
    """
    return (a - 1.0) + a * q, -np.log(np.maximum(a - t * da, 0.0))


def _phi(df, x, q):
    """phi(q) = x (A(t) (1 + q) - 1) - ln(A(t) - t A'(t-)) at t = q / (1 + q), for finite q >= 0."""
    t = q / (1.0 + q)
    psi, m = _psi_m(df.eval_fn(t), df.deriv_fn(t, "left"), t, q)
    return x * psi + m


def _phi_table(df) -> tuple:
    """Nodes ``q`` of the inversion table, ``psi`` and ``m`` with phi(q_j) = x psi_j + m_j, and ``slope``.

    Each panel between split points gets ``_PANEL_NODES`` equispaced t
    nodes; q = t / (1 - t) is inf at t = 1, and that node is repeated up to
    a power-of-two length.  A and A' are read at the exact t, and a split
    point is stored twice, at the same q: with A'(t-) as the end of one
    panel, then with A'(t+) as the start of the next, so a jump of phi
    there is a zero-width cell.  A panel is linear if its A'(b-) exceeds
    its A'(a+) by at most ``_LINEAR_TOL``, which for a convex A bounds its
    gap from the chord, and if A at its nodes is that near the chord too
    (``eval_fn`` may keep a kink within 1e-12 of an end or of another kink,
    which the split points and ``deriv_fn`` drop).  Then phi is linear on
    it: the panel keeps only its two end nodes, one cell, whose ``slope``
    is dpsi/dq = A + (1 - t) A' at its first node.  ``slope`` is inf on the
    zero-width cells and on a linear panel where A = t, whose m is inf, and
    NaN on curved cells; it is None when no panel is linear.
    """
    edges = np.array([0.0, *df.split_points, 1.0])
    t = np.linspace(edges[:-1], edges[1:], _PANEL_NODES, axis=-1).ravel()
    da = df.deriv_fn(t, "left")
    starts = np.arange(_PANEL_NODES, len(t), _PANEL_NODES)  # second copies of split points
    da[starts] = df.deriv_fn(t[starts], "right")
    q = np.append(t[:-1] / (1.0 - t[:-1]), np.inf)
    a = df.eval_fn(t)
    table = (q, *_psi_m(a, da, t, q))
    panels = da.reshape(-1, _PANEL_NODES)
    linear = panels[:, -1] - panels[:, 0] <= _LINEAR_TOL
    if linear.any():
        ap = a.reshape(-1, _PANEL_NODES)
        gap = ap - ap[:, :1] - (ap[:, -1:] - ap[:, :1]) * _PANEL_FRACTIONS
        linear &= np.abs(gap).max(axis=1) <= _LINEAR_TOL
    keep = np.ones(panels.shape, dtype=bool)
    keep[linear, 1:-1] = False
    rows = np.flatnonzero(keep)  # then the node at q = inf, up to a power-of-two length
    rows = np.append(rows, np.full((1 << (len(rows) - 1).bit_length()) - len(rows), rows[-1]))
    if not linear.any():
        return (*(arr[rows] for arr in table), None)
    slope = np.full(len(t), np.nan)
    slope[_PANEL_NODES - 1 :: _PANEL_NODES] = np.inf  # the last node of each panel
    first = np.flatnonzero(linear) * _PANEL_NODES
    dpsi = np.maximum(a[first] + (1.0 - t[first]) * da[first], 0.0)
    # on a piece A = t, phi is inf past a first node that rounding may leave finite: a jump
    slope[first] = np.where(np.isinf(table[2][first + _PANEL_NODES - 1]), np.inf, dpsi)
    return tuple(arr[rows] for arr in (*table, slope))


def _invert(df, table, x, e):
    """q* = sup{q : phi(q) <= e} for each pair (e finite), from its table cell and secant steps.

    A binary search finds the last node j with ``x psi_j + m_j <= e``.  In
    a linear cell, q* is where the line through phi(a) with slope
    x dpsi/dq meets e, clamped to the cell [a, b]: one division, also in
    the last cell, which reaches q = inf.  If node j + 1 has the same q,
    the cell has zero width: phi jumps over e there, an atom, and q* is
    that node.  In a curved cell, secant steps through the last two
    iterates shrink [a, b] until v = u**q varies by at most
    ``_V_RESOLUTION`` over it, and q* is its lower end a.  A step that
    leaves the bracket, or has an infinite phi, is a midpoint instead, as
    is every fourth step where the bracket has not halved since the last
    such check, so the loop ends; steps keep half a tolerance from a and
    b, so the bracket closes once an iterate is that near the root.  The
    last cell ends at 1 + e/x instead of inf: phi(q) >= x (q - 1).
    """
    q, psi, m, slope = table
    j = np.zeros(len(x), dtype=np.intp)
    step = len(q) // 2
    while step:
        k = j + step
        j += step * (x * psi[k] + m[k] <= e)
        step //= 2
    a, b = q[j], q[j + 1]
    fa = x * psi[j] + m[j] - e
    if slope is None:
        out = a.copy()
    else:
        s = slope[j]
        with np.errstate(divide="ignore", invalid="ignore"):  # fa / 0 on a flat piece of phi
            out = np.fmin(np.fmax(a - fa / (x * s), a), b)  # a where s is NaN or inf
        curved = np.isnan(s)
        if not curved.any():
            return out
        b = np.where(curved, b, a)  # only a curved cell keeps a bracket
    fb = x * psi[j + 1] + m[j + 1] - e
    last = np.flatnonzero(np.isinf(b))
    b[last] = 1.0 + e[last] / x[last]
    fb[last] = _phi(df, x[last], b[last]) - e[last]
    tol = _V_RESOLUTION / np.maximum(x * np.exp(-x * a), 1e-300)  # |dv/dq| <= x u**a on [a, b]
    idx = np.flatnonzero(b - a > tol)
    # the last two iterates start as the cell ends, so the first step is regula falsi
    a, b, c0, f0, c1, f1, x, e, tol = (arr[idx] for arr in (a, b, b, fb, a, fa, x, e, tol))
    mark = b - a  # bracket width at the last check
    steps = 0
    while idx.size:
        steps += 1
        with np.errstate(invalid="ignore"):  # 0/0 or inf/inf gives NaN: a midpoint
            c = c1 - f1 * (c1 - c0) / (f1 - f0)
        secant = (a <= c) & (c <= b) & np.isfinite(f0)
        if steps % 4 == 0:
            secant &= b - a <= 0.5 * mark
            mark = b - a
        c = np.where(secant, c, 0.5 * (a + b))
        c = np.minimum(np.maximum(c, a + 0.5 * tol), b - 0.5 * tol)
        fc = _phi(df, x, c) - e
        up = fc > 0.0  # the root lies below c
        a, b = np.where(up, a, c), np.where(up, c, b)
        c0, f0, c1, f1 = c1, f1, c, fc
        out[idx] = a
        keep = np.flatnonzero(b - a > tol)
        idx, a, b, c0, f0, c1, f1, x, e, tol, mark = (
            arr[keep] for arr in (idx, a, b, c0, f0, c1, f1, x, e, tol, mark)
        )
    return out


def sample_generic(copula: EvCopula, n: int, seed: int) -> SampleBatch:
    """Sample any EV copula by conditional-distribution inversion.

    Draws (u, p) uniform and sets v to the generalized inverse
    ``inf{v : dC/du(u, v) >= p}``.  With x = -ln u, e = -ln p and
    q = ln v / ln u, ``dC/du = exp(-phi(q))`` for the non-decreasing
    phi of :func:`_phi`, so v = u**q* with q* = sup{q : phi(q) <= e}.  A
    per-copula table of phi at exact t nodes brackets q* (see
    :func:`_phi_table`).  On a linear piece of A, phi is linear and the
    piece is one cell, where q* takes one division; in a curved cell,
    safeguarded secant steps on phi narrow the bracket until v is within
    2**-47 (see :func:`_invert`); p = 0 gives v = 0.  A kink of A makes phi
    jump at a split point, which the table still stores as a zero-width
    cell, so its atom of v lands exactly on the jump curve.  Pairs are
    inverted in blocks of ``_BLOCK``, so memory beyond the output stays
    bounded.
    """
    df = check_type(copula, EvCopula, "copula").dependence
    n = check_int(n, "n", 1)
    rng = make_rng(seed, 0xB1)
    u = np.maximum(rng.random(n), 1e-300)
    p = rng.random(n)
    v = np.empty(n)
    with np.errstate(divide="ignore"):  # -ln 0 = inf: m on a piece where A = t
        table = _phi_table(df)
        for s in range(0, n, _BLOCK):
            block = slice(s, s + _BLOCK)
            drawn = p[block] > 0.0  # p = 0 has v = 0
            e = -np.log(np.where(drawn, p[block], 1.0))
            q = _invert(df, table, -np.log(u[block]), e)
            v[block] = np.where(drawn, u[block] ** q, 0.0)
    return SampleBatch(u, v, seed, f"generic({df.family})")


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------


def _run_lengths(starts: np.ndarray) -> np.ndarray:
    """Lengths of the runs whose first items the mask ``starts`` marks."""
    return np.diff(np.flatnonzero(starts), append=len(starts))


def _tied_pairs(counts: np.ndarray) -> int:
    """Pairs within runs of the given lengths."""
    return int((counts * (counts - 1) // 2).sum())


def _ties(x: np.ndarray) -> tuple:
    """One sort of ``x``: its sorted values, each item's run of ties, and the run lengths.

    Runs are numbered 0, 1, ... in sorted order, and the run numbers are
    returned in the order of ``x``; -0.0 ties with 0.0.  ``x`` has no NaN.
    """
    order = np.argsort(x)
    xs = x[order]
    starts = _run_starts(xs)
    run = np.empty(len(x), dtype=np.intp)
    run[order] = np.cumsum(starts) - 1
    return xs, run, _run_lengths(starts)


def _mean_ranks(run: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """1-based ranks, tied items sharing their mean, from the runs of :func:`_ties`."""
    starts = np.cumsum(counts) - counts
    return ((2 * starts + counts + 1) / 2.0)[run]


_INV_BLOCK = 8  # pairs inside blocks this wide are compared directly


def _inversions(w: np.ndarray) -> int:
    """Number of pairs i < j with w[i] > w[j], for integers 0 <= w < len(w).

    Knight's (1966) merge count, one merge level at a time; the dtype of
    ``w`` must hold 2 len(w) + 1.  ``w`` is padded to a power-of-two length
    (at least ``_INV_BLOCK``) with len(w), which adds no inversion.  Pairs
    inside each block of ``_INV_BLOCK`` are compared one offset at a time.
    Then each level pairs all sorted halves of ``width`` at once: keys are
    2 w plus a tag bit that is 1 in right halves, so a right item sorts
    after the left items equal to it; the rows of 2 ``width`` keys are
    sorted, and a right item at position p in its row, with k right items
    before it, is below ``width - (p - k)`` left items.
    """
    n = len(w)
    size = max(_INV_BLOCK, 1 << (n - 1).bit_length())
    x = np.full(size, n, dtype=w.dtype)
    x[:n] = w
    rows = x.reshape(-1, _INV_BLOCK)
    inv = sum(int(np.count_nonzero(rows[:, :-d] > rows[:, d:])) for d in range(1, _INV_BLOCK))
    keys = np.sort(rows, axis=1) * 2
    width = _INV_BLOCK
    while width < size:
        keys = keys.reshape(-1, 2 * width)
        keys &= -2
        keys[:, width:] |= 1
        keys.sort(axis=1)
        positions = int(((keys & 1) @ np.arange(2 * width)).sum())
        inv += len(keys) * (width * width + width * (width - 1) // 2) - positions
        width *= 2
    return inv


def _tau_a(u_ties: tuple, v_ties: tuple) -> float:
    """Kendall's tau-a from the :func:`_ties` of u and of v (two or more pairs).

    Sorting the integer keys ``run_u * k + run_v`` (k runs of v) puts the
    pairs in (u, v) order; the discordant pairs are the strict inversions of
    ``run_v`` in that order (:func:`_inversions`).  Tied pairs, which count
    as neither concordant nor discordant, come from the runs of u, of v and
    of equal keys.
    """
    _, run_u, counts_u = u_ties
    _, run_v, counts_v = v_ties
    n = len(run_u)
    k = len(counts_v)
    keys = np.sort(run_u * k + run_v)
    w = keys % k
    # int32 keys (2 n + 1 < 2**31) sort about twice as fast as int64 ones
    discordant = _inversions(w.astype(np.int32) if n < 2**30 else w)
    n0 = n * (n - 1) // 2
    ties_uv = _tied_pairs(_run_lengths(_run_starts(keys)))
    ties = _tied_pairs(counts_u) + _tied_pairs(counts_v) - ties_uv
    return (n0 - ties - 2 * discordant) / n0


def _median(xs: np.ndarray) -> float:
    """Median of the sorted ``xs``, the same float as ``np.median``."""
    h = len(xs) // 2
    return xs[h] if len(xs) % 2 else (xs[h - 1] + xs[h]) / 2.0


def _reject_nan(u: np.ndarray, v: np.ndarray) -> None:
    if np.isnan(u).any() or np.isnan(v).any():
        raise DegenerateSampleError("rank statistics are undefined for NaN coordinates")


def kendall_tau_stat(u, v) -> float:
    """Kendall's tau-a: (concordant - discordant) / (n choose 2).

    O(n log n): one sort of each coordinate gives its runs of ties, a sort
    of integer keys the (u, v) order, and a merge count the discordant
    pairs (see :func:`_tau_a`); ties count as neither concordant nor
    discordant, and -0.0 ties with 0.0.  ``u`` and ``v`` are checked like
    the coordinates of a :class:`SampleBatch`; fewer than two pairs or a
    NaN raise :class:`DegenerateSampleError`.
    """
    u, v = _check_pairs(u, v)
    if len(u) < 2:
        raise DegenerateSampleError(f"need two or more (u, v) pairs, got {len(u)}")
    _reject_nan(u, v)
    return _tau_a(_ties(u), _ties(v))


def ks_statistic_uniform(x: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance of a sample to the uniform law on [0, 1].

    Raises :class:`DegenerateSampleError` for anything but a 1-D array of
    real numbers (see :func:`_real_1d`), for an empty sample and for NaN.
    """
    xs = np.sort(_real_1d(x, "x"))
    n = len(xs)
    if n == 0 or np.isnan(xs[-1]):  # sorting puts NaN last
        raise DegenerateSampleError("the KS distance needs a non-empty sample without NaN")
    i = np.arange(1, n + 1)
    return float(max((i / n - xs).max(), (xs - (i - 1) / n).max()))


def check_thresholds(values) -> tuple:
    """Tail thresholds as a non-empty tuple of floats, each a real number in (0, 1)."""
    if not np.iterable(values):
        raise ParamOutOfRangeError(f"lambda thresholds must be numbers, got {values!r}")
    thresholds = tuple(check_real(t, "lambda thresholds", 0.0, 1.0) for t in values)
    if not thresholds or any(t in (0.0, 1.0) for t in thresholds):
        raise ParamOutOfRangeError("lambda thresholds must lie in (0, 1)")
    return thresholds


def empirical_coefficients(batch: SampleBatch, lambda_thresholds=(0.9, 0.95, 0.99)) -> EmpiricalCoefficients:
    """Rank-based rho, tau-a, Blomqvist beta, and tail estimates.

    One sort of each coordinate (:func:`_ties`) serves every statistic: the
    average ranks for rho and the tail estimates, the medians for beta, and
    the runs of ties and run numbers from which :func:`_tau_a` counts tau.
    The tail estimate uses the diagonal law of EV copulas:
    ``lambda_hat(t) = 2 - ln(C_n(t, t)) / ln(t)`` with the empirical copula
    C_n on normalized ranks, summarized at the largest threshold.
    """
    u, v = check_type(batch, SampleBatch, "batch").u, batch.v
    n = batch.n
    if n < 10:
        raise DegenerateSampleError(f"need at least 10 pairs, got {n}")
    if np.ptp(u) == 0.0 or np.ptp(v) == 0.0:
        raise DegenerateSampleError("all values identical in one coordinate")
    thresholds = check_thresholds(lambda_thresholds)
    _reject_nan(u, v)

    u_ties, v_ties = _ties(u), _ties(v)
    pu, pv = (_mean_ranks(run, counts) / (n + 1) for _, run, counts in (u_ties, v_ties))
    rho_hat = 12.0 * float(np.mean(pu * pv)) - 3.0
    tau_hat = _tau_a(u_ties, v_ties)
    beta_hat = float(np.mean(np.sign((u - _median(u_ties[0])) * (v - _median(v_ties[0])))))

    lams = []
    for t in sorted(thresholds):
        cn = float(np.mean((pu <= t) & (pv <= t)))
        est = 0.0 if cn <= 0.0 else 2.0 - np.log(cn) / np.log(t)
        lams.append((t, float(np.clip(est, 0.0, 1.0))))
    return EmpiricalCoefficients(
        rho_hat=rho_hat,
        tau_hat=tau_hat,
        beta_hat=beta_hat,
        lambda_hat=tuple(lams),
        lambda_summary=lams[-1][1],
    )


# ---------------------------------------------------------------------------
# CSV interchange
# ---------------------------------------------------------------------------


_CSV_ROWS = 4096  # rows formatted and written at once


def write_batch_csv(batch: SampleBatch, stream) -> None:
    """Write ``u,v`` rows at 17 significant digits with LF line endings.

    Each chunk of ``_CSV_ROWS`` rows is one ``%`` format of its interleaved
    u and v values, written to ``stream`` as soon as it is made, so the
    text of the whole batch never sits in memory.
    """
    check_type(batch, SampleBatch, "batch")
    stream.write("u,v\n")
    for s in range(0, batch.n, _CSV_ROWS):
        uv = np.column_stack((batch.u[s : s + _CSV_ROWS], batch.v[s : s + _CSV_ROWS]))
        stream.write("%.17g,%.17g\n" * len(uv) % tuple(uv.ravel().tolist()))


def read_pairs_csv(stream) -> SampleBatch:
    """Read a ``u,v`` CSV (header required) back into a batch.

    Blank and whitespace-only lines are skipped and columns after the
    second are ignored; every coordinate must be a finite number in [0, 1].
    """
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
    except ValueError as exc:  # a non-number, or a row with one column
        raise DegenerateSampleError(str(exc)) from None
    if not np.isfinite(data).all():
        raise DegenerateSampleError("coordinates must be finite numbers")
    u, v = data[:, 0], data[:, 1]
    if np.any((u < 0) | (u > 1) | (v < 0) | (v > 1)):
        raise DegenerateSampleError("coordinates must lie in [0, 1]")
    return SampleBatch(u, v, seed=-1, generator="file")
