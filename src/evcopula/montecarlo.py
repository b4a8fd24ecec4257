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

The CSV writer prints each coordinate as ``%.17g`` does, byte for byte.
For coordinates in [1e-4, 1), which is nearly all of a sample, a numpy
kernel forms the 17 correctly rounded digits in exact integer
arithmetic; any other value goes through one ``%`` format per chunk.
The CSV reader mirrors it: it reads each value as the double that
``float`` and ``np.loadtxt`` read.  Fields ``0.`` and 1-20 digits, which
is nearly all of a sample file, go through a numpy kernel that parses
eight digits per word (Lemire 2021) and divides exactly with Dekker's
(1971) product; any line with another field, and any other chunk, goes
through ``np.loadtxt``.

All randomness flows through the Philox streams of :mod:`evcopula.rng` and
only uniform draws are consumed, so batches are bit-reproducible from
(seed, generator, n).
"""

from __future__ import annotations

import contextlib
import io
import itertools
from dataclasses import dataclass

import numpy as np

from .copula import EvCopula
from .errors import (
    DegenerateSampleError,
    ParamOutOfRangeError,
    check_int,
    check_real,
    check_reals,
    check_stream,
    check_type,
)
from .numerics import _run_starts
from .pickands import check_mo
from .rng import make_rng


def _real_1d(x, name: str) -> np.ndarray:
    """``x`` as a 1-D float array (:func:`errors.check_reals`), else DegenerateSampleError."""
    try:
        x = check_reals(x, name)
    except ParamOutOfRangeError as exc:
        raise DegenerateSampleError(f"{name} must be a 1-D array of real numbers: {exc}") from None
    if x.ndim != 1:
        raise DegenerateSampleError(f"{name} must be a 1-D array of real numbers, got {x.ndim}-D")
    return x


def _check_pairs(u, v) -> tuple:
    """``u`` and ``v`` as 1-D float arrays of one length, each checked by :func:`_real_1d`."""
    u, v = _real_1d(u, "u"), _real_1d(v, "v")
    if len(u) != len(v):
        raise DegenerateSampleError(f"{len(u)} u values but {len(v)} v values")
    return u, v


@dataclass(frozen=True)
class SampleBatch:
    """Immutable batch of (u, v) pairs plus generation metadata; ``n = len(u) == len(v)``.

    ``u`` and ``v`` are stored as 1-D float arrays (see :func:`_check_pairs`);
    ``seed`` must be an integer and ``generator`` a str.
    """

    u: np.ndarray
    v: np.ndarray
    seed: int
    generator: str

    def __post_init__(self):
        object.__setattr__(self, "seed", check_int(self.seed, "seed"))
        check_type(self.generator, str, "generator")
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
_LINEAR_TOL = 1e-15  # largest rise of A' over a linear panel


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
    its A'(a+) by at most ``_LINEAR_TOL``: each kink of A is one of
    ``deriv_fn``, and each knot more than 1e-15 off the chord of its
    neighbours ends a panel, also one that bulges up within the tolerance
    of :func:`piecewise_linear_dependence`, so that bounds its gap from the
    chord.  Then phi is linear on it: the panel keeps only its two end
    nodes, one cell, whose ``slope`` is dpsi/dq = A + (1 - t) A' at its
    first node.  ``slope`` is inf on the zero-width cells and on a linear
    panel where A = t, whose m is inf, and NaN on curved cells.
    """
    t = np.linspace(df.edges[:-1], df.edges[1:], _PANEL_NODES, axis=-1).ravel()
    da = df.deriv_fn(t, "left")
    starts = np.arange(_PANEL_NODES, len(t), _PANEL_NODES)  # second copies of split points
    da[starts] = df.deriv_fn(t[starts], "right")
    q = np.append(t[:-1] / (1.0 - t[:-1]), np.inf)
    a = df.eval_fn(t)
    table = (q, *_psi_m(a, da, t, q))
    panels = da.reshape(-1, _PANEL_NODES)
    linear = panels[:, -1] - panels[:, 0] <= _LINEAR_TOL
    keep = np.ones(panels.shape, dtype=bool)
    keep[linear, 1:-1] = False
    rows = np.flatnonzero(keep)  # then the node at q = inf, up to a power-of-two length
    rows = np.append(rows, np.full((1 << (len(rows) - 1).bit_length()) - len(rows), rows[-1]))
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
    s = slope[j]
    with np.errstate(divide="ignore", invalid="ignore"):  # fa / 0 on a flat piece of phi
        out = np.fmin(np.fmax(a - fa / (x * s), a), b)  # a where s is NaN or inf
    curved = np.isnan(s)
    if not curved.any():
        return out
    b = np.where(curved, b, a)  # only a curved cell keeps a bracket
    fb = x * psi[j + 1] + m[j + 1] - e
    last = np.flatnonzero(np.isinf(b))
    if last.size:  # most blocks of a few thousand pairs have none in the last cell
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
        wide = b - a > tol
        if wide.all():  # no bracket closed: nothing to store or compact
            continue
        out[idx] = a
        keep = np.flatnonzero(wide)
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


def _tied_pairs(first: np.ndarray, n: int) -> int:
    """Pairs within the runs of ties of ``n`` sorted items, whose runs start at the positions ``first``."""
    counts = np.diff(first)  # the lengths of all runs but the last
    last = n - int(first[-1])
    return (int(counts @ counts) + last * last - n) // 2  # sum of c (c - 1) / 2 over run lengths c


def _median(xs: np.ndarray) -> float:
    """Median of the sorted ``xs``, the same float as ``np.median``."""
    h = len(xs) // 2
    return xs[h] if len(xs) % 2 else (xs[h - 1] + xs[h]) / 2.0


def _ties(x: np.ndarray) -> tuple:
    """One sort of ``x``: its median, each item's run of ties, its rank over n + 1, and the tied pairs.

    Runs are numbered 0, 1, ... in sorted order.  The run numbers (int32
    below 2**31 items) and the 1-based ranks, tied items sharing their
    mean, are in the order of ``x``; -0.0 ties with 0.0.  ``x`` has no NaN.
    The sort order, the sorted copy and the run starts are freed as soon as
    they are used, so the call holds at most about 2.5 arrays of n doubles
    beyond a contiguous ``x``.
    """
    n = len(x)
    order = np.argsort(x)
    xs = x[order]
    median = _median(xs)
    starts = _run_starts(xs)
    del xs
    sorted_run = np.cumsum(starts, dtype=np.int32 if n < 2**31 else np.int64)
    sorted_run -= 1
    run = np.empty_like(sorted_run)
    run[order] = sorted_run
    del order, sorted_run
    first = np.flatnonzero(starts)
    tied = _tied_pairs(first, n)
    # the run from first s to next first e holds ranks s + 1 .. e, whose mean is (s + e + 1) / 2;
    # s + e + 1 is an exact float, so one division by 2 (n + 1) rounds as (s + e + 1) / 2 / (n + 1)
    rank = first + 1.0
    rank[:-1] += first[1:]
    rank[-1] += n
    del first
    rank /= 2 * (n + 1)
    return median, run, rank[run], tied


_INV_BLOCK = 8  # pairs inside blocks this wide are compared directly
_TAG_BLOCK = 1 << 15  # keys whose right-item positions are summed at once


def _inversions(w: np.ndarray) -> int:
    """Number of pairs i < j with w[i] > w[j], for integers 0 <= w < len(w).

    Knight's (1966) merge count, one merge level at a time; the dtype of
    ``w`` must hold 2 len(w) + 1.  ``w`` is copied into a power-of-two
    length (at least ``_INV_BLOCK``), padded with len(w), which adds no
    inversion, and every later step works in place in that copy.  Pairs
    inside each block of ``_INV_BLOCK`` are compared one offset at a time.
    Then each level pairs all sorted halves of ``width`` at once: keys are
    2 w plus a tag bit that is 1 in right halves, so a right item sorts
    after the left items equal to it; the rows of 2 ``width`` keys are
    sorted, and a right item at position p in its row, with k right items
    before it, is below ``width - (p - k)`` left items.  The positions are
    summed over blocks of at most ``_TAG_BLOCK`` keys, whole rows or part
    of one, so no level makes an array as long as a row of the top one.
    """
    n = len(w)
    size = max(_INV_BLOCK, 1 << (n - 1).bit_length())
    keys = np.full(size, n, dtype=w.dtype)
    keys[:n] = w
    rows = keys.reshape(-1, _INV_BLOCK)
    inv = sum(int(np.count_nonzero(rows[:, :-d] > rows[:, d:])) for d in range(1, _INV_BLOCK))
    rows.sort(axis=1)
    keys *= 2
    width = _INV_BLOCK
    block = min(size, _TAG_BLOCK)
    offsets = np.arange(block)
    while width < size:
        rows = keys.reshape(-1, 2 * width)
        keys &= -2
        rows[:, width:] |= 1
        rows.sort(axis=1)
        inv += len(rows) * (width * width + width * (width - 1) // 2)
        span = min(2 * width, block)  # a block holds whole rows, or part of one
        for s in range(0, size, block):
            # int64: the matmul then makes no cast copy
            tags = np.bitwise_and(keys[s : s + block].reshape(-1, span), 1, dtype=np.int64)
            inv -= int((tags @ offsets[:span]).sum())
            if s % (2 * width):  # part of a row that began in an earlier block
                inv -= s % (2 * width) * int(tags.sum())
        width *= 2
    return inv


def _tau_a(run_u: np.ndarray, run_v: np.ndarray, tied: int) -> float:
    """Kendall's tau-a from the run numbers of :func:`_ties` (two or more pairs).

    ``tied`` is the tied pairs of u plus those of v.  Sorting the integer
    keys ``run_u * n + run_v`` puts the pairs in (u, v) order; the
    discordant pairs are the strict inversions of ``run_v`` in that order
    (:func:`_inversions`).  Tied pairs, which count as neither concordant
    nor discordant, are those of u, of v, less those of equal keys.  The
    keys are one int64 array, sorted and then reduced to ``run_v`` in place.
    """
    n = len(run_u)
    keys = run_u.astype(np.int64)
    keys *= n
    keys += run_v
    keys.sort()
    ties_uv = _tied_pairs(np.flatnonzero(_run_starts(keys)), n)
    keys %= n
    # int32 keys (2 n + 1 < 2**31) sort about twice as fast as int64 ones
    w = keys.astype(np.int32) if n < 2**30 else keys
    del keys
    discordant = _inversions(w)
    n0 = n * (n - 1) // 2
    return (n0 - (tied - ties_uv) - 2 * discordant) / n0


def _reject_nan(u: np.ndarray, v: np.ndarray) -> None:
    if np.isnan(u).any() or np.isnan(v).any():
        raise DegenerateSampleError("rank statistics are undefined for NaN coordinates")


def kendall_tau_stat(u, v) -> float:
    """Kendall's tau-a: (concordant - discordant) / (n choose 2).

    O(n log n): one sort of each coordinate gives its runs of ties, a sort
    of integer keys the (u, v) order, and a merge count the discordant
    pairs (see :func:`_tau_a`); ties count as neither concordant nor
    discordant, and -0.0 ties with 0.0.  The working memory is at most 8
    arrays of n doubles beyond ``u`` and ``v``.  ``u`` and ``v`` are
    checked like the coordinates of a :class:`SampleBatch`; fewer than two
    pairs or a NaN raise :class:`DegenerateSampleError`.
    """
    u, v = _check_pairs(u, v)
    if len(u) < 2:
        raise DegenerateSampleError(f"need two or more (u, v) pairs, got {len(u)}")
    _reject_nan(u, v)
    _, run_u, _, tied_u = _ties(u)
    _, run_v, _, tied_v = _ties(v)
    return _tau_a(run_u, run_v, tied_u + tied_v)


def ks_statistic_uniform(x: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance of a sample to the uniform law on [0, 1].

    The uniform CDF is read as ``clip(x, 0, 1)``, so points outside
    [0, 1], inf included, count as 0 or 1.  Raises
    :class:`DegenerateSampleError` for anything but a 1-D array of real
    numbers (see :func:`_real_1d`), for an empty sample and for NaN.
    """
    xs = np.sort(_real_1d(x, "x"))
    n = len(xs)
    if n == 0 or np.isnan(xs[-1]):  # sorting puts NaN last
        raise DegenerateSampleError("the KS distance needs a non-empty sample without NaN")
    np.clip(xs, 0.0, 1.0, out=xs)  # the uniform CDF at xs
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
    the run numbers and tied pairs from which :func:`_tau_a` counts tau.
    The tail estimate uses the diagonal law of EV copulas:
    ``lambda_hat(t) = 2 - ln(C_n(t, t)) / ln(t)`` with the empirical copula
    C_n on normalized ranks, summarized at the largest threshold.  The
    working memory is at most 8 arrays of n doubles beyond the batch: the
    ranks are freed before Kendall's keys are built.  Coordinates may be
    +-inf, which rank like any other value; a NaN raises
    :class:`DegenerateSampleError`.
    """
    u, v = check_type(batch, SampleBatch, "batch").u, batch.v
    n = batch.n
    if n < 10:
        raise DegenerateSampleError(f"need at least 10 pairs, got {n}")
    if u.min() == u.max() or v.min() == v.max():  # np.ptp would read inf - inf = NaN
        raise DegenerateSampleError("all values identical in one coordinate")
    thresholds = check_thresholds(lambda_thresholds)
    _reject_nan(u, v)

    median_u, run_u, pu, tied_u = _ties(u)
    median_v, run_v, pv, tied_v = _ties(v)
    lams = []
    for t in sorted(thresholds):
        cn = float(np.mean((pu <= t) & (pv <= t)))
        est = 0.0 if cn <= 0.0 else 2.0 - np.log(cn) / np.log(t)
        lams.append((t, float(np.clip(est, 0.0, 1.0))))
    pu *= pv
    rho_hat = 12.0 * float(np.mean(pu)) - 3.0
    del pu, pv  # the ranks are done with: free them before Kendall's keys
    # the sign of (u - median_u)(v - median_v) by comparisons: the differences read
    # inf - inf = NaN at an inf median, and their product can overflow or underflow to 0
    sign = (u > median_u).view(np.int8) - (u < median_u).view(np.int8)
    sign *= (v > median_v).view(np.int8) - (v < median_v).view(np.int8)
    beta_hat = float(np.mean(sign))
    del sign
    tau_hat = _tau_a(run_u, run_v, tied_u + tied_v)
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
_FIELD = 24  # bytes of the longest %.17g text, such as "-2.2250738585072014e-308"
_POW5 = np.array([5**20, 5**19, 5**18, 5**17], dtype=np.uint64)  # 5**(16 - X) for X = -4 .. -1
# "0." and -X - 1 zeros, right-aligned in 5 NUL-padded bytes, for X = -4 .. -1
_PREFIX = np.array([list(b"0.0000"[: 5 - k].rjust(5, b"\0")) for k in range(4)], dtype=np.uint8)


def _csv_text(u: np.ndarray, v: np.ndarray) -> str:
    """The rows ``"%.17g,%.17g\\n" % (u_i, v_i)`` of one chunk, exactly, from integer arithmetic.

    Each coordinate x gets a field of ``_FIELD`` bytes plus a separator,
    NUL-padded; the NULs are dropped from the text.  For x in [1e-4, 1),
    %.17g is ``0.`` and -X - 1 zeros, for the decade X in {-4, ..., -1},
    then the 17 digits D = x 10**(16 - X), rounded half to even, less
    their trailing zeros.  X counts the floats 0.1, 0.01 and 0.001 that x
    reaches: each lies above its power of ten, so the count is exact.
    With x = m 2**(E - 1075), D = m 5**(16 - X) / 2**s rounded, where
    s = 1059 + X - E lies in [36, 46]; the product is formed from 32-bit
    halves in uint64, and a tie (x = t / 2**(17 - X), t odd) rounds to
    the even D, as CPython does.  D < 10**17 there, so no carry changes
    X.  Any other x (0, 1, -0.0, subnormals, below 1e-4, inf, NaN) takes
    one ``"%-24.17g"`` format per chunk into its field.
    """
    x = np.column_stack((u, v)).ravel()
    n = len(x)
    fast = (x >= 1e-4) & (x < 1.0)
    y = np.where(fast, x, 0.5)
    dec = (y >= 0.001).view(np.int8) + (y >= 0.01).view(np.int8) + (y >= 0.1).view(np.int8)  # X + 4
    bits = y.view(np.uint64)
    m = (bits & np.uint64(2**52 - 1)) | np.uint64(2**52)
    f = _POW5[dec]
    r = np.uint64(1023) + dec.astype(np.uint64) - (bits >> np.uint64(52))  # s - 32, in [4, 14]
    mh, ml = m >> np.uint64(32), m & np.uint64(2**32 - 1)
    fh, fl = f >> np.uint64(32), f & np.uint64(2**32 - 1)
    lo = ml * fl
    mid = (lo >> np.uint64(32)) + mh * fl + ml * fh  # m f = mh fh 2**64 + mid 2**32 + lo mod 2**32
    d = ((mh * fh) << (np.uint64(32) - r)) + (mid >> r)
    rest = ((mid & ((np.uint64(1) << r) - np.uint64(1))) << np.uint64(32)) | (lo & np.uint64(2**32 - 1))
    d += (rest + (d & np.uint64(1))) > (np.uint64(1) << (r + np.uint64(31)))  # half to even
    hi = d // np.uint64(10**9)
    halves = np.empty((2, n), dtype=np.uint32)  # D = 10**9 halves[0] + halves[1]
    halves[0] = hi
    halves[1] = d - hi * np.uint64(10**9)
    digits = np.empty((2, 9, n), dtype=np.uint8)
    for k in range(8, -1, -1):
        q = halves // np.uint32(10)
        digits[:, k] = halves - q * np.uint32(10)
        halves = q
    digits = digits.reshape(18, n)[1:]  # halves[0] < 10**8: its first digit is 0
    keep = np.zeros(n, dtype=bool)  # a digit that is not a trailing zero
    for k in range(16, -1, -1):
        keep |= digits[k] != 0
        digits[k] += ord("0")
        digits[k] *= keep
    out = np.zeros((n, _FIELD + 1), dtype=np.uint8)
    out[:, :5] = _PREFIX.take(dec, axis=0)
    out[:, 5:22] = digits.T  # at most 22 bytes: "0.000" and 17 digits
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = (f"%-{_FIELD}.17g" * slow.size % tuple(x[slow].tolist())).encode()
        cells = np.frombuffer(text, dtype=np.uint8).reshape(-1, _FIELD)
        out[slow, :_FIELD] = np.where(cells == ord(" "), 0, cells)
    out[0::2, _FIELD] = ord(",")
    out[1::2, _FIELD] = ord("\n")
    return out.tobytes().translate(None, b"\0").decode("ascii")


def write_batch_csv(batch: SampleBatch, stream) -> None:
    """Write ``u,v`` rows at 17 significant digits with LF line endings to a text stream.

    Each row is ``"%.17g,%.17g\\n" % (u, v)``, byte for byte.  Each chunk of
    ``_CSV_ROWS`` rows is built by :func:`_csv_text`: an exact integer
    kernel for coordinates in [1e-4, 1), and one ``%`` format for the rest,
    and written to ``stream`` as soon as it is made, so the text of the
    whole batch never sits in memory.
    """
    check_type(batch, SampleBatch, "batch")
    check_stream(stream, "write").write("u,v\n")
    for s in range(0, batch.n, _CSV_ROWS):
        stream.write(_csv_text(batch.u[s : s + _CSV_ROWS], batch.v[s : s + _CSV_ROWS]))


_READ_CHARS = 1 << 17  # characters read at once, before the rest of the last line
_KEEP = np.array([2**64 - 2 ** (64 - 8 * n) for n in range(9)], dtype=np.uint64)  # the top n bytes of a word
_POW10 = 10.0 ** np.arange(21)  # exact
_MIDPOINT = 2.0**-40  # a value this near a rounding midpoint, in units of the gap there, goes to loadtxt


def _decimals(b: np.ndarray, start: np.ndarray, end: np.ndarray) -> tuple:
    """The doubles of the fields ``b[start:end]`` that read ``0.`` and 1-20 digits, and where they are right.

    Each field's last 24 bytes are read as three little-endian words.  The
    bytes before its k digits become ``'0'``, two nibble tests check that
    all 24 are digits, and three multiply-shifts turn each word's 8 digits
    into an integer (Lemire 2021), so D = w0 10**16 + w1 10**8 + w2, kept
    below 2**63.  Then x = fl(D), r = D - x exactly, q = fl(x / 10**k),
    and Dekker's (1971) product gives q 10**k = s + e exactly for
    s = fl(q 10**k), so D / 10**k = q + c for
    c = ((x - s - e) + r) / 10**k.  x - s is exact (Sterbenz), and each
    other step rounds once, at a relative 2**-53 of a value within two
    ulps of D or of q, so c is within 2**-49 ulp(q) of its exact value,
    and y = fl(q + c) is the correctly rounded D / 10**k unless q + c
    lies that near a midpoint between doubles.
    q + c - y = c - (y - q) exactly (Fast2Sum), and the midpoint on that
    side of y lies half a gap away, where the gap below a power of two is
    half the one above.  A field within ``_MIDPOINT`` gaps of its
    midpoint, or of another form, is marked False.  ``b`` holds 24 bytes
    before the first field and one after the last.
    """
    k = end - start - 2  # digits after "0."
    # the 24 bytes that end each field, as a row of three words each, then as three rows
    w = np.ndarray((len(b) - 23,), "V24", b, 0, (1,))[end - 24].view("<u8").reshape(-1, 3).T.copy()
    keep = _KEEP.take(k - np.array([[16], [8], [0]]), mode="clip")  # words start at bytes 0, 8 and 16
    w = (w & keep) | (np.uint64(0x3030303030303030) & ~keep)
    high, six = np.uint64(0xF0F0F0F0F0F0F0F0), np.uint64(0x0606060606060606)
    bad = ((w & high) | (((w + six) & high) >> np.uint64(4))) ^ np.uint64(0x3333333333333333)  # 0 if all digits
    for shift, mask in ((8, 0x0F0F0F0F0F0F0F0F), (16, 0x00FF00FF00FF00FF), (32, 0x0000FFFF0000FFFF)):
        w = ((w & np.uint64(mask)) * np.uint64(10 ** (shift // 8) << shift | 1)) >> np.uint64(shift)
    ok = ((bad[0] | bad[1] | bad[2]) == 0) & (k <= 20) & (w[0] < 922) & (b[start] == 48) & (b[start + 1] == 46)
    d = (w[0] * np.uint64(10**16) + w[1] * np.uint64(10**8) + w[2]) * ok
    x = d.astype(float)
    p = _POW10.take(k, mode="clip")
    q = x / p
    hi, p_hi = (a * 134217729.0 - (a * 134217729.0 - a) for a in (q, p))  # upper 26 bits: Veltkamp, 2**27 + 1
    e = ((hi * p_hi - q * p) + hi * (p - p_hi) + (q - hi) * p_hi) + (q - hi) * (p - p_hi)  # q p - s
    c = ((x - q * p - e) + (d - x.astype(np.uint64)).view(np.int64).astype(float)) / p  # r = D - x, exact
    y = q + c
    rest = c - (y - q)
    gap = np.abs((y.view(np.int64) + 1 - 2 * np.signbit(rest)).view(float) - y)
    ok &= np.abs(np.abs(rest) - 0.5 * gap) > _MIDPOINT * gap
    return y, ok


def _loadtxt(lines, skipped: int) -> np.ndarray:
    """The non-blank ``lines``, after ``skipped`` rows of the file, through ``np.loadtxt``, as an (n, 2) array.

    A ValueError becomes DegenerateSampleError with loadtxt's text.  It is
    raised again behind ``skipped`` stand-in rows, so that the text names
    the row of the whole file.
    """
    rows = [line for line in lines if not line.isspace()]
    try:
        return np.loadtxt(rows, delimiter=",", usecols=(0, 1), ndmin=2, comments=None) if rows else np.empty((0, 2))
    except ValueError as exc:  # a non-number, or a row with one column
        if skipped:
            _loadtxt(itertools.chain(itertools.repeat("0,0", skipped), rows), 0)
        raise DegenerateSampleError(str(exc)) from None


def _read_chunk(stream, text: str, skipped: int) -> np.ndarray:
    """The rows of ``text``, whole lines of ``stream`` after ``skipped`` rows, as an (n, 2) array.

    If every line of ``text`` is ``a,b\n`` in ASCII, no field holds a
    byte at or below ``,`` (such as a space, a tab or ``\r``), and the
    first field starts with ``0.``, :func:`_decimals` reads the fields, and
    ``np.loadtxt`` the lines that hold a field it marks.  Otherwise, or if
    that call fails, the non-blank lines go through :func:`_loadtxt`, split
    as the stream splits them.  (A file of other numbers, such as those of
    ``np.savetxt``, rarely starts a chunk with ``0.``: the kernel is not
    run on its chunks in vain.)
    """
    if text.isascii() and text.endswith("\n") and text.startswith("0."):
        b = np.frombuffer(b"0" * 24 + text.encode("ascii") + b"0", dtype=np.uint8)
        seps = np.flatnonzero(b <= ord(","))  # field ends, if they alternate "," and "\n"
        start = np.append(24, seps[:-1] + 1)
        if len(seps) % 2 == 0 and (b[seps[0::2]] == ord(",")).all() and (b[seps[1::2]] == ord("\n")).all():
            y, ok = _decimals(b, start, seps)
            slow = 2 * np.flatnonzero(~(ok[0::2] & ok[1::2]))  # the first fields of the lines with a mark
            lines = [text[i - 24 : j - 23] for i, j in zip(start[slow].tolist(), seps[slow + 1].tolist())]
            with contextlib.suppress(ValueError):  # which the lines below raise again, as of the whole file
                if lines:
                    y.reshape(-1, 2)[slow // 2] = np.loadtxt(lines, delimiter=",", usecols=(0, 1), comments=None)
                return y.reshape(-1, 2)
    # an io stream reports the line ends it saw only with newline=None, which leaves no \r, or with "",
    # which ends lines at a lone \r too
    return _loadtxt(io.StringIO(text, newline="" if getattr(stream, "newlines", None) else "\n"), skipped)


def _put(data: np.ndarray, count: int, rows: np.ndarray) -> int:
    """Put ``rows`` after the first ``count`` rows of ``data``, and return the new count.

    Without room for them, ``data`` grows in place by half, or more, as
    ``np.loadtxt`` grows its array: by ``realloc``, which can move the
    pages of a large array instead of copying them, and leaves no freed
    copy in the heap.  ``data`` must be the only reference to its memory.
    """
    if count + len(rows) > len(data):
        data.resize((count * 3 // 2 + len(rows), 2), refcheck=False)
    data[count : count + len(rows)] = rows
    return count + len(rows)


def read_pairs_csv(stream) -> SampleBatch:
    """Read a ``u,v`` CSV (header required) from a text stream back into a batch.

    Blank and whitespace-only lines are skipped and columns after the
    second are ignored; every coordinate must be a finite number in [0, 1].
    Each value is the double that ``np.loadtxt`` and ``float`` read, and a
    malformed row raises with ``np.loadtxt``'s text.  After a header that
    ends in ``\n`` alone, the rest is read ``_READ_CHARS`` characters at a
    time, each chunk completed by ``readline`` to the end of its last line,
    and :func:`_read_chunk` reads each chunk: fields ``0.`` and 1-20 digits
    through an exact numpy kernel, other lines through ``np.loadtxt``.
    After any other header the stream may end lines at a lone ``\r``, and
    its own lines go to ``np.loadtxt``.
    """
    header = check_stream(check_stream(stream, "readline"), "read").readline()
    if [c.strip().lower() for c in header.strip().split(",")[:2]] != ["u", "v"]:
        raise DegenerateSampleError("expected CSV header 'u,v'")
    data, count = np.empty((_CSV_ROWS, 2)), 0
    if header.endswith("\n") and not header.endswith("\r\n"):
        while text := stream.read(_READ_CHARS):
            if not text.endswith("\n"):
                text += stream.readline()  # the rest of its last line
            count = _put(data, count, _read_chunk(stream, text, count))
    else:  # the stream may split lines at a lone \r, or only at \r\n: its own lines, ``_CSV_ROWS`` at a time
        for lines in iter(lambda: list(itertools.islice(stream, _CSV_ROWS)), []):
            count = _put(data, count, _loadtxt(lines, count))
    if not count:
        raise DegenerateSampleError("no sample rows in input")
    data.resize((count, 2), refcheck=False)
    if not np.isfinite(data).all():
        raise DegenerateSampleError("coordinates must be finite numbers")
    u, v = data[:, 0], data[:, 1]
    if np.any((u < 0) | (u > 1) | (v < 0) | (v > 1)):
        raise DegenerateSampleError("coordinates must lie in [0, 1]")
    return SampleBatch(u, v, seed=-1, generator="file")
