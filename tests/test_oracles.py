"""Retired code paths and direct formulas kept as oracles.

The generic sampler must draw the same u, bit for bit, as the retired
47-pass bisection over ``reference.partial_u``, and a v within 1e-12 of
it; the writer, reader and rank estimators must reproduce their retired
predecessors bit for bit: the chunked CSV writer against the per-row
writer, also on exact decimal ties, within 50 ulps of each decade bound
and on any float64 bit pattern, the ``loadtxt`` reader against the
line-split reader, the chunked reader against the ``loadtxt`` reader
(``reference.read_pairs_loadtxt``) on values, error types and texts in
every newline mode, each field it reads against ``float`` bit for bit,
also next to rounding midpoints, Kendall's tau against ``np.unique`` tie counts and an
O(n^2) sign count, and ``empirical_coefficients`` against the estimator
that sorted each coordinate for its ranks, lexsorted (u, v) and
merge-counted block by block; on 2e5 pairs, both rank estimators must
hold at most 8 arrays of n doubles beyond their input, and the reader at
most 6.  The by-parts Kendall tau integral of
piecewise-linear dependence functions must match the retired sum of
Stieltjes atoms at their kinks.  The t-space envelope check of
``verify_case`` must agree with the (u, v)-grid ``check_envelope`` it
replaced.  The batched level-by-level quadrature must agree
with the retired heap integrator, which bisected the worst panel one call
of the integrand at a time, to twice the stated tolerance, and on every
knot, MO and tangent function of the corpus with the exact sums over its
knots to 1e-14.  The envelope
check on two arrays must equal the retired check on their ``union1d``; the
A' of piecewise-linear functions must equal the retired index into all
knots, less one and clipped, into their knot-difference slopes, or for an
MO or tangent build into the exact slope of each piece, and their split
points on the corpus must equal those of the retired rule on slope
differences; and
``tangent_at_half`` and ``lambda_upper`` must equal, bit for bit, the same
formulas read through the checked ``df(0.5)`` and ``df.deriv``.  The knot check must report exactly what it
reported through the band check it shared with the grid ``validate``,
except that an end of the domain that is off is named at its own t.  The
Marshall-Olkin and tangent split points must hold, bit for bit, each kink
that the guards each family kept before kept, and besides only kinks they
dropped within 1e-12 of an end or of the other kink, at their exact t;
rho and tau of each build must lie within 4e-15 of the closed forms.  The
knot writer must write the bytes of the retired per-row writer.  The
split-point check on one array must accept and reject what the per-point
``check_real`` did, except for ``Fraction`` (now rejected) and 0-d arrays
(now accepted); the knot builders without ``np.union1d`` must give the
knots and reports of those with it, and pieces of no width must go as a
piece-by-piece rule drops them.  The sampler table must keep the bits
of the one built panel by panel in every curved panel and at both ends of
each linear one, phi must follow the line of each linear cell, and Gumbel
draws must keep the bits of the retired inversion, which ran secant steps
in every cell.
"""

import heapq
import io
import itertools
import math
import tracemalloc
import unittest.mock
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evcopula import (
    DegenerateSampleError,
    EmpiricalCoefficients,
    NonConvergentError,
    NonFiniteError,
    ParamOutOfRangeError,
    SampleBatch,
    copula_from_pickands,
    dependence_corpus,
    empirical_coefficients,
    gumbel_dependence,
    kendall_tau_stat,
    mix,
    mo_closed_form,
    mo_dependence,
    pareto_closed_form,
    pareto_dependence,
    piecewise_linear_dependence,
    read_knots_csv,
    read_pairs_csv,
    rho_numeric,
    sample_generic,
    sample_mo,
    tau_numeric,
    write_batch_csv,
    write_knots_csv,
)
from evcopula import bounds as bounds_mod
from evcopula import coefficients, montecarlo, numerics, pickands
from evcopula.bounds import (
    _ENVELOPE_TOL,
    EnvelopeCheck,
    _envelope_in_t,
    _random_convex_pwl,
    check_envelope,
)
from evcopula.cli import main
from evcopula.coefficients import lambda_upper
from evcopula.errors import check_split_points
from evcopula.pickands import _pwl
from evcopula.rng import make_rng

import reference

SEEDS = (0, 1, 2)
SIZES = (1, 2, 63, 64, 65, 257, 4097)


# ---------------------------------------------------------------------------
# retired code paths
# ---------------------------------------------------------------------------


def bisection_sample(copula, n, seed):
    """The generic sampler as it was: every pass calls dC/du, now ``reference.partial_u``."""
    rng = make_rng(seed, 0xB1)
    u = np.maximum(rng.random(n), 1e-300)
    p = rng.random(n)
    lo = np.zeros(n)
    hi = np.ones(n)
    for _ in range(47):
        mid = 0.5 * (lo + hi)
        ge = reference.partial_u(copula, u, mid) >= p
        hi = np.where(ge, mid, hi)
        lo = np.where(ge, lo, mid)
    return u, hi


def write_rows(batch, stream):
    """The per-row CSV writer."""
    stream.write("u,v\n")
    for a, b in zip(batch.u, batch.v):
        stream.write(f"{a:.17g},{b:.17g}\n")


def read_lines(stream):
    """The line-split CSV reader; returns (u, v)."""
    header = stream.readline().strip()
    if [c.strip().lower() for c in header.split(",")[:2]] != ["u", "v"]:
        raise DegenerateSampleError("expected CSV header 'u,v'")
    rows = [line.strip() for line in stream if line.strip()]
    if not rows:
        raise DegenerateSampleError("no sample rows in input")
    data = np.asarray([[float(c) for c in r.split(",")[:2]] for r in rows])
    u, v = data[:, 0], data[:, 1]
    if np.any((u < 0) | (u > 1) | (v < 0) | (v > 1)):
        raise DegenerateSampleError("coordinates must lie in [0, 1]")
    return u, v


def tie_pair_count(x):
    """Tied pairs from ``np.unique`` counts (a record array gives joint ties)."""
    _, counts = np.unique(x, return_counts=True)
    return int((counts * (counts - 1) // 2).sum())


def strict_inversions(a, block=1000):
    """Pairs i < j with a[i] > a[j]: prefix search per block plus a direct in-block count."""
    inv = 0
    for s in range(0, len(a), block):
        b = a[s : s + block]
        inv += int((s - np.searchsorted(np.sort(a[:s]), b, side="right")).sum())
        inv += int(np.triu(b[:, None] > b[None, :], k=1).sum())
    return inv


def kendall_unique_ties(u, v):
    """Kendall's tau-a with the retired np.unique tie counts."""
    n = len(u)
    n0 = n * (n - 1) // 2
    discordant = strict_inversions(v[np.lexsort((v, u))])
    ties_uv = tie_pair_count(np.rec.fromarrays([u, v]))
    return (n0 - tie_pair_count(u) - tie_pair_count(v) + ties_uv - 2 * discordant) / n0


def kendall_tau_direct(u, v):
    """O(n^2) sign count of Kendall's tau-a (small n only)."""
    du = np.sign(u[:, None] - u[None, :]).astype(np.int64)
    dv = np.sign(v[:, None] - v[None, :]).astype(np.int64)
    iu, ju = np.triu_indices(len(u), k=1)
    c_minus_d = int((du[iu, ju] * dv[iu, ju]).sum())
    n0 = len(u) * (len(u) - 1) // 2
    return c_minus_d / n0


def average_ranks(x):
    """1-based ranks with ties sharing their mean, from a stable argsort."""
    order = np.argsort(x, kind="stable")
    xs = x[order]
    group = np.cumsum(np.r_[True, xs[1:] != xs[:-1]]) - 1
    counts = np.bincount(group)
    ends = np.cumsum(counts)
    starts = ends - counts
    mean_rank = (starts + ends + 1) / 2.0  # 1-based average rank per group
    ranks = np.empty(len(x))
    ranks[order] = mean_rank[group]
    return ranks


def count_strict_inversions(a):
    """Pairs i < j with a[i] > a[j]: 64-wide blocks, then a Python loop over block pairs."""
    n = len(a)
    block = 64
    m = -(-n // block)
    padded = np.full(m * block, np.inf)
    padded[:n] = a
    x = padded.reshape(m, block)
    iu, ju = np.triu_indices(block, k=1)
    inv = 0
    for r in range(0, m, 64):
        rows = x[r : r + 64]
        inv += int(np.count_nonzero(rows[:, iu] > rows[:, ju]))
    flat = np.sort(x, axis=1).ravel()
    width = block
    while width < m * block:
        for start in range(0, m * block, 2 * width):
            left = flat[start : start + width]
            right = flat[start + width : start + 2 * width]
            if right.size == 0:
                continue
            inv += int((width - np.searchsorted(left, right, side="right")).sum())
            merged = flat[start : start + 2 * width]
            merged[:] = np.sort(merged, kind="stable")
        width *= 2
    return inv


def retired_tau(u, v):
    """Kendall's tau-a from the lexsorted (u, v) order and the retired merge count."""
    n0 = len(u) * (len(u) - 1) // 2
    discordant = count_strict_inversions(v[np.lexsort((v, u))])
    ties_uv = tie_pair_count(np.rec.fromarrays([u, v]))
    return (n0 - tie_pair_count(u) - tie_pair_count(v) + ties_uv - 2 * discordant) / n0


def retired_empirical(batch, lambda_thresholds=(0.9, 0.95, 0.99)):
    """The rank estimator as it was: two rank sorts, a lexsort, a sort of v, np.median."""
    u, v = batch.u, batch.v
    n = batch.n
    pu = average_ranks(u) / (n + 1)
    pv = average_ranks(v) / (n + 1)
    rho_hat = 12.0 * float(np.mean(pu * pv)) - 3.0
    beta_hat = float(np.mean(np.sign((u - np.median(u)) * (v - np.median(v)))))
    lams = []
    for t in sorted(lambda_thresholds):
        cn = float(np.mean((pu <= t) & (pv <= t)))
        est = 0.0 if cn <= 0.0 else 2.0 - np.log(cn) / np.log(t)
        lams.append((t, float(np.clip(est, 0.0, 1.0))))
    return EmpiricalCoefficients(
        rho_hat=rho_hat,
        tau_hat=retired_tau(u, v),
        beta_hat=beta_hat,
        lambda_hat=tuple(lams),
        lambda_summary=lams[-1][1],
    )


def kink_atom_tau(df):
    """Stieltjes tau as a sum of kink atoms; exact when A'' = 0 between kinks."""
    return sum(
        t * (1.0 - t) * (df.deriv(t, "right") - df.deriv(t, "left")) / df(t)
        for t in df.split_points
    )


def gk15_panel(f, a, b):
    """One Gauss-Kronrod 7-15 panel; returns (kronrod, error_estimate)."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    x = c + h * numerics._NODES
    y = np.broadcast_to(np.asarray(f(x), dtype=float), x.shape)
    if not np.all(np.isfinite(y)):
        raise NonFiniteError(f"integrand returned a non-finite value at t={x[~np.isfinite(y)][0]!r}")
    kron = h * float(numerics._WK @ y)
    return kron, abs(kron - h * float(numerics._WG @ y))


def heap_integrate(f, split_points=()):
    """The adaptive quadrature as it was: bisect the worst panel, one panel per call of f."""
    edges = [0.0, *(float(p) for p in split_points), 1.0]
    heap = []
    total = total_err = 0.0
    for order, (a, b) in enumerate(zip(edges, edges[1:])):
        val, err = gk15_panel(f, a, b)
        heapq.heappush(heap, (-err, order, a, b, val, 0))
        total += val
        total_err += err
    order = len(heap)
    while total_err > numerics._ABS_TOL + numerics._REL_TOL * abs(total):
        neg_err, _, a, b, val, depth = heapq.heappop(heap)
        if depth >= numerics._MAX_DEPTH:
            raise NonConvergentError(f"quadrature stalled on [{a}, {b}] at depth {depth}")
        mid = 0.5 * (a + b)
        val_l, err_l = gk15_panel(f, a, mid)
        val_r, err_r = gk15_panel(f, mid, b)
        total += val_l + val_r - val
        total_err += err_l + err_r + neg_err  # neg_err == -err
        heapq.heappush(heap, (-err_l, order, a, mid, val_l, depth + 1))
        heapq.heappush(heap, (-err_r, order + 1, mid, b, val_r, depth + 1))
        order += 2
    return total


def retired_lambda_upper(df):
    """The tail coefficient as it was, through the checked ``df(0.5)``."""
    return float(np.clip(2.0 * (1.0 - df(0.5)), 0.0, 1.0))


def retired_tangent_at_half(df):
    """The tangent at t = 1/2 as it was, through the checked ``df(0.5)`` and ``df.deriv``."""
    lam = 2.0 * (1.0 - df(0.5))
    lam = min(max(lam, 0.0), 1.0)
    slope = 0.5 * (df.deriv(0.5, "left") + df.deriv(0.5, "right"))
    slope = min(max(slope, -lam), lam)
    a = max(0.5 * (lam + slope), 0.0)
    b = max(0.5 * (lam - slope), 0.0)
    return float(a), float(b)


def retired_envelope_in_t(df, grid):
    """The t-space envelope check as it was: one ``union1d`` of the grid and the kinks."""
    lam = retired_lambda_upper(df)
    a, b = retired_tangent_at_half(df)
    kinks = [0.5, *df.split_points]
    if a + b < 1.0:
        kinks += [a / (1.0 + a - b), (1.0 - a) / (1.0 - a + b)]
    t = np.union1d(np.linspace(0.0, 1.0, 16 * (grid - 1) + 1), kinks)
    s = 1.0 - t
    at = df.eval_fn(t)
    lower_gap = at - (1.0 - lam * np.minimum(t, s))
    upper_gap = np.maximum(np.maximum(t, s), (1.0 - a) * s + (1.0 - b) * t) - at
    return EnvelopeCheck(
        grid=grid,
        max_lower_violation=max(float(lower_gap.max()), 0.0),
        max_upper_violation=max(float(upper_gap.max()), 0.0),
        tangent_params=(a, b),
    )


def retired_pwl_deriv(ts, slopes):
    """The A' of ``_pwl`` as it was: the index into all knots, less one, clipped, into ``slopes``."""
    last = len(slopes) - 1

    def deriv_fn(t, side):
        idx = np.searchsorted(ts, t, side=side) - 1
        return slopes[np.clip(idx, 0, last)]

    return deriv_fn


def retired_split_points(ts, vs):
    """The split points of ``_pwl`` as they were: the knots where the slope rises by > 1e-12."""
    slopes = np.diff(vs) / np.diff(ts)
    return tuple(ts[1:-1][np.diff(slopes) > 1e-12].tolist())


# ---------------------------------------------------------------------------
# sampler and writer
# ---------------------------------------------------------------------------


def _corpus_member(family):
    return next(df for df in dependence_corpus(60, seed=7) if df.family == family)


COPULAS = {
    "mo(0.5,0.5)": lambda: mo_dependence(0.5, 0.5),
    "mo(0.3,0.8)": lambda: mo_dependence(0.3, 0.8),
    "mo(0,0.3)": lambda: mo_dependence(0.0, 0.3),
    "mo(0.4,0)": lambda: mo_dependence(0.4, 0.0),
    "mo(1,0.4)": lambda: mo_dependence(1.0, 0.4),
    "mo(0.3,1)": lambda: mo_dependence(0.3, 1.0),
    "mo(1,1)": lambda: mo_dependence(1.0, 1.0),
    "tangent(0.3,0.2)": lambda: pareto_dependence(0.3, 0.2),
    "tangent(0.6,0.4)": lambda: pareto_dependence(0.6, 0.4),
    "tangent(1,0)": lambda: pareto_dependence(1.0, 0.0),
    "comonotone(0.5,0.5)": lambda: pareto_dependence(0.5, 0.5),
    "gumbel(1)": lambda: gumbel_dependence(1.0),
    # theta < 2: 41 split points graded toward both ends, 42 table panels
    "gumbel(1.03)": lambda: gumbel_dependence(1.03),
    "gumbel(1.5)": lambda: gumbel_dependence(1.5),
    "mix(gumbel(1.2),mo(0.3,0.8))": lambda: mix(gumbel_dependence(1.2), mo_dependence(0.3, 0.8), 0.6),
    "gumbel(2)": lambda: gumbel_dependence(2.0),
    "gumbel(50)": lambda: gumbel_dependence(50.0),
    "gumbel(1e3)": lambda: gumbel_dependence(1e3),
    "gumbel(1e12)": lambda: gumbel_dependence(1e12),
    "corpus_pwl": lambda: _corpus_member("piecewise_linear"),
    "corpus_mixture": lambda: _corpus_member("mixture"),
    # a kink 2e-13 from t = 0, a knot and a split point: both of its panels are linear
    "mo(1e-13,0.5)": lambda: mo_dependence(1e-13, 0.5),
    "mo(0.5,1e-13)": lambda: mo_dependence(0.5, 1e-13),
    # A - t A' = 1e-13 right of the kink: phi = x psi + 29.9 there, nearly a jump to inf
    "mo(1-1e-13,0.5)": lambda: mo_dependence(1.0 - 1e-13, 0.5),
    # a + b = 1 - 1e-13: the middle piece has dpsi/dq ~ 1e-13, a nearly flat phi
    "tangent(0.6,0.4-1e-13)": lambda: pareto_dependence(0.6, 0.4 - 1e-13),
    # both kinks 5e-14 from an end
    "tangent(5e-14,5e-14)": lambda: pareto_dependence(5e-14, 5e-14),
    # A at the kink 1e-299 from t = 0 rounds to 1, yet the piece before it reads its exact
    # slope -1, not the 0 of its rounded ends, and the kink stays a split point
    "tangent(1e-300,0.9)": lambda: pareto_dependence(1e-300, 0.9),
    # the knot at 0.35 bulges 5e-10 above its chord, within the convexity tolerance: A' falls
    # there, so it must end a panel, or the panel's A' would not rise and it would pass as linear
    "pwl(bulge 5e-10)": lambda: piecewise_linear_dependence(
        [(0.0, 1.0), (0.2, 0.85), (0.35, 0.775 + 5e-10), (0.5, 0.7), (0.7, 0.72), (1.0, 1.0)]
    ),
    "mix(corpus_pwl,mo(0.3,0.8))": lambda: mix(_corpus_member("piecewise_linear"), mo_dependence(0.3, 0.8), 0.4),
    # A is linear outside 1/2 +- 0.064: five linear panels around the curved middle
    "mix(gumbel(1e3),mo(0.3,0.8))": lambda: mix(gumbel_dependence(1e3), mo_dependence(0.3, 0.8), 0.5),
}

# The table-bracketed inversion and the bisection both resolve v to 2**-47,
# but through different roundings of dC/du, so their v differ in the last
# bits; where dC/du is flat in v, that rounding moves either v further
# (to 2.3e-13 on the cases below).
V_TOL = 1e-12


def assert_matches_bisection(cop, n, seed):
    """u bit-equal to the bisection sampler's, and v within ``V_TOL``; returns the batch.

    A pair the bisection put within 2**-46 of the jump curves v = u**q_k of
    one or more kinks t_k, q_k = t_k / (1 - t_k), is an atom: its v must lie
    exactly on one of those curves (two kinks may be 1e-13 apart).
    """
    batch = sample_generic(cop, n, seed)
    u, v = bisection_sample(cop, n, seed)
    assert np.array_equal(batch.u, u), (seed, n)
    assert np.abs(batch.v - v).max() <= V_TOL, (seed, n, np.abs(batch.v - v).max())
    df = cop.dependence
    kinks = [tk for tk in df.split_points if df.deriv(tk, "left") < df.deriv(tk, "right")]
    curves = np.array([u ** (tk / (1.0 - tk)) for tk in kinks]).reshape(len(kinks), n)
    near = np.abs(v - curves) <= 2.0**-46
    on = ((batch.v == curves) & near).any(axis=0)
    assert on[near.any(axis=0)].all(), (seed, n)
    return batch


@pytest.mark.parametrize("name", list(COPULAS))
def test_sampler_and_writer_match_retired_paths(name):
    cop = copula_from_pickands(COPULAS[name]())
    for seed in SEEDS:
        for n in SIZES:
            batch = assert_matches_bisection(cop, n, seed)
            new, old = io.StringIO(), io.StringIO()
            write_batch_csv(batch, new)
            write_rows(batch, old)
            assert new.getvalue() == old.getvalue(), (seed, n)


FAMILIES = ("marshall_olkin", "pareto", "gumbel", "piecewise_linear", "mixture")


def test_sampler_matches_bisection_on_corpus():
    corpus = dependence_corpus(300, seed=11)
    members = [[df for df in corpus if df.family == f][:24] for f in FAMILIES]
    assert all(len(m) == 24 for m in members)
    for i, df in enumerate(itertools.chain(*members)):
        assert_matches_bisection(copula_from_pickands(df), 1000, i)


@pytest.mark.parametrize("seed", (0, 1))
def test_sampler_puts_tangent_kink_atom_on_jump_curve(seed):
    # kink t_P = a / (1 + a - b) ~ 0.096074 of a ~ 0.10040, b ~ 0.05540; its
    # q = t / (1 - t) maps back to the t one ulp below the kink, so a table
    # that read A'(t+) there through q would take the slope of the left piece
    df = dependence_corpus(40, 5)[31]
    assert df.family == "pareto"
    assert df.params["a"] == pytest.approx(0.10040, abs=1e-5)
    assert df.params["b"] == pytest.approx(0.05540, abs=1e-5)
    assert df.split_points[0] == pytest.approx(0.096074, abs=1e-6)
    assert_matches_bisection(copula_from_pickands(df), 5000, seed)


class _Draws:
    """Stand-in for the sampler's generator: returns the given arrays in turn."""

    def __init__(self, *arrays):
        self._arrays = iter(arrays)

    def random(self, n):
        out = next(self._arrays)
        assert len(out) == n
        return out.copy()


@pytest.mark.parametrize("name", ["gumbel(2)", "mo(0.3,0.8)", "comonotone(0.5,0.5)", "mo(1,1)"])
def test_sampler_edge_draws_are_generalized_inverses(name, monkeypatch):
    # u = 0 is floored at 1e-300; p = 0 gives e = -ln p = inf and v = 0;
    # u = 1 - 2**-53 puts q* far out in the last table cell; on comonotone
    # pieces A - t A' = 0, so phi = inf.  At p = 1 - 2**-53 the inverse is
    # ill-conditioned for Gumbel (1 - dC/du ~ (1 - v)**2), so rounding of
    # dC/du alone moves v by ~6e-10 there, in either sampler: v is checked
    # against the definition of the generalized inverse, not the bisection
    u = np.array([0.0, 1e-300, 0.5, 0.5, 0.5, 1.0 - 2.0**-53, 0.3, 0.9, 2.0**-53])
    p = np.array([0.5, 0.5, 0.0, 2.0**-53, 1.0 - 2.0**-53, 0.5, 0.0, 1e-300, 0.7])
    monkeypatch.setattr(montecarlo, "make_rng", lambda seed, tag: _Draws(u, p))
    cop = copula_from_pickands(COPULAS[name]())
    batch = sample_generic(cop, len(u), 0)
    np.testing.assert_array_equal(batch.u, np.maximum(u, 1e-300))
    v, d, eps = batch.v, 2.0**-46, 1e-15  # v within 2**-47 of inf{v : dC/du >= p}
    assert np.all(v[p == 0.0] == 0.0)
    assert np.all(reference.partial_u(cop, batch.u, np.minimum(v + d, 1.0)) >= p - eps)
    inside = v > d
    assert np.all(reference.partial_u(cop, batch.u[inside], v[inside] - d) <= p[inside] + eps)


def test_writer_matches_per_row_writer_on_edge_values():
    x = np.array([0.0, 1.0, 1e-300, 5e-324, 2.0**-47, 1.0 - 2.0**-53, 0.1, 1.0 / 3.0])
    batch = SampleBatch(x, x[::-1].copy(), 0, "manual")
    new, old = io.StringIO(), io.StringIO()
    write_batch_csv(batch, new)
    write_rows(batch, old)
    assert new.getvalue() == old.getvalue()
    assert new.getvalue().splitlines()[4] == "4.9406564584124654e-324,7.1054273576010019e-15"


def test_writer_matches_per_row_writer_at_chunk_edges():
    k = montecarlo._CSV_ROWS
    rng = make_rng(43)
    for n in (k - 1, k, k + 1, 2 * k + 1):
        batch = SampleBatch(rng.random(n), rng.random(n), 0, "manual")
        new, old = io.StringIO(), io.StringIO()
        write_batch_csv(batch, new)
        write_rows(batch, old)
        assert new.getvalue() == old.getvalue(), n


def assert_writes_like_rows(u, v):
    batch = SampleBatch(np.asarray(u, dtype=float), np.asarray(v, dtype=float), 0, "manual")
    new, old = io.StringIO(), io.StringIO()
    write_batch_csv(batch, new)
    write_rows(batch, old)
    assert new.getvalue() == old.getvalue()


def ulp_neighbours(x, k):
    """The floats within ``k`` ulps of the positive float ``x``, ``x`` included."""
    c = int(np.float64(x).view(np.int64))
    return np.arange(c - k, c + k + 1, dtype=np.int64).view(np.float64)


def test_writer_matches_per_row_writer_within_50_ulps_of_each_decade_bound():
    # the kernel reads the decade X of x in [1e-4, 1) from the floats 0.1, 0.01 and
    # 0.001, and needs 10**16 <= D < 10**17 for its 17 digits D = x 10**(16 - X)
    x = np.concatenate([ulp_neighbours(b, 50) for b in (1e-4, 0.001, 0.01, 0.1, 1.0)])
    assert_writes_like_rows(x, x[::-1].copy())
    for xi in x[(x >= 1e-4) & (x < 1.0)].tolist():
        X = max(k for k in (-4, -3, -2, -1) if Fraction(xi) >= Fraction(10) ** k)
        assert X == -4 + (xi >= 0.001) + (xi >= 0.01) + (xi >= 0.1), xi
        assert 10**16 <= round(Fraction(xi) * 10 ** (16 - X)) < 10**17, xi


@pytest.mark.parametrize("X", (-4, -3, -2, -1))
def test_writer_rounds_exact_ties_to_even_like_per_row_writer(X):
    # x = t / 2**(17 - X) with t odd puts x 10**(16 - X) exactly halfway between two integers
    scale = 2 ** (17 - X)
    t = np.arange(math.ceil(Fraction(10) ** X * scale) | 1, math.ceil(Fraction(10) ** (X + 1) * scale), 2)
    t = make_rng(17 - X).choice(t, min(len(t), 4000), replace=False)
    x = t / float(scale)
    assert all(10.0**X <= xi < 10.0 ** (X + 1) for xi in x.tolist())
    assert all((Fraction(xi) * 10 ** (16 - X)).denominator == 2 for xi in x.tolist())
    assert len(x) >= 900  # all 943 ties of the decade X = -4, 4000 of each other one
    assert_writes_like_rows(x, x[::-1].copy())


def test_writer_formats_values_outside_the_kernel_like_per_row_writer():
    x = [0.0, -0.0, 1.0, 5e-324, 2.2250738585072014e-308, 1e-300, -1.5, 7.0, np.inf, -np.inf, np.nan]
    x = np.array(x + [0.5, 0.25, 1e-4, 0.1 - 2.0**-56, -2.2250738585072014e-308, -1.7976931348623157e308])
    assert_writes_like_rows(x, x[::-1].copy())


@given(st.lists(st.integers(0, 2**64 - 1), min_size=2, max_size=64))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_writer_matches_per_row_writer_on_any_bit_pattern(words):
    x = np.array(words, dtype=np.uint64).view(np.float64)
    assert_writes_like_rows(x, x[::-1].copy())


@given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=64))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_writer_matches_per_row_writer_on_unit_interval(values):
    x = np.array(values)
    assert_writes_like_rows(x, x[::-1].copy())


@pytest.mark.parametrize("n", (4095, 4096, 4097))
def test_writer_matches_per_row_writer_across_decades_at_chunk_edges(n):
    # about a third of the values lie below 1e-4, so every chunk mixes the kernel and the % format
    rng = make_rng(n)
    assert_writes_like_rows(10.0 ** rng.uniform(-6.0, 0.0, n), 10.0 ** rng.uniform(-6.0, 0.0, n))


# ---------------------------------------------------------------------------
# Kendall tie counts at the block edges of the merge counts
# ---------------------------------------------------------------------------


def _tied(x, tied):
    return np.floor(x * 7.0) / 7.0 if tied else x


@pytest.mark.parametrize("ties", ["none", "u", "v", "both"])
def test_kendall_matches_direct_count_at_block_edges(ties):
    for i, n in enumerate((2, 3, 63, 64, 65, 127, 128, 129, 191, 192, 193, 700)):
        rng = make_rng(40, i)
        u = _tied(rng.random(n), ties in ("u", "both"))
        v = _tied(rng.random(n), ties in ("v", "both"))
        assert kendall_tau_stat(u, v) == kendall_tau_direct(u, v), n


@pytest.mark.parametrize("ties", ["none", "u", "v", "both"])
def test_kendall_matches_unique_tie_counts_at_chunk_edges(ties):
    # 64 blocks of 64 made one chunk of the retired counter's in-block comparison
    for i, n in enumerate((4095, 4096, 4097, 4160, 4161, 8193)):
        rng = make_rng(41, i)
        u = _tied(rng.random(n), ties in ("u", "both"))
        v = _tied(rng.random(n), ties in ("v", "both"))
        assert kendall_tau_stat(u, v) == kendall_unique_ties(u, v), n


def test_kendall_signed_zero_and_infinities_tie_like_unique():
    u = np.array([0.0, -0.0, 1.0, np.inf, np.inf, 0.5, -np.inf])
    v = np.array([0.2, 0.2, -0.0, 0.0, 1.0, np.inf, 0.2])
    assert kendall_tau_stat(u, v) == kendall_unique_ties(u, v)


# ---------------------------------------------------------------------------
# empirical_coefficients against the retired estimator, bit for bit
# ---------------------------------------------------------------------------


def _assert_matches_retired(u, v):
    batch = SampleBatch(u, v, 0, "manual")
    assert empirical_coefficients(batch) == retired_empirical(batch), batch.n


def test_empirical_matches_retired_on_corpus_samples():
    corpus = dependence_corpus(100, seed=13)
    members = [[df for df in corpus if df.family == f][:4] for f in FAMILIES]
    assert all(len(m) == 4 for m in members)
    for i, df in enumerate(itertools.chain(*members)):
        batch = sample_generic(copula_from_pickands(df), 2000, i)
        _assert_matches_retired(batch.u, batch.v)


@pytest.mark.parametrize(
    "alpha, beta", [(0.5, 0.5), (0.3, 0.8), (1.0, 0.4), (1.0, 1.0), (0.0, 0.3)]
)
def test_empirical_matches_retired_on_mo_samples(alpha, beta):
    for seed, n in ((0, 10), (1, 2000), (2, 5000)):
        batch = sample_mo(alpha, beta, n, seed)
        _assert_matches_retired(batch.u, batch.v)


def test_empirical_matches_retired_on_ties_signed_zeros_and_infinities():
    rng = make_rng(44)
    for n in (10, 11, 300, 2001):
        x = rng.random(n)
        for u, v in (
            (_tied(x, True), _tied(rng.random(n), True)),
            (np.floor(x * 2.0), np.floor(rng.random(n) * 3.0)),
            (x, x),
            (x, -x),
            (_tied(x, True), 1.0 - _tied(x, True)),
            (rng.choice([-0.0, 0.0, 1.0], n), rng.choice([0.0, -0.0, 0.5, 0.5], n)),
        ):
            _assert_matches_retired(u, v)
        u, v = rng.random(n), rng.random(n)
        u[:4] = np.inf, -np.inf, -0.0, 0.0
        v[4:7] = -0.0, 0.0, np.inf
        _assert_matches_retired(u, v)


@pytest.mark.parametrize("ties", [False, True])
def test_empirical_matches_retired_at_block_and_level_edges(ties):
    # Kendall's tau alone below 10 pairs, where the other estimates refuse
    edges = {2**k + d for k in range(1, 12) for d in (-1, 0, 1)} - {1}
    sizes = sorted(edges | {10, 4095, 4096, 4097})
    for i, n in enumerate(sizes):
        rng = make_rng(45, i)
        u, v = _tied(rng.random(n), ties), _tied(rng.random(n), ties)
        assert kendall_tau_stat(u, v) == retired_tau(u, v), n
        if n >= 10:
            _assert_matches_retired(u, v)


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_inversion_count_matches_retired_in_both_key_dtypes(dtype):
    # Kendall counts on int32 keys below 2**30 pairs and on int64 keys above
    # 65537 keys pad to 2**17: the top rows span several blocks of _TAG_BLOCK keys
    for i, n in enumerate((2, 7, 8, 9, 100, 4097, 65537)):
        w = make_rng(46, i).integers(0, n, n)
        assert montecarlo._inversions(w.astype(dtype)) == count_strict_inversions(w), n


def test_inversion_count_holds_its_copy_and_two_blocks():
    # the right-item positions are summed a block of _TAG_BLOCK keys at a time, so the
    # top merge levels hold no int64 array as long as the padded keys
    w = make_rng(47, 0).permutation(200000).astype(np.int32)
    tracemalloc.start()
    try:
        montecarlo._inversions(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**18 + 4 * 8 * montecarlo._TAG_BLOCK, peak


@pytest.fixture(scope="module")
def large_gumbel_batch():
    return sample_generic(copula_from_pickands(gumbel_dependence(2.0)), 200000, seed=0)


def test_empirical_matches_retired_on_large_gumbel_sample(large_gumbel_batch):
    assert empirical_coefficients(large_gumbel_batch) == retired_empirical(large_gumbel_batch)


def test_empirical_matches_retired_on_large_sample_with_long_runs_of_ties(large_gumbel_batch):
    # 3 decimals leave about 1,000 runs of some 200 pairs per coordinate
    u, v = np.round(large_gumbel_batch.u, 3), np.round(large_gumbel_batch.v, 3)
    assert kendall_tau_stat(u, v) == retired_tau(u, v)
    _assert_matches_retired(u, v)


@pytest.mark.parametrize("estimator", ["empirical_coefficients", "kendall_tau_stat"])
def test_rank_estimators_hold_at_most_eight_arrays_of_n_doubles(large_gumbel_batch, estimator):
    batch = large_gumbel_batch
    call = {
        "empirical_coefficients": lambda: empirical_coefficients(batch),
        "kendall_tau_stat": lambda: kendall_tau_stat(batch.u, batch.v),
    }[estimator]
    call()  # a first call, so that lazy set-up inside numpy is not counted
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 8 * batch.n, f"{estimator} peaked at {peak / 1e6:.1f} MB"


# ---------------------------------------------------------------------------
# CSV reader: every input the line-split reader accepts
# ---------------------------------------------------------------------------

ACCEPTED = {
    "lf": "u,v\n0.25,0.5\n0.75,0.125\n",
    "crlf": "u,v\r\n0.25,0.5\r\n0.75,0.125\r\n",
    "no_final_newline": "u,v\n0.25,0.5\n0.75,0.125",
    "blank_lines": "u,v\n\n0.25,0.5\n\n\n0.75,0.125\n\n",
    "whitespace_lines": "u,v\n   \n0.25,0.5\n\t\n0.75,0.125\n \r\n",
    "extra_columns": "u,v,w\n0.25,0.5,9\n0.75,0.125,x,y\n",
    "trailing_comma": "u,v,\n0.25,0.5,\n0.75,0.125,\n",
    "space_padded": "u , v\n  0.25 , 0.5  \n\t0.75,\t0.125\t\n",
    "header_case": " U,V \n0.25,0.5\n0.75,0.125\n",
    "number_forms": "u,v\n2.5E-1,+.5\n7.5e-1,1.25e-1\n",
}


@pytest.mark.parametrize("newline", [None, ""])
@pytest.mark.parametrize("name", list(ACCEPTED))
def test_reader_accepts_what_line_split_reader_accepts(name, newline):
    text = ACCEPTED[name]
    u, v = read_lines(io.StringIO(text, newline=newline))
    batch = read_pairs_csv(io.StringIO(text, newline=newline))
    np.testing.assert_array_equal(batch.u, [0.25, 0.75])
    np.testing.assert_array_equal(batch.v, [0.5, 0.125])
    assert np.array_equal(batch.u, u) and np.array_equal(batch.v, v)
    assert batch.n == 2


def test_reader_roundtrips_writer_output_like_line_split_reader():
    batch = sample_generic(copula_from_pickands(gumbel_dependence(2.0)), 4097, seed=3)
    buf = io.StringIO()
    write_batch_csv(batch, buf)
    u, v = read_lines(io.StringIO(buf.getvalue()))
    back = read_pairs_csv(io.StringIO(buf.getvalue()))
    assert np.array_equal(back.u, u) and np.array_equal(back.v, v)
    assert np.array_equal(back.u, batch.u) and np.array_equal(back.v, batch.v)


@pytest.mark.parametrize(
    "text, message",
    [
        ("u,v\n", "no sample rows in input"),
        ("u,v\n\n  \n\r\n", "no sample rows in input"),
        ("", "expected CSV header"),
        ("x,y\n0.1,0.2\n", "expected CSV header"),
        ("u,v\n0.1,1.5\n", "must lie in [0, 1]"),
        ("u,v\n-0.1,0.5\n", "must lie in [0, 1]"),
    ],
)
def test_reader_errors_match_line_split_reader(text, message):
    with pytest.raises(DegenerateSampleError, match=message.replace("[", r"\[")):
        read_lines(io.StringIO(text))
    with pytest.raises(DegenerateSampleError, match=message.replace("[", r"\[")):
        read_pairs_csv(io.StringIO(text))


@pytest.mark.parametrize("text", ["u,v\n0.1,abc\n", "u,v\n# note\n0.1,0.2\n"])
def test_reader_rejects_malformed_rows_like_line_split_reader(text):
    with pytest.raises(ValueError):
        read_lines(io.StringIO(text))
    with pytest.raises(DegenerateSampleError):
        read_pairs_csv(io.StringIO(text))


def test_reader_rejects_one_column_row_as_value_error():
    # the line-split reader failed here with an IndexError, which the CLI
    # did not catch; loadtxt's ValueError message is kept (CLI exit 2)
    with pytest.raises(IndexError):
        read_lines(io.StringIO("u,v\n0.1\n"))
    with pytest.raises(DegenerateSampleError, match="column"):
        read_pairs_csv(io.StringIO("u,v\n0.1\n"))


# ---------------------------------------------------------------------------
# CSV reader kernel: the bits of float() and the loadtxt reader's results
# ---------------------------------------------------------------------------


def read_fields(fields):
    """The values that ``read_pairs_csv`` reads from ``fields``, two a row, in field order."""
    rows = [*fields, "0.5"][: len(fields) + len(fields) % 2]
    text = "u,v\n" + "".join(f"{a},{b}\n" for a, b in zip(rows[0::2], rows[1::2]))
    batch = read_pairs_csv(io.StringIO(text))
    return np.column_stack((batch.u, batch.v)).ravel()[: len(fields)]


def assert_reads_as_float(fields):
    got = read_fields(fields)
    want = np.array([float(f) for f in fields])
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist(), fields


def kernel_marks(fields):
    """The marks of ``montecarlo._decimals`` on ``fields``, one a line: True where the kernel's double stands."""
    b = np.frombuffer(b"0" * 24 + "".join(f + "\n" for f in fields).encode() + b"0", dtype=np.uint8)
    ends = np.flatnonzero(b == ord("\n"))
    return montecarlo._decimals(b, np.append(24, ends[:-1] + 1), ends)[1]


@given(st.lists(st.text("0123456789", min_size=1, max_size=20), min_size=1, max_size=64))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_reader_reads_decimal_fields_as_float(digits):
    assert_reads_as_float(["0." + d for d in digits])


def test_reader_leaves_fields_past_the_kernel_bounds_to_loadtxt():
    # 21 digits, or 20 digits with D >= 922e16 (so not D < 2**63), are not the kernel's
    inside = ["0.09219999999999999999", "0.00123456789012345678"]
    outside = ["0.09220000000000000000", "0.001234567890123456789", "0.000123456789012345678"]
    assert kernel_marks(inside).all() and not kernel_marks(outside).any()
    assert_reads_as_float(inside + outside)


def midpoint_fields(y, toward):
    """The two 20-digit decimals around the midpoint of ``y`` and its neighbour toward ``toward``: each within 1e-20."""
    mid = (Fraction(y) + Fraction(float(np.nextafter(y, toward)))) / 2
    d = math.floor(mid * 10**20)
    return [f"0.{d + i:020d}" for i in (0, 1)]


@given(st.floats(1e-4, 1.0, exclude_max=True), st.sampled_from([0.0, 1.0]))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_reader_reads_decimals_near_a_midpoint_as_float(y, toward):
    assert_reads_as_float(midpoint_fields(y, toward))


@pytest.mark.parametrize("j", range(1, 15))
def test_reader_reads_decimals_near_midpoints_next_to_powers_of_two_as_float(j):
    # below 2**-j the gap between doubles halves, so its midpoint there is half as far
    fields = midpoint_fields(2.0**-j, 0.0) + midpoint_fields(2.0**-j, 1.0)
    fields += midpoint_fields(float(np.nextafter(2.0**-j, 0.0)), 0.0)
    assert_reads_as_float(fields)


def decimal_near_midpoint(e, k, t, rng):
    """A field ``0.`` and k digits for D / 10**k with D 2**(N - k) - M 5**k = t, or None.

    M / 2**N, N = 54 - e, is a midpoint between the doubles of
    [2**(e - 1), 2**e) if M is odd, and D / 10**k is then t / (2 5**k) gaps
    from it.  D is one of the first, the last, or a random one in the binade.
    """
    n = 54 - e
    d0 = t * pow(2 ** (n - k), -1, 5**k) % 5**k
    lo = -(-(Fraction(2) ** (e - 1) * 10**k - d0) // 5**k)  # the first D = d0 + j 5**k in the binade
    hi = (Fraction(2) ** e * 10**k - d0 - 1) // 5**k
    if lo > hi:
        return None
    d = d0 + 5**k * int(rng.choice([lo, hi, rng.integers(lo, hi + 1)]))
    if d >= 2**63 or (d * 2 ** (n - k) - t) // 5**k % 2 == 0:
        return None
    return f"0.{d:0{k}d}"


def test_reader_reads_decimals_within_midpoint_tolerance_through_float():
    rng = make_rng(46)
    near, far = [], []
    for _ in range(3000):
        e, k = -int(rng.integers(0, 14)), int(rng.integers(17, 21))
        reach = 2 * 5**k * montecarlo._MIDPOINT  # |t| below this puts D / 10**k inside the tolerance
        t = int(rng.integers(1, max(reach / 2, 2))) * int(rng.choice([-1, 1]))
        for fields, t in ((near, t), (far, t + int(np.sign(t)) * math.ceil(2 * reach))):
            field = decimal_near_midpoint(e, k, t, rng)
            if field is not None:
                fields.append(field)
    assert len(near) >= 500 and len(far) >= 500, (len(near), len(far))
    assert not kernel_marks(near).any()  # each is left to float
    assert kernel_marks(far).all()  # twice as far is the kernel's own double
    assert_reads_as_float(near)
    assert_reads_as_float(far)


@pytest.fixture(scope="module")
def writer_file(tmp_path_factory):
    """A 2e5-pair writer file of Gumbel theta = 2: its path and its batch."""
    batch = sample_generic(copula_from_pickands(gumbel_dependence(2.0)), 200_000, seed=0)
    path = tmp_path_factory.mktemp("reader") / "pairs.csv"
    with open(path, "w", newline="") as fh:
        write_batch_csv(batch, fh)
    return path, batch


def outcome(read, stream):
    """What ``read`` makes of ``stream``: the bits of its pairs, or its error type and text."""
    try:
        batch = read(stream)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return "values", np.column_stack((batch.u, batch.v)).tobytes()


def read_both(text, newline):
    """``read_pairs_csv`` and the loadtxt reader on ``io.StringIO(text, newline=newline)``."""
    return [outcome(read, io.StringIO(text, newline=newline)) for read in (read_pairs_csv, reference.read_pairs_loadtxt)]


ROW_150000 = {
    "whitespace": " \t \n",
    "crlf": "0.25,0.5\r\n",
    "extra_column": "0.25,0.5,0.75\n",
    "abc": "0.25,abc\n",
    "one_column": "0.25\n",
    "lone_cr": "0.25,0.5\r0.75,0.125\n",  # two rows where the stream splits at \r, as with newline=""
}


@pytest.mark.parametrize("newline", [None, ""])
@pytest.mark.parametrize("name", list(ROW_150000))
def test_reader_matches_loadtxt_reader_past_first_chunk(name, newline, writer_file):
    lines = writer_file[0].read_text().splitlines(keepends=True)
    assert len("".join(lines[:150_000])) > 4 * montecarlo._READ_CHARS
    lines[150_000] = ROW_150000[name]
    new, old = read_both("".join(lines), newline)
    assert new == old
    if name in ("abc", "one_column"):
        assert new[0] == "DegenerateSampleError"
        assert f"row {150_000 - (name == 'abc')}" in new[1], new[1]  # loadtxt counts rows from 0 or from 1


_FAST_LINE = st.tuples(*[st.text("0123456789", min_size=1, max_size=20)] * 2).map(lambda r: f"0.{r[0]},0.{r[1]}\n")
_FIELDS = st.one_of(
    st.text("0123456789", min_size=1, max_size=21).map(lambda d: "0." + d),
    st.sampled_from(["0", "1", "0.", "1e-05", "9.9999999999999995e-05", "+.5", "1.5", "-0.25", "nan", "inf"]),
    st.sampled_from(["", "abc", "1_0", " 0.5", "0.5 ", "0.5\t", "0x1", "0.5e0", "\u0660.5"]),
)
_ENDS = st.sampled_from(["\n", "\r\n", "\r", " \n", ",0.75\n", ",\n"])
_LINES = st.one_of(
    _FAST_LINE,
    _FAST_LINE,
    _FAST_LINE,
    st.tuples(_FIELDS, _FIELDS, _ENDS).map(lambda r: f"{r[0]},{r[1]}{r[2]}"),
    st.sampled_from(["\n", "  \n", "\t\n", "\r\n", "0.25\n", "0.25,0.5,x,y\n"]),
)


@given(
    header=st.sampled_from(["u,v\n", "u,v\r\n", "u,v\r", " U , V \n"]),
    lines=st.lists(_LINES, max_size=40),
    chunk=st.sampled_from([7, 40, 1 << 17]),
    newline=st.sampled_from([None, "", "\n", "\r", "\r\n"]),
)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_reader_matches_loadtxt_reader_on_mixed_lines(header, lines, chunk, newline):
    # every newline mode of io, chunks cut inside lines, and rows the kernel leaves to float or loadtxt
    with unittest.mock.patch.object(montecarlo, "_READ_CHARS", chunk):
        new, old = read_both(header + "".join(lines), newline)
    assert new == old


@pytest.mark.parametrize("newline", ["", "\n"])
def test_reader_matches_loadtxt_reader_past_first_chunk_of_crlf_file(newline, writer_file):
    # a header that ends in \r\n: the stream's own lines go to loadtxt a chunk of lines at a time
    lines = writer_file[0].read_text().splitlines()[:10_000]
    lines[9_000] = "0.25,abc"
    new, old = read_both("\r\n".join(lines) + "\r\n", newline)
    assert new == old and "row 8999" in new[1], new
    assert 9_000 > 2 * montecarlo._CSV_ROWS


@pytest.mark.parametrize("newline", [None, "", "\n", "\r", "\r\n"])
@pytest.mark.parametrize(
    "text",
    ["u,v\r\n0.25,0.5\n0.75,0.125\r\n", "u,v\n0.25,0.5\r0.75,0.125\n", "u,v\r0.25,0.5\r\n0.75,0.125\r"],
)
def test_reader_matches_loadtxt_reader_on_files_in_every_newline_mode(text, newline):
    # a file read back as it is: StringIO would translate "\n" in its initial value for newline "\r" or "\r\n"
    out = []
    for read in (read_pairs_csv, reference.read_pairs_loadtxt):
        with io.TextIOWrapper(io.BytesIO(text.encode()), newline=newline) as fh:
            out.append(outcome(read, fh))
    assert out[0] == out[1]


def test_reader_memory_on_writer_file(writer_file):
    path, batch = writer_file
    with open(path, newline="") as fh:  # a first call, so that lazy set-up inside numpy is not counted
        read_pairs_csv(fh)
    with open(path, newline="") as fh:
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            back = read_pairs_csv(fh)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
    assert np.array_equal(back.u, batch.u) and np.array_equal(back.v, batch.v)
    assert peak <= 6 * 8 * batch.n, f"read_pairs_csv peaked at {peak / 1e6:.1f} MB"


# ---------------------------------------------------------------------------
# Kendall tau of piecewise-linear dependence functions
# ---------------------------------------------------------------------------

PIECEWISE_LINEAR = ("marshall_olkin", "pareto", "piecewise_linear")


def test_tau_matches_kink_atoms_on_piecewise_linear_corpus():
    checked = 0
    for seed in range(10):
        for df in dependence_corpus(100, seed):
            if df.family in PIECEWISE_LINEAR:
                assert tau_numeric(df) == pytest.approx(kink_atom_tau(df), abs=1e-10), (
                    seed,
                    df,
                )
                checked += 1
    assert checked > 500


def _pwl_knots(df):
    """The knots and piece slopes that ``reference.pwl_rho_tau`` reads for a knot, MO or tangent build."""
    if df.family == "piecewise_linear":
        ts, vs = np.array(df.params["knots"]).T
        return ts, vs, None
    return df.edges, df.eval_fn(df.edges), reference.exact_piece_slopes(df)


@pytest.mark.parametrize("seed", range(4))
def test_batched_quadrature_matches_exact_pwl_sums(seed):
    # the exact sums over the knots are an oracle for the last bits that
    # the batched loop moved, independent of the quadrature
    cases = dependence_corpus(500, seed)
    checked = 0
    for df, rep in zip(cases, bounds_mod._verify_many(cases)):
        if df.family in PIECEWISE_LINEAR:
            rho, tau = reference.pwl_rho_tau(*_pwl_knots(df))
            assert abs(rep["rho"] - rho) <= 1e-14, df
            assert abs(rep["tau"] - tau) <= 1e-14, df
            checked += 1
    assert checked > 250


def test_exact_pwl_sums_match_closed_forms():
    for alpha, beta in ((0.3, 0.6), (1.0, 1.0), (1e-13, 0.5)):
        closed = mo_closed_form(alpha, beta)
        got = reference.pwl_rho_tau(*_pwl_knots(mo_dependence(alpha, beta)))
        assert got == pytest.approx((closed.rho, closed.tau), rel=0, abs=4e-16)
    for a, b in ((0.3, 0.2), (0.5, 0.5), (0.6, 0.3999999999999)):
        got = reference.pwl_rho_tau(*_pwl_knots(pareto_dependence(a, b)))
        assert got == pytest.approx(pareto_closed_form(a, b), rel=0, abs=4e-16)


# ---------------------------------------------------------------------------
# quadrature: one call of the integrand per level against the heap
# ---------------------------------------------------------------------------


def _quad_tol(integral):
    """Twice the stated tolerance: both integrators are within it of the integral."""
    return 2.0 * (numerics._ABS_TOL + numerics._REL_TOL * abs(integral))


def test_integrate_matches_heap_on_corpus(monkeypatch):
    cases = dependence_corpus(600, 3)
    assert {df.family for df in cases} == set(FAMILIES)
    levels = [(rho_numeric(df), tau_numeric(df)) for df in cases]
    # rho_numeric and tau_numeric integrate over [0, *split_points, 1], checked when df was built
    # each is a batch of one integral, so the integrand's rows of x are [0, len(x)]
    def heap(f, edges):
        return np.array([heap_integrate(lambda x: f(x, [0, len(x)]), edges[0][1:-1])])

    monkeypatch.setattr(coefficients, "integrate", heap)
    for df, (rho, tau) in zip(cases, levels):
        heap_rho, heap_tau = rho_numeric(df), tau_numeric(df)
        # rho = 12 I - 3, so I differs by a twelfth of rho's difference
        assert abs(rho - heap_rho) / 12.0 <= _quad_tol((heap_rho + 3.0) / 12.0), df
        assert abs(tau - heap_tau) <= _quad_tol(heap_tau), df


@pytest.mark.parametrize("theta", (1.0 + 1e-8, 1.0001, 2.0, 50.0, 1e3, 1e6, 1e12))
def test_gumbel_tau_matches_closed_form(theta):
    assert abs(tau_numeric(gumbel_dependence(theta)) - (1.0 - 1.0 / theta)) <= 1e-12


@pytest.mark.parametrize(
    "f, split_points",
    [
        (lambda t: np.exp(t) * np.cos(3.0 * t), ()),
        (lambda t: np.abs(t - 1.0 / 3.0) + 1.0, (1.0 / 3.0,)),
        (lambda t: np.sqrt(t), ()),
        (lambda t: np.log(t), ()),
        (lambda t: 1.0 / (1e-4 + (t - 0.37) ** 2), (0.2, 0.7)),
    ],
)
def test_integrate_matches_heap_on_hard_integrands(f, split_points):
    heap = heap_integrate(f, split_points)
    assert abs(reference.integrate(f, split_points) - heap) <= _quad_tol(heap)


# ---------------------------------------------------------------------------
# pointwise envelope: t-space check against the (u, v) grid
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", (0, 1))
def test_envelope_in_t_agrees_with_uv_grid_on_corpus(seed):
    for df in dependence_corpus(500, seed):
        in_t = _envelope_in_t(df, lambda_upper(df), 200)
        on_grid = check_envelope(copula_from_pickands(df), 200)
        assert in_t.tangent_params == on_grid.tangent_params
        for env in (in_t, on_grid):
            assert env.max_lower_violation <= _ENVELOPE_TOL, (seed, df)
            assert env.max_upper_violation <= _ENVELOPE_TOL, (seed, df)


def test_envelope_in_t_exact_between_grid_nodes():
    # dips below max(t, 1 - t) most at its kink t = 0.5003, which lies
    # between the equispaced nodes k / 3184; unvalidated, as no valid A dips
    ts, vs = np.array([0.0, 0.5003, 1.0]), np.array([1.0, 0.4999, 1.0])
    df = _pwl(ts, vs, "piecewise_linear", {})
    env = _envelope_in_t(df, lambda_upper(df), 200)
    assert abs(env.max_upper_violation - (0.5003 - 0.4999)) <= 1e-12


# ---------------------------------------------------------------------------
# pointwise envelope: grid and kinks as two arrays against their union
# ---------------------------------------------------------------------------

ENVELOPE_GRIDS = (2, 3, 40, 200)
T_NODES = np.linspace(0.0, 1.0, 16 * 199 + 1)  # the t-grid of envelope grid 200


def _hull_on_grid(seed, k):
    """A valid piecewise-linear A whose interior knots are nodes of ``T_NODES``.

    The lower convex hull of (0, 1), (1, 1) and k points in the band at
    random nodes, some of them on max(t, 1 - t).
    """
    rng = make_rng(seed, 0xE7)
    t = T_NODES[np.sort(rng.choice(np.arange(1, T_NODES.size - 1), k, replace=False))]
    env = np.maximum(t, 1.0 - t)
    y = np.where(rng.random(k) < 0.3, env, env + rng.random(k) * (1.0 - env))
    hull = []
    for p in [(0.0, 1.0), *zip(t, y), (1.0, 1.0)]:
        # drop the last vertex while it lies on or above the chord to p
        while len(hull) > 1 and _cross(hull[-2], hull[-1], p) <= 0.0:
            hull.pop()
        hull.append(p)
    return piecewise_linear_dependence(hull)


def _cross(o, p, q):
    return (p[0] - o[0]) * (q[1] - o[1]) - (p[1] - o[1]) * (q[0] - o[0])


ON_GRID = {
    "mo(0.5,0.5)": lambda: mo_dependence(0.5, 0.5),
    "tangent(0.25,0.25)": lambda: pareto_dependence(0.25, 0.25),
    "tangent(0.125,0.125)": lambda: pareto_dependence(0.125, 0.125),
    "comonotone(0.5,0.5)": lambda: pareto_dependence(0.5, 0.5),
    **{f"knots_on_grid_{s}": (lambda s=s: _hull_on_grid(s, 2 + 3 * s)) for s in range(5)},
}


@pytest.mark.parametrize("grid", ENVELOPE_GRIDS)
def test_envelope_in_t_matches_union_on_corpus(grid):
    cases = dependence_corpus(600, 3)
    assert {df.family for df in cases} == set(FAMILIES)
    for df in cases:
        assert _envelope_in_t(df, lambda_upper(df), grid) == retired_envelope_in_t(df, grid), df


@pytest.mark.parametrize("grid", ENVELOPE_GRIDS)
@pytest.mark.parametrize("name", sorted(ON_GRID))
def test_envelope_in_t_matches_union_with_kinks_on_grid(name, grid):
    df = ON_GRID[name]()
    # every kink of A is a node of the t-grid, so union1d drops it as a duplicate
    assert df.split_points and np.isin(df.split_points, T_NODES).all()
    assert _envelope_in_t(df, lambda_upper(df), grid) == retired_envelope_in_t(df, grid)


@pytest.mark.parametrize("grid", ENVELOPE_GRIDS)
@pytest.mark.parametrize("theta", (1.0, 1.0 + 1e-8, 2.0, 1e12))
def test_envelope_in_t_matches_union_on_gumbel(theta, grid):
    df = gumbel_dependence(theta)
    assert _envelope_in_t(df, lambda_upper(df), grid) == retired_envelope_in_t(df, grid)


# ---------------------------------------------------------------------------
# A' of piecewise-linear functions, and the reads at t = 1/2
# ---------------------------------------------------------------------------


def _built_with_knots(build, monkeypatch):
    """``build()``, its knots and the slope of each piece between them.

    The knots and their knot-difference slopes are those it passed to
    ``_pwl``; an MO, tangent or Gumbel theta = 1 build passes none, and has
    its edges and the exact slope of each piece.
    """
    seen = []
    real = pickands._pwl

    def spy(ts, vs, *rest, **kwargs):
        seen.append((ts, vs))
        return real(ts, vs, *rest, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(pickands, "_pwl", spy)
        df = build()
    if df.exact is not None:
        assert not seen
        return df, df.edges, reference.exact_piece_slopes(df)
    ((ts, vs),) = seen
    return df, ts, np.diff(vs) / np.diff(ts)


def _assert_deriv_matches_retired(df, ts, slopes):
    retired = retired_pwl_deriv(ts, slopes)
    rng = make_rng(0, 0xD1)
    lo, half = ts[:-1, None], 0.5 * np.diff(ts)[:, None]
    inputs = [
        ts,
        np.array([0.0, -0.0, 1.0]),
        np.asarray(0.5),
        rng.random(10**4),
        lo + half * (1.0 + numerics._NODES),  # (panels x 15), as the quadrature asks
        np.array([np.nan]),
        np.array([-np.inf, -0.5, -1e-300, 1.0 + 1e-16, 1.5, np.inf]),
    ]
    for t in inputs:
        for side in ("left", "right"):
            assert np.array_equal(df.deriv_fn(t, side), retired(t, side)), (t, side)


KNOT_FUNCTIONS = {
    "mo(0,0.3)": lambda: mo_dependence(0.0, 0.3),
    "gumbel(1)": lambda: gumbel_dependence(1.0),
    "mo_kink_1e-13_from_0": lambda: mo_dependence(1e-13, 1.0),
    "mo_kink_1e-13_from_1": lambda: mo_dependence(1.0, 1e-13),
    "mo_kink_2e-12_from_0": lambda: mo_dependence(2e-12, 1.0),
    "mo_kink_2e-12_from_1": lambda: mo_dependence(1.0, 2e-12),
    "mo(0.5,0.5)": lambda: mo_dependence(0.5, 0.5),
    "mo(0.3,0.8)": lambda: mo_dependence(0.3, 0.8),
    "knots_1e-13_from_ends": lambda: pickands._pwl(
        np.array([0.0, 1e-13, 0.5, 1.0 - 1e-13, 1.0]),
        np.array([1.0, 1.0 - 1e-13, 0.75, 1.0 - 1e-13, 1.0]),
        "piecewise_linear",
        {},
    ),
    "tangent(0.3,0.2)": lambda: pareto_dependence(0.3, 0.2),
    "tangent(0.25,0.25)": lambda: pareto_dependence(0.25, 0.25),
    "tangent(1,0)": lambda: pareto_dependence(1.0, 0.0),
    "comonotone(0.5,0.5)": lambda: pareto_dependence(0.5, 0.5),
    **{f"random_knots_{s}": (lambda s=s: _random_convex_pwl(make_rng(s, 5))) for s in range(6)},
    **{f"knots_on_grid_{s}": (lambda s=s: _hull_on_grid(s, 2 + 3 * s)) for s in range(3)},
}


@pytest.mark.parametrize("name", sorted(KNOT_FUNCTIONS))
def test_pwl_deriv_matches_retired_index(name, monkeypatch):
    _assert_deriv_matches_retired(*_built_with_knots(KNOT_FUNCTIONS[name], monkeypatch))


@pytest.mark.parametrize(
    "source",
    [
        lambda: mo_dependence(0.3, 0.8),
        lambda: mo_dependence(0.5 * (0.5 + 1e-12) / (0.5 - 1e-12), 0.5),
        lambda: pareto_dependence(0.3, 0.2),
        lambda: gumbel_dependence(2.0),
        lambda: _corpus_member("piecewise_linear"),
        lambda: _corpus_member("mixture"),
    ],
)
def test_pwl_deriv_matches_retired_index_after_csv_roundtrip(source, tmp_path, monkeypatch):
    path = tmp_path / "knots.csv"
    write_knots_csv(path, source())
    _assert_deriv_matches_retired(*_built_with_knots(lambda: read_knots_csv(path), monkeypatch))


def test_split_points_match_retired_slope_rule_on_corpus(monkeypatch):
    # the rule reads the knots a knot function passes to _pwl, and for an MO or tangent
    # build the knots of the guards it kept before, which drop no kink of the corpus's draws
    pairs = []
    real = pickands._pwl

    def spy(ts, vs, *rest, **kwargs):
        df = real(ts, vs, *rest, **kwargs)
        pairs.append((df.split_points, retired_split_points(ts, vs)))
        return df

    def family_spy(build, retired):
        def spied(*params):
            df = build(*params)
            pairs.append((df.split_points, retired_split_points(*retired(*df.exact))))
            return df

        return spied

    monkeypatch.setattr(pickands, "_pwl", spy)
    monkeypatch.setattr(bounds_mod, "mo_dependence", family_spy(mo_dependence, retired_mo_knots))
    monkeypatch.setattr(bounds_mod, "pareto_dependence", family_spy(pareto_dependence, retired_tangent_knots))
    dependence_corpus(600, 3)
    assert len(pairs) > 500 and sum(len(new) for new, _ in pairs) > 1000
    for new, old in pairs:
        assert new == old


def _bits(*xs):
    return tuple(float(x).hex() for x in xs)


def _unvalidated(a_half):
    """A through (0, 1), (1/2, a_half), (1, 1): outside the band, or NaN, at t = 1/2."""
    ts, vs = np.array([0.0, 0.5, 1.0]), np.array([1.0, a_half, 1.0])
    return _pwl(ts, vs, "piecewise_linear", {})


def test_reads_at_half_match_checked_reads():
    corpus_mixture = _corpus_member("mixture")
    # lambda clipped from above and from below; a NaN, which the retired reads
    # passed on as lambda, now raises at t = 1/2
    invalid = [_unvalidated(0.4), _unvalidated(1.1)]
    for read in (lambda_upper, reference.tangent_at_half):
        with pytest.raises(NonFiniteError, match=r"at t=0\.5"):
            read(_unvalidated(np.nan))
    mixes = [
        mix(mo_dependence(0.5, 0.5), gumbel_dependence(2.0), 0.3),
        mix(pareto_dependence(0.3, 0.2), mo_dependence(0.2, 0.9), 0.7),
        mix(gumbel_dependence(1.0), gumbel_dependence(1e12), 0.5),
        mix(mo_dependence(0.0, 0.3), pareto_dependence(0.5, 0.5), 1.0),
        mix(mo_dependence(1.0, 1.0), _corpus_member("piecewise_linear"), 0.0),
        mix(mix(mo_dependence(0.4, 0.6), gumbel_dependence(50.0), 0.2), corpus_mixture, 0.6),
    ]
    for df in dependence_corpus(600, 3) + mixes + invalid:
        lam = lambda_upper(df)
        a, b = reference.tangent_at_half(df)
        assert type(lam) is float and type(a) is float and type(b) is float
        assert _bits(lam) == _bits(retired_lambda_upper(df)), df
        assert _bits(a, b) == _bits(*retired_tangent_at_half(df)), df


# ---------------------------------------------------------------------------
# knot validation: the folded band check against the shared one
# ---------------------------------------------------------------------------


def retired_structural_report(ts, vs):
    """The knot check as it was, through the band check it shared with ``validate``."""
    ends = ((float(ts[0]), 0.0), (float(ts[-1]), 1.0))
    bad = [(t, "domain", abs(t - e)) for t, e in ends if abs(t - e) > 1e-9]
    probe = np.union1d(ts, [0.5])
    bad += reference._band_violations(probe, np.interp(probe, ts, vs))
    w = (ts[1:-1] - ts[:-2]) / (ts[2:] - ts[:-2])
    above = vs[1:-1] - (vs[:-2] + w * (vs[2:] - vs[:-2]))
    for i in np.flatnonzero(above > 1e-9):
        bad.append((float(ts[i + 1]), "convexity", float(above[i])))
    return pickands.ValidationReport(valid=not bad, violations=tuple(bad))


def test_structural_report_matches_shared_band_check():
    # finite, strictly increasing knots, as piecewise_linear_dependence passes
    # them: ends on or off (0, 1) and (1, 1), values in and out of the band,
    # 0.5 a knot or not, and over 50 violations of one kind
    for i in range(400):
        rng = make_rng(47, i)
        k = int(rng.choice([2, 3, 5, 9, 120]))
        ts = np.sort(rng.choice(np.concatenate([rng.random(2 * k), [0.5]]), k, replace=False))
        if rng.random() < 0.7:
            ts[0], ts[-1] = 0.0, 1.0
        vs = np.maximum(ts, 1.0 - ts) + rng.uniform(-0.1, 0.6, k) * rng.random()
        if rng.random() < 0.5:
            vs[0], vs[-1] = 1.0, 1.0
        assert pickands._structural_report(ts, vs) == retired_structural_report(ts, vs), i


# ---------------------------------------------------------------------------
# MO and tangent kinks and exact slopes against the retired guards
# ---------------------------------------------------------------------------


def retired_mo_knots(alpha, beta):
    """The knot arrays ``mo_dependence`` built as it was, with its own guard on the kink."""
    tstar = alpha / (alpha + beta) if alpha + beta > 0.0 else 0.0
    if alpha == 0.0 or beta == 0.0 or not 1e-12 < tstar < 1.0 - 1e-12:
        return np.transpose([(0.0, 1.0), (1.0, 1.0)])
    return np.transpose([(0.0, 1.0), (tstar, 1.0 - alpha * beta / (alpha + beta)), (1.0, 1.0)])


def retired_tangent_knots(a, b):
    """The knot arrays ``pareto_dependence`` built as it was, with its own guards on both kinks."""
    if a + b >= 1.0:
        return np.transpose(pickands.ENVELOPE_KNOTS)
    nu = a - b
    knots = [(0.0, 1.0)]
    tp = a / (1.0 + nu)
    tq = (1.0 - a) / (1.0 - nu)
    if tp > 1e-12:
        knots.append((tp, 1.0 - tp))
    if tq < 1.0 - 1e-12 and tq - tp > 1e-12:
        knots.append((tq, tq))
    knots.append((1.0, 1.0))
    return np.transpose(knots)


def retired_write_knots_csv(path, df):
    """The knot writer as it was: one formatted line per knot."""
    grid = np.union1d(np.linspace(0.0, 1.0, 257), np.asarray(df.split_points))
    vals = df(grid)
    with open(path, "w", newline="") as fh:
        fh.write("t,A\n")
        for t, v in zip(grid, vals):
            fh.write(f"{t:.17g},{v:.17g}\n")


_EPS = np.finfo(float).eps
# kinks at, just inside and just outside 1e-12 of either end, and in the middle
EDGE_VALUES = (
    0.0, 1e-300, 1e-15, 1e-13, 1e-12 * (1.0 - _EPS), 1e-12, 1e-12 * (1.0 + 2.0 * _EPS), 2e-12,
    1e-9, 0.1, 0.25, 0.3, 0.5, 0.7, 0.9, 1.0 - 1e-12, 1.0 - 1e-13, 1.0,
)


def _edge_pairs():
    """Every pair of edge values, 300 random pairs, and pairs whose sum is within 1e-11 of 1."""
    rng = make_rng(0, 0xED6E)
    pairs = [(a, b) for a in EDGE_VALUES for b in EDGE_VALUES]
    pairs += [tuple(rng.random(2).tolist()) for _ in range(300)]
    firsts = (*EDGE_VALUES, *rng.random(20).tolist())
    gaps = (-1e-12, -1e-13, -1e-15, 0.0, 1e-15, 1e-13, 1e-12, 5e-12, 1e-11)
    return pairs + [(a, 1.0 - a - d) for a in firsts for d in gaps]


def _exact_kinks(df):
    """Each kink t of an MO or tangent function mapped to A(t), by the closed forms of the kink."""
    if df.family == "marshall_olkin":
        alpha, beta = df.params["alpha"], df.params["beta"]
        s = alpha + beta or 1.0
        return {alpha / s: 1.0 - alpha * beta / s}
    a, b = df.params["a"], df.params["b"]
    if a + b >= 1.0:
        return {0.5: 0.5}
    tp, tq = a / (1.0 + (a - b)), (1.0 - a) / (1.0 - (a - b))
    return {tp: 1.0 - tp, tq: tq}


def _same_bits(x, y):
    x, y = np.ascontiguousarray(x, dtype=float), np.ascontiguousarray(y, dtype=float)
    return x.shape == y.shape and x.tobytes() == y.tobytes()


@pytest.mark.parametrize(
    "build, retired",
    [(mo_dependence, retired_mo_knots), (pareto_dependence, retired_tangent_knots)],
    ids=["mo", "tangent"],
)
def test_family_knots_match_retired_guards(build, retired):
    t = np.linspace(0.0, 1.0, 1001)
    built = kept = 0
    for a, b in _edge_pairs():
        try:
            df = build(a, b)
        except ParamOutOfRangeError:  # b past its range; the check is not under test
            continue
        built += 1
        # the guards dropped a kink within 1e-12 of an end or of the other kink: it is now a
        # split point at its exact t, and each kink they kept is one, bit for bit
        old = set(retired(*df.exact)[0][1:-1].tolist())
        assert old <= set(df.split_points) <= set(_exact_kinks(df)), (a, b)
        kept += len(df.split_points) > len(old)
        # A' is the exact slope of each piece, read by the retired index over the edges,
        # and it never falls, so a panel whose ends agree in A' is linear
        slopes = reference.exact_piece_slopes(df)
        assert np.all(slopes[:-1] <= slopes[1:]), (a, b)
        exact = retired_pwl_deriv(df.edges, slopes)
        for side in ("left", "right"):
            assert _same_bits(df.deriv_fn(t, side), exact(t, side)), (a, b, side)
        # every kink declared: rho and tau within a few ulps of the closed form
        closed = mo_closed_form(*df.exact) if df.family == "marshall_olkin" else None
        rho, tau = (closed.rho, closed.tau) if closed else pareto_closed_form(*df.exact)
        assert abs(rho_numeric(df) - rho) <= 4e-15, (a, b, rho_numeric(df) - rho)
        assert abs(tau_numeric(df) - tau) <= 4e-15, (a, b, tau_numeric(df) - tau)
    assert built > 600 and kept > 50


def test_knot_writer_matches_per_row_writer(tmp_path):
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    for df in [
        gumbel_dependence(1.03),
        mo_dependence(0.3, 0.7),
        mo_dependence(1e-13, 0.2),
        pareto_dependence(0.3, 0.2),
        pareto_dependence(0.5, 0.5),
        *dependence_corpus(50, 7),
    ]:
        write_knots_csv(new, df)
        retired_write_knots_csv(old, df)
        assert new.read_bytes() == old.read_bytes(), df


@pytest.mark.parametrize("build", [mo_dependence, pareto_dependence], ids=["mo", "tangent"])
def test_kinks_that_bend_a_by_under_1e_15_put_their_atoms_on_jump_curves(build):
    # at a + b = 1 - 1e-15 the tangent kink t_P bends A by about 7e-16, less than the bulge
    # that makes a knot file's knot a split point; as an MO or tangent kink it is one, so the
    # sampler's atom lands exactly on its jump curve (9 tangent builds here missed it by up
    # to 7.6e-15 when it was only a knot)
    built = 0
    for a, b in _edge_pairs():
        if b != 1.0 - a - 1e-15:
            continue
        try:
            df = build(a, b)
        except ParamOutOfRangeError:  # b past its range; the check is not under test
            continue
        built += 1
        assert set(df.split_points) <= set(_exact_kinks(df)), (a, b)
        assert_matches_bisection(copula_from_pickands(df), 300, 1)
    assert built >= 35


@pytest.mark.parametrize("alpha, beta", [(1e-13, 0.2), (0.2, 1e-13)])
def test_collapsed_mo_kink_stays_within_the_absolute_tolerance(alpha, beta):
    # the kink lies within 1e-12 of an end, yet it is a knot and a split point, so
    # tau_numeric takes its atom: tau is about 1e-13, and it lands within 1e-15 of it
    df = mo_dependence(alpha, beta)
    assert df.split_points == (alpha / (alpha + beta),)
    assert abs(tau_numeric(df) - mo_closed_form(alpha, beta).tau) <= 1e-15


# ---------------------------------------------------------------------------
# split points as one array, knot builds without union1d, sampler table nodes
# in one linspace: each against the path it replaced
# ---------------------------------------------------------------------------

# (points, accepted by the per-point check, accepted now); the two differ only
# on objects that are real numbers to ``numbers.Real`` but not to numpy
# (Fraction), and on 0-d arrays, which numpy reads as numbers
_SPLIT_POINTS = {
    "empty": ((), True, True),
    "tuple": ((0.25, 0.75), True, True),
    "list": ([0.5], True, True),
    "array": (np.array([0.2, 0.4, 0.9]), True, True),
    "generator": ((0.3, 0.6), True, True),  # passed as a fresh iterator to each check
    "numpy scalars": ((np.float32(0.25), np.float64(0.5), np.longdouble(0.75)), True, True),
    "gumbel(1.5)": (gumbel_dependence(1.5).split_points, True, True),
    "True": ((True,), False, False),
    "False": ((False,), False, False),
    "np.True_": ((np.True_,), False, False),
    "string point": (("0.5",), False, False),
    "letter": (("a",), False, False),
    "string": ("ab", False, False),
    "None point": ((None,), False, False),
    "None": (None, False, False),
    "scalar": (0.5, False, False),
    "NaN": ((np.nan,), False, False),
    "numpy NaN": ((np.float64("nan"),), False, False),
    "inf": ((np.inf,), False, False),
    "-inf": ((-np.inf,), False, False),
    "zero": ((0.0,), False, False),
    "one": ((1,), False, False),
    "above one": ((1.5,), False, False),
    "complex": ((0.5 + 0j,), False, False),
    "Decimal": ((Decimal("0.5"),), False, False),
    "ragged": ([[0.2, 0.3]], False, False),
    "column": (np.array([[0.2], [0.3]]), False, False),
    "out of order": ((0.6, 0.4), False, False),
    "repeated": ((0.3, 0.3), False, False),
    "Fraction": ((Fraction(1, 2),), True, False),
    "0-d array": ((np.array(0.5),), False, True),
}


def _accepts(check, points):
    try:
        return check(points)
    except ParamOutOfRangeError:
        return None


@pytest.mark.parametrize("name", list(_SPLIT_POINTS))
def test_split_point_check_matches_per_point_check(name):
    points, retired_accepts, accepts = _SPLIT_POINTS[name]
    given = (lambda: iter(points)) if name == "generator" else (lambda: points)
    old = _accepts(reference.retired_split_edges, given())
    new = _accepts(check_split_points, given())
    assert (old is not None, new is not None) == (retired_accepts, accepts)
    if old is not None and new is not None:
        assert new.dtype == np.float64 and _same_bits(new, old)


def _clustered_knots(rng, k):
    """k nondecreasing t from 0 to 1, often 1e-12 or less from a neighbour or from 1.

    Near 0 the gaps are exact, so some knot sits exactly 1e-12 past the one
    before it; 1 - 1e-12 is exactly 1e-12 below the last knot.
    """
    gaps = rng.choice([0.0, 1e-13, 1e-12, 2e-12, 1e-3, 0.1, 0.3], k - 1)
    ts = np.minimum(np.concatenate([[0.0], np.cumsum(gaps)]), 1.0)
    ts[-1] = 1.0
    if rng.random() < 0.5:
        ts[-2] = 1.0 - rng.choice([0.0, 1e-13, 1e-12, 2e-12])
    return np.sort(ts)


def exact_pieces(kinks, slopes) -> tuple:
    """The split points and slopes that stay of pieces with no tolerance, piece by piece.

    Piece i runs from the kink before it (or 0) to kink i (or 1) and stays if
    it is wider than 0; the kink that ends each piece that stays, but the
    last, is a split point.  A -0.0 slope is 0.0.
    """
    edges = [0.0, *kinks, 1.0]
    kept = [i for i in range(len(slopes)) if edges[i + 1] > edges[i]]
    return tuple(edges[i + 1] for i in kept[:-1]), [slopes[i] + 0.0 for i in kept]


def test_knot_builds_match_union1d_paths():
    band_loops = 0
    for i in range(1000):
        # the corpus draw, whose knots _pwl_max builds against the envelope
        df = _random_convex_pwl(make_rng(61, i))
        old = piecewise_linear_dependence(reference.retired_random_convex_knots(make_rng(61, i)))
        assert _same_bits(np.array(df.params["knots"]), np.array(old.params["knots"])), i
        assert df.split_points == old.split_points, i

        # two functions with shared knots and crossings
        rng = make_rng(67, i)
        shared = rng.random(int(rng.integers(0, 4)))
        ta = np.unique(np.concatenate([[0.0, 1.0], shared, rng.random(int(rng.integers(0, 6)))]))
        tb = np.unique(np.concatenate([[0.0, 1.0], shared, rng.random(int(rng.integers(0, 6)))]))
        va, vb = rng.random(len(ta)), rng.random(len(tb))
        new = pickands._pwl_max(ta, va, tb, vb)
        old = reference.retired_pwl_max(ta, va, tb, vb)
        assert all(_same_bits(x, y) for x, y in zip(new, old)), i

        # clustered kinks, some at 0, at 1 or at the kink before them: their pieces have no width
        kinks = _clustered_knots(rng, int(rng.integers(2, 12)))[1:-1].tolist()
        r = rng.random(len(kinks) + 2)[1:]
        slopes = np.where(r < 0.2, -0.0, r - 0.5).tolist()
        df = pickands._pieces("piecewise_linear", {}, np.ones_like, kinks, slopes)
        points, kept = exact_pieces(kinks, slopes)
        assert df.split_points == points, i
        mid = 0.5 * (df.edges[:-1] + df.edges[1:])
        assert all(_same_bits(df.deriv_fn(mid, side), kept) for side in ("left", "right")), i

        # knots in and out of the band, as in the shared band check's test
        k = int(rng.choice([2, 3, 5, 9, 120]))
        ts = np.sort(rng.choice(np.concatenate([rng.random(2 * k), [0.5]]), k, replace=False))
        if rng.random() < 0.7:
            ts[0], ts[-1] = 0.0, 1.0
        vs = np.maximum(ts, 1.0 - ts) + rng.uniform(-0.1, 0.6, k) * rng.random()
        if rng.random() < 0.5:
            vs[0], vs[-1] = 1.0, 1.0
        report = pickands._structural_report(ts, vs)
        assert report == reference.retired_union_structural_report(ts, vs), i
        kinds = {kind for _, kind, _ in report.violations}
        band_loops += bool(kinds & {"envelope", "upper_bound"})
    assert band_loops > 300


def test_phi_table_keeps_curved_panels_and_the_ends_of_linear_ones():
    # theta < 2 has 42 panels between its graded split points, none of them linear
    nodes = montecarlo._PANEL_NODES
    gumbels = [gumbel_dependence(theta) for theta in (1.03, 1.5, 2.0)]
    for df in [*dependence_corpus(300, 11), *gumbels]:
        with np.errstate(divide="ignore"):  # m = -ln 0 = inf on a piece where A = t
            q, psi, m, slope = montecarlo._phi_table(df)
            old = reference.retired_phi_table(df)
        k = linear = 0  # k: the first node of panel p in the new table
        for p in range(len(df.split_points) + 1):
            rows = np.arange(p * nodes, (p + 1) * nodes)
            if not np.isnan(slope[k]):
                rows, linear = rows[[0, -1]], linear + 1
            else:  # a curved panel: secant steps in each of its cells
                assert np.isnan(slope[k : k + nodes - 1]).all(), (df, p)
            for new, ref in zip((q, psi, m), old):
                assert _same_bits(new[k : k + len(rows)], ref[rows]), (df, p)
            k += len(rows)
            assert slope[k - 1] == np.inf, (df, p)  # the zero-width cell to the next panel, or q = inf
        assert len(q) == 1 << (k - 1).bit_length(), df  # then the node at q = inf, repeated
        for new in (q, psi, m):
            assert _same_bits(new[k:], np.full(len(q) - k, new[k - 1])), df
        if df.family in ("marshall_olkin", "pareto"):
            assert linear == len(df.split_points) + 1, df
        if any(df is g for g in gumbels):
            assert linear == 0, df


LINEAR_CASES = ("mo(1e-13,0.5)", "mo(1-1e-13,0.5)", "tangent(0.6,0.4-1e-13)", "mix(corpus_pwl,mo(0.3,0.8))")


def test_phi_is_the_line_of_each_linear_table_cell():
    # phi is summed from x (A - 1 + A q) and -ln(A - t A'), so it rounds to about eps times
    # x (1 + q) + (A + t |A'|) / (A - t A'); x psi alone cancels to 0 on a piece A = 1 - t.
    # The worst seen is 22 of those ulps, in a panel with a knot less than 1e-15 off its chord
    eps = np.finfo(float).eps
    cells = 0
    for df in [*dependence_corpus(300, 11), *(COPULAS[name]() for name in LINEAR_CASES)]:
        with np.errstate(divide="ignore"):  # m = -ln 0 = inf on a piece where A = t
            q, psi, m, slope = montecarlo._phi_table(df)
        for j in np.flatnonzero(~np.isnan(slope[:-1])):
            a, b = q[j], q[j + 1]
            if a == b or np.isinf(m[j]):  # a jump, or phi = inf on the cell: no pair lands in it
                continue
            if np.isinf(b):
                qs = a + (1.0 + a) * np.array([0.5, 4.0, 1e3])
            else:
                qs = a + (b - a) * np.array([0.25, 0.5, 0.75])
            t = qs / (1.0 + qs)
            A, dA = df.eval_fn(t), df.deriv_fn(t, "left")
            if np.isinf(slope[j]):  # a piece A = t: phi jumps to inf past a
                with np.errstate(divide="ignore"):
                    assert np.all(A - t * dA <= 0.0) and np.isinf(m[j + 1]), (df, j)
                continue
            for x in (1e-3, 0.7, 30.0):
                phi = montecarlo._phi(df, x, qs)
                assert np.isfinite(phi).all(), (df, j, x)
                fa = x * psi[j] + m[j]
                lines = [fa + x * slope[j] * (qs - a)]  # the line _invert solves
                if np.isfinite(b):
                    fb = x * psi[j + 1] + m[j + 1]
                    lines.append(fa + (fb - fa) * (qs - a) / (b - a))
                ulp = eps * (x * (1.0 + qs) + (A + t * np.abs(dA)) / (A - t * dA))
                for line in lines:
                    assert np.all(np.abs(phi - line) <= 32.0 * ulp), (df, j, x, phi - line)
            cells += 1
    assert cells > 700


@pytest.mark.parametrize(
    "name", ["mix(gumbel(1e3),mo(0.3,0.8))", "mo(0.3,0.8)", "tangent(0.3,0.2)", *LINEAR_CASES]
)
def test_linear_cells_take_no_secant_step(name, monkeypatch):
    # the Gumbel mixture has linear panels around its curved middle.  A kink within 1e-12 of an
    # end or of another kink is a split point too, so every panel of mo(1e-13,0.5) is linear
    slope = montecarlo._phi_table(COPULAS["mo(1e-13,0.5)"]())[3]
    assert not np.isnan(slope).any()
    df = COPULAS[name]()
    with np.errstate(divide="ignore"):  # m = -ln 0 = inf on a piece where A = t
        q, _, _, slope = montecarlo._phi_table(df)
    cells = np.flatnonzero(np.isfinite(slope[:-1]) & (q[1:] > q[:-1]))
    assert cells.size
    steps = []
    phi = montecarlo._phi

    def counted(df, x, c):
        steps.append(np.asarray(c, dtype=float))
        return phi(df, x, c)

    monkeypatch.setattr(montecarlo, "_phi", counted)
    sample_generic(copula_from_pickands(df), 20000, 0)
    c = np.concatenate([np.empty(0), *steps])
    assert not ((q[cells] < c[:, None]) & (c[:, None] < q[cells + 1])).any()
    if not np.isnan(slope).any():
        assert not steps


@pytest.mark.parametrize(
    "name, size",
    [("mo(1e-13,0.5)", 4), ("mo(0.5,1e-13)", 4), ("tangent(0.6,0.4-1e-13)", 8), ("tangent(5e-14,5e-14)", 8)],
)
def test_kinks_near_the_edges_are_split_points(name, size):
    # every kink of A is a split point, however near an end or the other kink, so each
    # panel is linear: two table nodes a panel, padded to a power of two, and no curved cell
    df = COPULAS[name]()
    knots = sorted(k for k in _exact_kinks(df) if 0.0 < k < 1.0)
    assert df.split_points == tuple(knots)
    with np.errstate(divide="ignore"):  # m = -ln 0 = inf on a piece where A = t
        q, _, _, slope = montecarlo._phi_table(df)
    assert len(q) == size and not np.isnan(slope).any()


def test_linear_cell_root_is_clamped_to_its_cell():
    # phi = 0 at q = 0 and 1e-15 at q = 1 by rounding, on a cell of slope 0: the root is past
    # q = 1, and a division alone would put it at inf.  The curved cell after it is narrower
    # than the v tolerance, so its root is its lower end with no secant step and no read of
    # phi; the last cell has slope 1
    b = 1.0 + 1e-14
    q = np.array([0.0, 1.0, b, np.inf])
    psi = np.array([0.0, 0.0, 0.0, np.inf])
    m = np.array([0.0, 1e-15, 1.0, np.inf])
    slope = np.array([0.0, np.nan, 1.0, np.inf])
    x, e = np.full(3, 0.5), np.array([1e-16, 0.5, 2.0])
    out = montecarlo._invert(mo_dependence(0.3, 0.8), (q, psi, m, slope), x, e)
    assert out[0] == 1.0
    assert out[1] == 1.0
    assert out[2] == b - (1.0 - 2.0) / 0.5


@pytest.mark.parametrize("theta", (1.0001, 1.03, 1.5, 2.0, 5.0, 50.0))
def test_curved_cells_keep_the_bits_of_the_retired_inversion(theta, monkeypatch):
    # theta = 50's end panels test linear, A being 1 - t and t there to the last bit: phi is
    # flat on the first and inf past the start of the last, so no pair lands in either
    cop = copula_from_pickands(gumbel_dependence(theta))
    new = [sample_generic(cop, 20000, seed) for seed in (0, 1)]
    monkeypatch.setattr(montecarlo, "_phi_table", reference.retired_phi_table)
    monkeypatch.setattr(montecarlo, "_invert", reference.retired_invert)
    for seed, batch in zip((0, 1), new):
        old = sample_generic(cop, 20000, seed)
        assert _same_bits(batch.u, old.u) and _same_bits(batch.v, old.v), seed


def test_cli_gumbel_sample_keeps_the_bytes_of_the_retired_inversion(monkeypatch, capsys):
    argv = ["sample", "--family", "gumbel", "--theta", "2", "-n", "20000", "--seed", "1"]
    assert main(argv) == 0
    new = capsys.readouterr().out
    monkeypatch.setattr(montecarlo, "_phi_table", reference.retired_phi_table)
    monkeypatch.setattr(montecarlo, "_invert", reference.retired_invert)
    assert main(argv) == 0
    assert capsys.readouterr().out == new
