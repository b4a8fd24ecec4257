"""Retired code paths and direct formulas kept as oracles.

The generic sampler must draw the same u, bit for bit, as the retired
47-pass bisection over the public ``partial_u``, and a v within 1e-12 of
it; the writer, reader and rank estimators must reproduce their retired
predecessors bit for bit: the chunked CSV writer against the per-row
writer, the ``loadtxt`` reader against the line-split reader, Kendall's tau
against ``np.unique`` tie counts and an O(n^2) sign count, and
``empirical_coefficients`` against the estimator that sorted each
coordinate for its ranks, lexsorted (u, v) and merge-counted block by
block.  The by-parts Kendall tau integral of piecewise-linear dependence
functions must match the retired sum of Stieltjes atoms at their kinks.
The t-space envelope check of ``verify_case`` must agree with the (u, v)-grid
``check_envelope`` it replaced.  The level-by-level quadrature must agree
with the retired heap integrator, which bisected the worst panel one call
of the integrand at a time, to twice the stated tolerance.
"""

import heapq
import io
import itertools

import numpy as np
import pytest

from evcopula import (
    DegenerateSampleError,
    EmpiricalCoefficients,
    NonConvergentError,
    NonFiniteError,
    SampleBatch,
    copula_from_pickands,
    dependence_corpus,
    empirical_coefficients,
    gumbel_dependence,
    kendall_tau_stat,
    mo_dependence,
    pareto_dependence,
    read_pairs_csv,
    rho_numeric,
    sample_generic,
    sample_mo,
    tau_numeric,
    write_batch_csv,
)
from evcopula import coefficients, montecarlo, numerics
from evcopula.bounds import _ENVELOPE_TOL, _envelope_in_t, check_envelope
from evcopula.coefficients import lambda_upper
from evcopula.pickands import _pwl
from evcopula.rng import make_rng

SEEDS = (0, 1, 2)
SIZES = (1, 2, 63, 64, 65, 257, 4097)


# ---------------------------------------------------------------------------
# retired code paths
# ---------------------------------------------------------------------------


def bisection_sample(copula, n, seed):
    """The generic sampler as it was: every pass calls the public partial_u."""
    rng = make_rng(seed, 0xB1)
    u = np.maximum(rng.random(n), 1e-300)
    p = rng.random(n)
    lo = np.zeros(n)
    hi = np.ones(n)
    for _ in range(47):
        mid = 0.5 * (lo + hi)
        ge = copula.partial_u(u, mid) >= p
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
    "gumbel(2)": lambda: gumbel_dependence(2.0),
    "gumbel(50)": lambda: gumbel_dependence(50.0),
    "gumbel(1e3)": lambda: gumbel_dependence(1e3),
    "gumbel(1e12)": lambda: gumbel_dependence(1e12),
    "corpus_pwl": lambda: _corpus_member("piecewise_linear"),
    "corpus_mixture": lambda: _corpus_member("mixture"),
}

# The table-bracketed inversion and the bisection both resolve v to 2**-47,
# but through different roundings of dC/du, so their v differ in the last
# bits; where dC/du is flat in v, that rounding moves either v further
# (to 2.3e-13 on the cases below).
V_TOL = 1e-12


def assert_matches_bisection(cop, n, seed):
    """u bit-equal to the bisection sampler's, and v within ``V_TOL``; returns the batch.

    A pair the bisection put on the jump curve v = u**q_k of a kink t_k,
    q_k = t_k / (1 - t_k), is an atom: its v must lie on that curve exactly.
    """
    batch = sample_generic(cop, n, seed)
    u, v = bisection_sample(cop, n, seed)
    assert np.array_equal(batch.u, u), (seed, n)
    assert np.abs(batch.v - v).max() <= V_TOL, (seed, n, np.abs(batch.v - v).max())
    df = cop.dependence
    for tk in df.split_points:
        if df.deriv(tk, "left") < df.deriv(tk, "right"):
            curve = u ** (tk / (1.0 - tk))
            atoms = np.abs(v - curve) <= 2.0**-46
            assert np.array_equal(batch.v[atoms], curve[atoms]), (seed, n, tk)
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
    assert np.all(cop.partial_u(batch.u, np.minimum(v + d, 1.0)) >= p - eps)
    inside = v > d
    assert np.all(cop.partial_u(batch.u[inside], v[inside] - d) <= p[inside] + eps)


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
    for i, n in enumerate((2, 7, 8, 9, 100, 4097)):
        w = make_rng(46, i).integers(0, n, n)
        assert montecarlo._inversions(w.astype(dtype)) == count_strict_inversions(w), n


def test_empirical_matches_retired_on_large_gumbel_sample():
    batch = sample_generic(copula_from_pickands(gumbel_dependence(2.0)), 200000, seed=0)
    assert empirical_coefficients(batch) == retired_empirical(batch)


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
    with pytest.raises(ValueError):
        read_pairs_csv(io.StringIO(text))


def test_reader_rejects_one_column_row_as_value_error():
    # the line-split reader failed here with an IndexError, which the CLI
    # did not catch; loadtxt reports a ValueError (CLI exit 2)
    with pytest.raises(IndexError):
        read_lines(io.StringIO("u,v\n0.1\n"))
    with pytest.raises(ValueError, match="column"):
        read_pairs_csv(io.StringIO("u,v\n0.1\n"))


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
    monkeypatch.setattr(coefficients, "integrate", heap_integrate)
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
    assert abs(numerics.integrate(f, split_points) - heap) <= _quad_tol(heap)


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
