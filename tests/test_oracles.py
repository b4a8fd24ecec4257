"""Retired code paths and direct formulas kept as oracles.

Each production path must reproduce its retired predecessor bit for bit:
the sampler's shared dC/du kernel against a 47-pass bisection over the
public ``partial_u``, the one-call CSV writer against the per-row writer,
the ``loadtxt`` reader against the line-split reader, and the run-based
Kendall tie counts against ``np.unique`` and an O(n^2) sign count.  The
by-parts Kendall tau integral of piecewise-linear dependence functions must
match the retired sum of Stieltjes atoms at their kinks.
"""

import io

import numpy as np
import pytest

from evcopula import (
    DegenerateSampleError,
    SampleBatch,
    copula_from_pickands,
    dependence_corpus,
    gumbel_dependence,
    kendall_tau_stat,
    mo_dependence,
    pareto_dependence,
    read_pairs_csv,
    sample_generic,
    tau_numeric,
    write_batch_csv,
)
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


def kink_atom_tau(df):
    """Stieltjes tau as a sum of kink atoms; exact when A'' = 0 between kinks."""
    return sum(
        t * (1.0 - t) * (df.deriv(t, "right") - df.deriv(t, "left")) / df(t)
        for t in df.split_points
    )


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
    "gumbel(1)": lambda: gumbel_dependence(1.0),
    "gumbel(2)": lambda: gumbel_dependence(2.0),
    "gumbel(50)": lambda: gumbel_dependence(50.0),
    "corpus_pwl": lambda: _corpus_member("piecewise_linear"),
    "corpus_mixture": lambda: _corpus_member("mixture"),
}


@pytest.mark.parametrize("name", list(COPULAS))
def test_sampler_and_writer_match_retired_paths(name):
    cop = copula_from_pickands(COPULAS[name]())
    for seed in SEEDS:
        for n in SIZES:
            batch = sample_generic(cop, n, seed)
            u, v = bisection_sample(cop, n, seed)
            assert np.array_equal(batch.u, u), (seed, n)
            assert np.array_equal(batch.v, v), (seed, n)
            new, old = io.StringIO(), io.StringIO()
            write_batch_csv(batch, new)
            write_rows(batch, old)
            assert new.getvalue() == old.getvalue(), (seed, n)


def test_writer_matches_per_row_writer_on_edge_values():
    x = np.array([0.0, 1.0, 1e-300, 5e-324, 2.0**-47, 1.0 - 2.0**-53, 0.1, 1.0 / 3.0])
    batch = SampleBatch(x, x[::-1].copy(), 0, "manual", len(x))
    new, old = io.StringIO(), io.StringIO()
    write_batch_csv(batch, new)
    write_rows(batch, old)
    assert new.getvalue() == old.getvalue()
    assert new.getvalue().splitlines()[4] == "4.9406564584124654e-324,7.1054273576010019e-15"


# ---------------------------------------------------------------------------
# Kendall tie counts and the 64-wide blocks
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
    # 64 blocks of 64 make one chunk of the in-block comparison
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
