"""Sampling from extreme value copulas and empirical coefficient estimation.

Marshall-Olkin pairs come from the exact common-shock construction: with
independent exponentials E1, E2, E12 at rates (1-alpha)/alpha,
(1-beta)/beta and 1, the survival transforms of
(min(E1, E12), min(E2, E12)) are uniform and jointly follow the MO copula.
Any other EV copula is sampled by inverting its conditional distribution
v -> dC/du(u, v); the inversion is jump-aware, which captures the singular
mass of kinked families.

All randomness flows through the Philox streams of :mod:`evcopula.rng` and
only uniform draws are consumed, so batches are bit-reproducible from
(seed, generator, n).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .copula import EvCopula
from .errors import DegenerateSampleError, ParamOutOfRangeError, check_int, check_real
from .pickands import check_mo
from .rng import make_rng


@dataclass(frozen=True)
class SampleBatch:
    """Immutable batch of (u, v) pairs plus generation metadata; ``n = len(u) == len(v)``."""

    u: np.ndarray
    v: np.ndarray
    seed: int
    generator: str

    def __post_init__(self):
        if len(self.u) != len(self.v):
            raise DegenerateSampleError(f"{len(self.u)} u values but {len(self.v)} v values")

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


def sample_generic(copula: EvCopula, n: int, seed: int) -> SampleBatch:
    """Sample any EV copula by conditional-distribution inversion.

    Draws (u, p) uniform and sets v to the generalized inverse
    ``inf{v : dC/du(u, v) >= p}``, computed by vectorized bisection; jumps
    of the conditional CDF become atoms of v, as required for families
    with a singular component.
    """
    n = check_int(n, "n", 1)
    rng = make_rng(seed, 0xB1)
    u = np.maximum(rng.random(n), 1e-300)
    p = rng.random(n)
    lu = np.log(u)
    lo = np.zeros(n)
    hi = np.ones(n)
    for _ in range(47):  # 2**-47 < 1e-13 domain resolution
        mid = 0.5 * (lo + hi)  # in (0, 1): partial_u's interior case, without its checks
        cdf = copula._partial_u_interior(lu, np.log(mid))
        ge = np.clip(cdf, 0.0, 1.0, out=cdf) >= p
        hi = np.where(ge, mid, hi)
        lo = np.where(ge, lo, mid)
    label = f"generic({copula.dependence.family})"
    return SampleBatch(u, hi, seed, label)


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------


def _run_starts(xs: np.ndarray) -> np.ndarray:
    """Mask of the first item of each run of equal values in ``xs``."""
    starts = np.empty(len(xs), dtype=bool)
    starts[0] = True
    np.not_equal(xs[1:], xs[:-1], out=starts[1:])
    return starts


def _average_ranks(x: np.ndarray) -> np.ndarray:
    order = np.argsort(x, kind="stable")
    group = np.cumsum(_run_starts(x[order])) - 1
    counts = np.bincount(group)
    ends = np.cumsum(counts)
    starts = ends - counts
    mean_rank = (starts + ends + 1) / 2.0  # 1-based average rank per group
    ranks = np.empty(len(x))
    ranks[order] = mean_rank[group]
    return ranks


def _count_strict_inversions(a: np.ndarray) -> int:
    """Number of pairs i < j with a[i] > a[j], by blocked merge counting."""
    n = len(a)
    block = 64
    m = -(-n // block)
    padded = np.full(m * block, np.inf)
    padded[:n] = a
    x = padded.reshape(m, block)
    iu, ju = np.triu_indices(block, k=1)
    inv = 0
    chunk = 64  # rows per in-block comparison: two 1 MB gathers
    for r in range(0, m, chunk):
        rows = x[r : r + chunk]
        inv += int(np.count_nonzero(rows[:, iu] > rows[:, ju]))
    x = np.sort(x, axis=1)
    flat = x.ravel()
    width = block
    while width < m * block:
        for start in range(0, m * block, 2 * width):
            left = flat[start : start + width]
            right = flat[start + width : start + 2 * width]
            if right.size == 0:
                continue
            # elements of the sorted left half strictly above each right element
            inv += int(
                (width - np.searchsorted(left, right, side="right")).sum()
            )
            flat[start : start + 2 * width] = np.sort(
                flat[start : start + 2 * width], kind="stable"
            )
        width *= 2
    return inv


def _tied_pairs(starts: np.ndarray) -> int:
    """Pairs within runs of a sorted sequence; ``starts`` marks each run's first item."""
    counts = np.diff(np.append(np.flatnonzero(starts), len(starts)))
    return int((counts * (counts - 1) // 2).sum())


def kendall_tau_stat(u: np.ndarray, v: np.ndarray) -> float:
    """Kendall's tau-a: (concordant - discordant) / (n choose 2).

    O(n log n): sort by (u, v) and merge-count strict inversions of v,
    then correct for tied pairs (ties count as neither concordant nor
    discordant), counted exactly from runs of equal sorted values.
    """
    n = len(u)
    if n < 2 or len(v) != n:
        raise DegenerateSampleError(f"need two or more (u, v) pairs, got {n} u and {len(v)} v")
    if np.isnan(u).any() or np.isnan(v).any():
        raise DegenerateSampleError("Kendall's tau is undefined for NaN coordinates")
    order = np.lexsort((v, u))
    vs = v[order]
    discordant = _count_strict_inversions(vs)
    n0 = n * (n - 1) // 2
    # ties: runs of u in the (u, v) order, runs of (u, v) within those, runs of sorted v
    u_starts = _run_starts(u[order])
    ties_u = _tied_pairs(u_starts)
    ties_uv = _tied_pairs(u_starts | _run_starts(vs))
    ties_v = _tied_pairs(_run_starts(np.sort(v)))
    c_minus_d = n0 - ties_u - ties_v + ties_uv - 2 * discordant
    return c_minus_d / n0


def ks_statistic_uniform(x: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance of a sample to the uniform law on [0, 1].

    Raises :class:`DegenerateSampleError` for an empty sample or one with NaN.
    """
    xs = np.sort(x)
    n = len(xs)
    if n == 0 or np.isnan(xs[-1]):  # sorting puts NaN last
        raise DegenerateSampleError("the KS distance needs a non-empty sample without NaN")
    i = np.arange(1, n + 1)
    return float(max((i / n - xs).max(), (xs - (i - 1) / n).max()))


def empirical_coefficients(batch: SampleBatch, lambda_thresholds=(0.9, 0.95, 0.99)) -> EmpiricalCoefficients:
    """Rank-based rho, tau-a, Blomqvist beta, and tail estimates.

    The tail estimate uses the diagonal law of EV copulas:
    ``lambda_hat(t) = 2 - ln(C_n(t, t)) / ln(t)`` with the empirical copula
    C_n on normalized ranks, summarized at the largest threshold.
    """
    u, v = batch.u, batch.v
    n = batch.n
    if n < 10:
        raise DegenerateSampleError(f"need at least 10 pairs, got {n}")
    if np.ptp(u) == 0.0 or np.ptp(v) == 0.0:
        raise DegenerateSampleError("all values identical in one coordinate")
    thresholds = tuple(check_real(t, "lambda thresholds", 0.0, 1.0) for t in lambda_thresholds)
    if not thresholds or any(t in (0.0, 1.0) for t in thresholds):
        raise ParamOutOfRangeError("lambda thresholds must lie in (0, 1)")

    pu = _average_ranks(u) / (n + 1)
    pv = _average_ranks(v) / (n + 1)
    rho_hat = 12.0 * float(np.mean(pu * pv)) - 3.0
    tau_hat = kendall_tau_stat(u, v)
    beta_hat = float(np.mean(np.sign((u - np.median(u)) * (v - np.median(v)))))

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


def write_batch_csv(batch: SampleBatch, stream) -> None:
    """Write ``u,v`` rows at 17 significant digits with LF line endings."""
    row = "{:.17g},{:.17g}\n".format
    stream.write("u,v\n" + "".join(map(row, batch.u.tolist(), batch.v.tolist())))


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
    data = np.loadtxt(
        itertools.chain((first,), rows), delimiter=",", usecols=(0, 1), ndmin=2, comments=None
    )
    if not np.isfinite(data).all():
        raise DegenerateSampleError("coordinates must be finite numbers")
    u, v = data[:, 0], data[:, 1]
    if np.any((u < 0) | (u > 1) | (v < 0) | (v > 1)):
        raise DegenerateSampleError("coordinates must lie in [0, 1]")
    return SampleBatch(u, v, seed=-1, generator="file")
