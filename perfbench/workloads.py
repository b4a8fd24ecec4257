"""The benchmark's workloads: inputs made from a seed, the timed call, and
the checks on its output.

Call ``i`` of a run uses input ``i % cycle``, so every input is run again
within the run and each repeat must reproduce the first output byte for
byte.  Content checks run on the first output of each input; a repeat that
matches it by sha256 has passed them too.

Every tolerance is a formula in the sample size n, fixed in advance:

* KS_C: Kolmogorov critical value sqrt(ln(2 / alpha) / 2) at alpha = 1e-6
  per margin.  The 1% value 1.63 would flag a correct sampler in about one
  seed in fifty, and the benchmark runs on many seeds.
* TAU_C: the largest asymptotic standard deviation of sqrt(n) * tau_hat
  over EV copulas is 2/3 (independence); 5 is 7.5 of those.
* RHO_C: sqrt(n) * rho_hat has standard deviation 1 at independence and
  less under positive dependence; 7 is 7 of those.
"""

from __future__ import annotations

import hashlib
import math
import re

import numpy as np
from evcopula import bounds, cli, coefficients, copula, montecarlo
from evcopula.pickands import gumbel_dependence

KS_C = 2.69
TAU_C = 5.0
RHO_C = 7.0


def _ks_uniform(x):
    # the benchmark's own copy: montecarlo.ks_statistic_uniform is under test
    xs = np.sort(x)
    n = len(xs)
    i = np.arange(1, n + 1)
    return float(max((i / n - xs).max(), (xs - (i - 1) / n).max()))


class Workload:
    """One kind of closed-loop call.

    ``cycle`` is the number of distinct inputs; ``units_per_call`` counts
    the work a call does in the workload's unit, ``cases_per_call`` the
    dependence functions it handles and ``pairs_per_call`` the pairs it
    samples.
    """

    name = ""
    unit = ""
    outputs = ()  # files a call writes; removed after each check

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self._first = {}  # input index -> (digest, failed units)

    def prepare(self):
        """Compute reference values; runs before any timing."""

    def call(self, i):
        raise NotImplementedError

    def check(self, i, out):
        """Failed units of call ``i``, given what :meth:`call` returned.

        A failing call fails all its units, except that verify counts the
        cases its FAIL line names.
        """
        try:
            if out is None:
                return self.units_per_call
            digest = self._digest(out)
            j = i % self.cycle
            if j not in self._first:
                self._first[j] = (digest, self._check_content(j, out))
            first_digest, failed = self._first[j]
            return failed if digest == first_digest else self.units_per_call
        except (OSError, ValueError, KeyError):  # output missing or malformed
            return self.units_per_call
        finally:
            for path in self.outputs:
                path.unlink(missing_ok=True)


class Verify(Workload):
    """``evcopula verify`` on a seeded mixed-family corpus, 200x200 envelope grid."""

    name = "verify"
    unit = "cases"

    def __init__(self, seed, workdir, smoke):
        super().__init__(seed, workdir)
        self.k = 10 if smoke else 100
        self.cycle = 2 if smoke else 5
        self.units_per_call = self.cases_per_call = self.k
        self.pairs_per_call = 0
        self.out = workdir / "verify.txt"
        self.outputs = (self.out,)

    def _corpus_seed(self, j):
        return self.seed * self.cycle + j

    def call(self, i):
        return cli.main([
            "verify", "--n-random", str(self.k), "--seed", str(self._corpus_seed(i % self.cycle)),
            "--out", str(self.out), "--dump-knots", str(self.workdir / "violating.csv"),
        ])

    def _digest(self, rc):
        body = self.out.read_bytes() if self.out.exists() else b""
        return hashlib.sha256(str(rc).encode() + b"\n" + body).hexdigest()

    def _check_content(self, j, rc):
        if rc not in (0, 1) or not self.out.exists():
            return self.k
        lines = self.out.read_text().splitlines()
        head = f"verified {self.k} dependence functions (seed {self._corpus_seed(j)}, envelope grid 200)"
        if not lines or lines[0] != head:
            return self.k
        if rc == 0:
            return 0 if lines[-1] == "PASS: no violations" else self.k
        found = re.match(r"FAIL: (\d+) violation", lines[-1])
        return int(found.group(1)) if found else self.k


class SampleEstimate(Workload):
    """``evcopula sample`` (Gumbel theta = 2, generic sampler) then ``estimate``."""

    name = "sample_estimate"
    unit = "pairs"
    theta = 2.0

    def __init__(self, seed, workdir, smoke):
        super().__init__(seed, workdir)
        self.n = 2000 if smoke else 200_000
        self.cycle = 1
        self.units_per_call = self.pairs_per_call = self.n
        self.cases_per_call = 1
        self.csv = workdir / "pairs.csv"
        self.est = workdir / "estimate.csv"
        self.outputs = (self.csv, self.est)

    def prepare(self):
        self.rho_ref = coefficients.rho_numeric(gumbel_dependence(self.theta))
        self.tau_ref = 1.0 - 1.0 / self.theta

    def call(self, i):
        rc_sample = cli.main([
            "sample", "--family", "gumbel", "--theta", repr(self.theta), "-n", str(self.n),
            "--method", "generic", "--seed", str(self.seed), "--out", str(self.csv),
        ])
        rc_estimate = cli.main(["estimate", "--in", str(self.csv), "--out", str(self.est)])
        return rc_sample, rc_estimate

    def _digest(self, rcs):
        h = hashlib.sha256(repr(rcs).encode())
        for path in self.outputs:
            h.update(path.read_bytes() if path.exists() else b"<missing>")
        return h.hexdigest()

    def _check_content(self, j, rcs):
        if rcs != (0, 0):
            return self.units_per_call
        with open(self.csv) as fh:
            if fh.readline() != "u,v\n":
                return self.units_per_call
            pairs = np.loadtxt(fh, delimiter=",", ndmin=2)
        stats = dict(line.split(",") for line in self.est.read_text().splitlines()[1:])
        tol = 1.0 / math.sqrt(self.n)
        ok = (
            pairs.shape == (self.n, 2)
            and _ks_uniform(pairs[:, 0]) <= KS_C * tol
            and _ks_uniform(pairs[:, 1]) <= KS_C * tol
            and abs(float(stats["tau_hat"]) - self.tau_ref) <= TAU_C * tol
            and abs(float(stats["rho_hat"]) - self.rho_ref) <= RHO_C * tol
        )
        return 0 if ok else self.units_per_call


class McMany(Workload):
    """Library loop: build, sample and estimate many small corpus copulas.

    The cycle takes corpus draws in seeded order, keeping the first
    ``per_family`` of each family, so every seed sees the same family mix
    and the cost differences between families do not show as seed noise.
    """

    name = "mc_many"
    unit = "copulas"
    families = ("marshall_olkin", "pareto", "gumbel", "piecewise_linear", "mixture")

    def __init__(self, seed, workdir, smoke):
        super().__init__(seed, workdir)
        self.per_family = 1 if smoke else 40
        self.cycle = self.per_family * len(self.families)
        self.n = 500 if smoke else 2000
        self.units_per_call = self.cases_per_call = 1
        self.pairs_per_call = self.n

    def prepare(self):
        self.copula_seeds, self.tau_ref = [], []
        kept = dict.fromkeys(self.families, 0)
        draw = self.seed * 1_000_000
        while len(self.copula_seeds) < self.cycle:
            df = bounds.dependence_corpus(1, draw)[0]
            if kept[df.family] < self.per_family:
                kept[df.family] += 1
                self.copula_seeds.append(draw)
                self.tau_ref.append(coefficients.tau_numeric(df))
            draw += 1

    def call(self, i):
        s = self.copula_seeds[i % self.cycle]
        df = bounds.dependence_corpus(1, s)[0]
        batch = montecarlo.sample_generic(copula.copula_from_pickands(df), self.n, s)
        return batch, montecarlo.empirical_coefficients(batch)

    def _digest(self, out):
        batch, est = out
        h = hashlib.sha256(batch.u.tobytes())
        h.update(batch.v.tobytes())
        h.update(repr(est).encode())
        return h.hexdigest()

    def _check_content(self, j, out):
        batch, est = out
        ok = len(batch.u) == len(batch.v) == self.n and (
            abs(est.tau_hat - self.tau_ref[j]) <= TAU_C / math.sqrt(self.n))
        return 0 if ok else self.units_per_call


WORKLOADS = {w.name: w for w in (Verify, SampleEstimate, McMany)}
