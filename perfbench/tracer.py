"""In-memory span tracer, the runtime wrappers that feed it, and the
per-layer metrics computed from its spans.

Spans are recorded from outside the package: module attributes are swapped
for timing wrappers, dependence functions are replaced by copies whose A,
A' and A'' count evaluation points, and copulas by a subclass whose
evaluation and ``partial_u`` count points.  Every wrapper passes arguments
and results through untouched, so traced calls produce the same bytes as
untraced ones.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import statistics
import time

import numpy as np
from evcopula import bounds, cli, coefficients, copula, montecarlo

LAYERS = ("pickands", "numerics", "coefficients", "bounds", "copula", "montecarlo", "cli")


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "child_s", "counts")

    def __init__(self, name, start, parent, request):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.child_s = 0.0
        self.counts = {}

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        # children of one span run one after another, so their durations
        # sum to the part of this span they cover
        return self.end - self.start - self.child_s


class Tracer:
    """Spans of one run, kept in memory until :meth:`write`."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.request = None

    def begin(self, name):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), parent, self.request)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span):
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            span.parent.child_s += span.duration

    def count(self, key, k):
        """Add ``k`` to counter ``key`` of every open span (inclusive counts)."""
        for span in self._stack:
            span.counts[key] = span.counts.get(key, 0) + k

    def timed(self, fn, name):
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(span)

        return traced

    def write(self, path):
        """Write spans as JSON: name, start and end (s), parent index, request id."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        rows = [
            [s.name, s.start, s.end, None if s.parent is None else index[id(s.parent)],
             s.request, s.counts or None]
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "request", "counts"],
                       "spans": rows}, fh)


def _counting_dependence(df, tracer):
    """Copy of ``df`` whose A, A' and A'' count the points they are asked for."""

    def counted(fn):
        if fn is None:
            return None

        def wrapper(t, *rest):
            tracer.count("A_points", np.size(t))
            return fn(t, *rest)

        return wrapper

    return dataclasses.replace(
        df,
        eval_fn=counted(df.eval_fn),
        deriv_fn=counted(df.deriv_fn),
        second_fn=counted(df.second_fn),
    )


def _traced_copula_class(tracer):
    class TracedCopula(copula.EvCopula):
        def __call__(self, u, v):
            span = tracer.begin("copula.eval")
            try:
                tracer.count("C_points", np.broadcast(u, v).size)
                return super().__call__(u, v)
            finally:
                tracer.end(span)

        def partial_u(self, u, v):
            span = tracer.begin("copula.partial_u")
            try:
                tracer.count("partial_u_points", np.broadcast(u, v).size)
                return super().partial_u(u, v)
            finally:
                tracer.end(span)

    return TracedCopula


@contextlib.contextmanager
def instrumented(tracer):
    """Install the wrappers into the package's modules; restore them on exit."""
    traced_copula = _traced_copula_class(tracer)

    def make_copula(df):
        return traced_copula(dependence=df)

    corpus = tracer.timed(bounds.dependence_corpus, "pickands.build")
    gumbel = tracer.timed(cli.gumbel_dependence, "pickands.build")
    main = cli.main

    def traced_main(argv=None):
        span = tracer.begin(f"cli.{argv[0]}")
        try:
            return main(argv)
        finally:
            tracer.end(span)

    patches = [
        (cli, "main", traced_main),
        (cli, "gumbel_dependence", lambda theta: _counting_dependence(gumbel(theta), tracer)),
        (cli, "copula_from_pickands", make_copula),
        (bounds, "dependence_corpus",
         lambda n, seed: [_counting_dependence(df, tracer) for df in corpus(n, seed)]),
        (bounds, "verify_case", tracer.timed(bounds.verify_case, "bounds.verify_case")),
        (bounds, "check_envelope", tracer.timed(bounds.check_envelope, "bounds.check_envelope")),
        (bounds, "copula_from_pickands", make_copula),
        (bounds, "rho_numeric", tracer.timed(bounds.rho_numeric, "coefficients.rho_numeric")),
        (bounds, "tau_numeric", tracer.timed(bounds.tau_numeric, "coefficients.tau_numeric")),
        (coefficients, "integrate", tracer.timed(coefficients.integrate, "numerics.integrate")),
        (copula, "copula_from_pickands", make_copula),
        (montecarlo, "sample_generic",
         tracer.timed(montecarlo.sample_generic, "montecarlo.sample_generic")),
        (montecarlo, "write_batch_csv", tracer.timed(montecarlo.write_batch_csv, "montecarlo.write_csv")),
        (montecarlo, "read_pairs_csv", tracer.timed(montecarlo.read_pairs_csv, "montecarlo.read_csv")),
        (montecarlo, "empirical_coefficients",
         tracer.timed(montecarlo.empirical_coefficients, "montecarlo.empirical")),
        (montecarlo, "kendall_tau_stat", tracer.timed(montecarlo.kendall_tau_stat, "montecarlo.kendall")),
    ]
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
    try:
        for mod, attr, wrapper in patches:
            setattr(mod, attr, wrapper)
        yield
    finally:
        for mod, attr, original in saved:
            setattr(mod, attr, original)


def percentile(values, pct):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def layer_metrics(tracer, workload, untraced, traced):
    """Per-layer metrics of a traced phase, as ``{name: (value, unit)}``.

    ``untraced`` and ``traced`` are the closed-loop phases run without and
    with the wrappers.  Times are means per closed-loop call, or per case
    where the name says so (a case is one dependence function: a verify
    case, one mc_many copula, one sample_estimate call), scaled to reference
    speed by the traced phase's median factor.  The tracing overhead
    compares the per-input median latencies of the two phases.  Counts cover
    the first cycle of inputs only, so they repeat exactly for a seed
    however many calls the time allowed.
    """
    calls = sum(1 for s in tracer.spans if s.name == "bench.request")
    scale = 1e3 * statistics.median(traced.factors)  # seconds -> reference ms
    cases = calls * workload.cases_per_call
    first = [s for s in tracer.spans if s.request is not None and s.request < workload.cycle]
    first_cases = workload.cycle * workload.cases_per_call
    first_pairs = workload.cycle * workload.pairs_per_call

    def total_ms(name, per):
        return scale * sum(s.duration for s in tracer.spans if s.name == name) / per if per else 0.0

    def self_ms(pred):
        return scale * sum(s.self_s for s in tracer.spans if pred(s.name)) / calls

    def points(name, key, per):
        return sum(s.counts.get(key, 0) for s in first if s.name == name) / per if per else 0.0

    def pairs_per_s(command):
        spans = [s.duration for s in tracer.spans if s.name == command]
        return 1e3 * workload.pairs_per_call / (scale * statistics.mean(spans)) if spans else 0.0

    case_ms = [scale * s.duration for s in tracer.spans if s.name == "bounds.verify_case"]
    m = {
        "pickands.build_ms_per_case": (total_ms("pickands.build", cases), "ms"),
        "coefficients.rho_ms_per_case": (total_ms("coefficients.rho_numeric", cases), "ms"),
        "coefficients.tau_ms_per_case": (total_ms("coefficients.tau_numeric", cases), "ms"),
        "numerics.rho_points_per_case": (points("coefficients.rho_numeric", "A_points", first_cases), "count"),
        "numerics.tau_points_per_case": (points("coefficients.tau_numeric", "A_points", first_cases), "count"),
        "bounds.check_envelope_ms_per_case": (total_ms("bounds.check_envelope", cases), "ms"),
        "copula.eval_points_per_case": (points("copula.eval", "C_points", first_cases), "count"),
        "verify.case_ms_p50": (percentile(case_ms, 50), "ms"),
        "verify.case_ms_p99": (percentile(case_ms, 99), "ms"),
        "montecarlo.sample_generic_ms": (total_ms("montecarlo.sample_generic", calls), "ms"),
        "copula.partial_u_ms": (total_ms("copula.partial_u", calls), "ms"),
        "copula.partial_u_points_per_pair": (
            points("copula.partial_u", "partial_u_points", first_pairs), "count"),
        "montecarlo.write_csv_ms": (total_ms("montecarlo.write_csv", calls), "ms"),
        "montecarlo.read_csv_ms": (total_ms("montecarlo.read_csv", calls), "ms"),
        "montecarlo.empirical_ms": (total_ms("montecarlo.empirical", calls), "ms"),
        "montecarlo.kendall_ms": (total_ms("montecarlo.kendall", calls), "ms"),
        "cli.sample_pairs_per_s": (pairs_per_s("cli.sample"), "1/s"),
        "cli.estimate_pairs_per_s": (pairs_per_s("cli.estimate"), "1/s"),
    }
    for command in ("verify", "sample", "estimate"):
        m[f"cli.{command}_self_ms"] = (self_ms(lambda name: name == f"cli.{command}"), "ms")
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = (self_ms(lambda name: name.split(".")[0] == layer), "ms")
    m["trace.overhead_ms"] = (1e3 * (traced.cost_s() - untraced.cost_s()) / workload.cycle, "ms")
    m["trace.spans_per_call"] = (len(tracer.spans) / calls, "count")
    return m
