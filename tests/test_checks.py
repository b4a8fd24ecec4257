"""The shared checks of outside input, and a row for every public callable.

``check_real`` and ``check_int`` decide what a valid parameter, count or
seed is.  The property test feeds hostile scalars to the public scalar
entry points: each either returns a finite result or raises
:class:`EvCopulaError`.  ``SampleBatch`` and ``kendall_tau_stat`` share
one check of (u, v) arrays.  One table of hostile arrays runs against
every public entry point that takes t, u, v, a sample or knots, and
:func:`test_every_public_callable_has_a_row` fails when a public callable
has a row in none of the tables.
"""

import contextlib
import dataclasses
import io
import math
import numbers
import os
import re
from collections.abc import Mapping
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evcopula
from evcopula import (
    DegenerateSampleError,
    DependenceFunction,
    EvCopula,
    EvCopulaError,
    ParamOutOfRangeError,
    SampleBatch,
    blomqvist,
    check_envelope,
    check_max_stability,
    check_two_increasing,
    compute_coefficients,
    copula_from_pickands,
    dependence_corpus,
    empirical_coefficients,
    ev_inequalities,
    gumbel_closed_form,
    gumbel_dependence,
    gumbel_tau_from_lambda,
    gumbel_theta_from_lambda,
    lambda_upper,
    mix,
    mo_closed_form,
    mo_dependence,
    pareto_closed_form,
    pareto_dependence,
    kendall_tau_stat,
    ks_statistic_uniform,
    piecewise_linear_dependence,
    pointwise_lower,
    pointwise_upper,
    random_dependence_function,
    read_knots_csv,
    read_pairs_csv,
    rho_bounds,
    rho_numeric,
    sample_generic,
    sample_mo,
    tau_bounds,
    tau_numeric,
    verify_case,
    write_batch_csv,
    write_knots_csv,
)
from evcopula.errors import check_int, check_real
from evcopula.montecarlo import check_thresholds
from evcopula.rng import make_rng
from reference import blomqvist_from_lambda, classical_region, lambda_from_blomqvist, validate


class TestCheckReal:
    @pytest.mark.parametrize("x", [0.5, 1, np.float32(0.5), np.float64(0.25), np.int64(1)])
    def test_accepts_reals_as_float(self, x):
        out = check_real(x, "x", 0.0, 1.0)
        assert type(out) is float and out == float(x)

    @pytest.mark.parametrize(
        "x", [True, False, np.True_, math.nan, np.float64("nan"), "0.5", None, 1.5, -0.1]
    )
    def test_rejects(self, x):
        with pytest.raises(ParamOutOfRangeError, match="x="):
            check_real(x, "x", 0.0, 1.0)

    def test_infinity_only_at_an_infinite_bound(self):
        assert check_real(math.inf, "theta", 1.0, math.inf) == math.inf
        assert check_real(-math.inf, "x", -math.inf, 0.0) == -math.inf
        for x in (math.inf, -math.inf):
            with pytest.raises(ParamOutOfRangeError):
                check_real(x, "x", -1e300, 1e300)


class TestCheckInt:
    @pytest.mark.parametrize("x", [3, np.int64(3), np.uint8(3), np.int32(3)])
    def test_accepts_integers_as_int(self, x):
        out = check_int(x, "n", 1)
        assert type(out) is int and out == 3

    @pytest.mark.parametrize("x", [True, np.True_, 2.5, 2.0, np.float64(5), "3", None, math.nan])
    def test_rejects_non_integers(self, x):
        with pytest.raises(ParamOutOfRangeError, match="n must be an integer"):
            check_int(x, "n", 1)

    def test_lower_bound(self):
        with pytest.raises(ParamOutOfRangeError, match="n must be >= 1"):
            check_int(0, "n", 1)
        assert check_int(-(2**70), "seed") == -(2**70)


def test_seeds_are_not_folded_into_64_bits():
    # the 64-bit mask gave seed -1 the stream of 2**64 - 1, and seed 2**64 that of 0
    for key in ((-1,), (0, -1), (-(2**64),)):
        with pytest.raises(ParamOutOfRangeError, match="seed must be >= 0"):
            make_rng(*key)
    assert make_rng(2**64).random(4).tolist() != make_rng(0).random(4).tolist()
    assert make_rng(2**65 + 3, 1).random(4).tolist() != make_rng(3, 1).random(4).tolist()
    # seeds in [0, 2**64) keep their streams
    assert make_rng(2**64 - 1, 0xB1).random(2).tolist() == [0.5463281793958417, 0.5293599697410155]
    assert make_rng(0).random(2).tolist() == [0.014067035665647709, 0.2577672456246177]


_MO = mo_dependence(0.3, 0.6)
_GUMBEL = copula_from_pickands(gumbel_dependence(2.0))


def _read_knots_from_descriptor():
    fd = os.open(os.devnull, os.O_RDONLY)  # its own descriptor: open(fd) closes the one it reads
    try:
        read_knots_csv(fd)
    finally:
        with contextlib.suppress(OSError):  # closed already if read_knots_csv opened it
            os.close(fd)


def _with_mo_a(family, params):
    """A dependence function with ``family`` and ``params`` over the A and A' of ``_MO``."""
    return DependenceFunction(family, params, (), _MO.eval_fn, _MO.deriv_fn)


class _ReadlineOnly:
    """A text stream that has ``readline`` but no ``read``."""

    def readline(self):
        return "u,v\n"


# each call accepted a bool as a number, raised a bare TypeError or
# ValueError, or truncated a float seed before the checks were shared
_REJECTED = {
    "mo_dependence(True, .5)": lambda: mo_dependence(True, 0.5),
    "pareto_dependence(True, False)": lambda: pareto_dependence(True, False),
    "mix(weight=True)": lambda: mix(_MO, _MO, True),
    "lambda_from_blomqvist(True)": lambda: lambda_from_blomqvist(True),
    "classical_region(True)": lambda: classical_region(True),
    'mo_dependence("0.5", .5)': lambda: mo_dependence("0.5", 0.5),
    "sample_mo(n=True)": lambda: sample_mo(0.3, 0.4, True, 0),
    "sample_generic(n=2.5)": lambda: sample_generic(_GUMBEL, 2.5, 0),
    "verify_case(grid=2.5)": lambda: verify_case(_MO, 2.5),
    "check_envelope(grid=2.5)": lambda: check_envelope(_GUMBEL, 2.5),
    "validate(grid_size=np.float64(5))": lambda: validate(_MO, np.float64(5)),
    "sample_mo(seed=2.5)": lambda: sample_mo(0.5, 0.5, 10, 2.5),
    'deriv(side="middle")': lambda: _MO.deriv(0.5, "middle"),
    "empirical_coefficients(thresholds=0.9)": lambda: empirical_coefficients(
        sample_mo(0.3, 0.4, 20, 0), 0.9
    ),
    "check_thresholds(None)": lambda: check_thresholds(None),
    # a dependence function where a copula belongs, or a string for either:
    # each raised a bare AttributeError
    "sample_generic(dependence function)": lambda: sample_generic(mo_dependence(0.3, 0.4), 10, 0),
    'mix(second="abc")': lambda: mix(_MO, "abc", 0.5),
    'compute_coefficients("abc")': lambda: compute_coefficients("abc"),
    'verify_case("abc")': lambda: verify_case("abc"),
    # a string where t, u or v belongs: a bare ValueError or TypeError
    'df("abc")': lambda: _MO("abc"),
    'df.deriv("abc")': lambda: _MO.deriv("abc"),
    'pointwise_lower(v="abc")': lambda: pointwise_lower(0.5, "abc", 0.5),
    # a string where a dependence function, copula, batch or generator belongs:
    # a bare AttributeError or TypeError, or a copula that failed when called
    'rho_numeric("abc")': lambda: rho_numeric("abc"),
    'tau_numeric("abc")': lambda: tau_numeric("abc"),
    'lambda_upper("abc")': lambda: lambda_upper("abc"),
    'check_envelope("abc")': lambda: check_envelope("abc"),
    'check_max_stability("abc")': lambda: check_max_stability("abc"),
    'check_two_increasing("abc")': lambda: check_two_increasing("abc"),
    'blomqvist("abc")': lambda: blomqvist("abc"),
    'copula_from_pickands("abc")': lambda: copula_from_pickands("abc"),
    'EvCopula("abc")': lambda: EvCopula("abc"),
    'empirical_coefficients("abc")': lambda: empirical_coefficients("abc"),
    'write_knots_csv(df="abc")': lambda: write_knots_csv(os.devnull, "abc"),
    'write_batch_csv("abc")': lambda: write_batch_csv("abc", io.StringIO()),
    'random_dependence_function("abc")': lambda: random_dependence_function("abc"),
    # a dependence function built with no A, or with split points that are not
    # real numbers increasing inside (0, 1): each was built without complaint
    "DependenceFunction(eval_fn=None)": lambda: DependenceFunction("x", {}, (), None, None),
    "DependenceFunction(split_points=0.5)": lambda: DependenceFunction(
        "x", {}, 0.5, _MO.eval_fn, _MO.deriv_fn
    ),
    'DependenceFunction(split_points=("a",))': lambda: DependenceFunction(
        "x", {}, ("a",), _MO.eval_fn, _MO.deriv_fn
    ),
    "DependenceFunction(split_points=(0.6, 0.4))": lambda: DependenceFunction(
        "x", {}, (0.6, 0.4), _MO.eval_fn, _MO.deriv_fn
    ),
    # a family that is not a str or params that are not a mapping were built without complaint
    "DependenceFunction(family=None)": lambda: _with_mo_a(None, {}),
    "DependenceFunction(params=None)": lambda: _with_mo_a("pareto", None),
    "DependenceFunction(params=((alpha, .3),))": lambda: _with_mo_a("marshall_olkin", (("alpha", 0.3),)),
    # a seed that is not an integer, or a generator that is not a str, made a batch
    "SampleBatch(seed=2.5)": lambda: SampleBatch([0.1, 0.2], [0.3, 0.4], 2.5, "manual"),
    "SampleBatch(seed=True)": lambda: SampleBatch([0.1, 0.2], [0.3, 0.4], True, "manual"),
    "SampleBatch(generator=None)": lambda: SampleBatch([0.1, 0.2], [0.3, 0.4], 0, None),
    # a file descriptor, None, a string or a binary stream where a file path or a
    # text stream belongs: read_knots_csv read and closed the descriptor, the
    # others raised a bare TypeError, ValueError or AttributeError
    "read_knots_csv(descriptor)": _read_knots_from_descriptor,
    "read_knots_csv(None)": lambda: read_knots_csv(None),
    "write_knots_csv(None, df)": lambda: write_knots_csv(None, _MO),
    'read_pairs_csv("abc")': lambda: read_pairs_csv("abc"),
    'write_batch_csv(stream="abc")': lambda: write_batch_csv(sample_mo(0.3, 0.4, 10, 0), "abc"),
    "read_pairs_csv(BytesIO)": lambda: read_pairs_csv(io.BytesIO(b"u,v\n0.1,0.2\n")),
    "read_pairs_csv(stream without read)": lambda: read_pairs_csv(_ReadlineOnly()),
    "write_batch_csv(stream=BytesIO)": lambda: write_batch_csv(
        sample_mo(0.3, 0.4, 10, 0), io.BytesIO()
    ),
    # bools where a count or a tail coefficient belongs
    "dependence_corpus(n=True)": lambda: dependence_corpus(True, 0),
    "gumbel_tau_from_lambda(True)": lambda: gumbel_tau_from_lambda(True),
    "gumbel_theta_from_lambda(True)": lambda: gumbel_theta_from_lambda(True),
    # a negative seed drew the stream of seed + 2**64
    "sample_mo(seed=-1)": lambda: sample_mo(0.5, 0.5, 10, -1),
    "sample_generic(seed=-1)": lambda: sample_generic(_GUMBEL, 10, -1),
    "dependence_corpus(seed=-1)": lambda: dependence_corpus(5, -1),
}


@pytest.mark.parametrize("call", list(_REJECTED.values()), ids=list(_REJECTED))
def test_hostile_scalar_rejected(call):
    with pytest.raises(ParamOutOfRangeError):
        call()


def test_params_store_plain_floats():
    for df in (
        mo_dependence(np.float32(0.5), np.int64(1)),
        pareto_dependence(np.float64(0.25), np.int64(0)),
        mix(_MO, _MO, np.float32(0.5)),
    ):
        floats = {k: v for k, v in df.params.items() if isinstance(v, numbers.Number)}
        assert floats and all(type(v) is float for v in floats.values()), df.params


# ---------------------------------------------------------------------------
# property: a finite result or EvCopulaError, never anything else
# ---------------------------------------------------------------------------

_HOSTILE = [
    math.nan, math.inf, -math.inf, True, np.True_, "0.5", None,
    np.float32(0.25), np.int64(1), 2.5,
]
_REALS = st.sampled_from(_HOSTILE) | st.floats(-0.5, 1.5) | st.sampled_from([0.0, 1.0, 3.0])
_COUNTS = st.sampled_from(_HOSTILE + [np.int64(5), 0, 2, 7, -3])

_PWL = mo_dependence(0.4, 0.2)
# name: (function, kind of each argument); "x" is a real, "n" a count or seed
_ENTRY_POINTS = {
    "mo_dependence": (mo_dependence, "xx"),
    "pareto_dependence": (pareto_dependence, "xx"),
    "gumbel_dependence": (gumbel_dependence, "x"),
    "mix": (lambda w: mix(_PWL, gumbel_dependence(2.0), w), "x"),
    "rho_bounds": (rho_bounds, "x"),
    "tau_bounds": (tau_bounds, "x"),
    "blomqvist_from_lambda": (blomqvist_from_lambda, "x"),
    "lambda_from_blomqvist": (lambda_from_blomqvist, "x"),
    "classical_region": (classical_region, "x"),
    "ev_inequalities": (ev_inequalities, "xx"),
    "mo_closed_form": (mo_closed_form, "xx"),
    "pareto_closed_form": (pareto_closed_form, "xx"),
    "gumbel_closed_form": (gumbel_closed_form, "x"),
    "sample_mo": (lambda n, seed: sample_mo(0.3, 0.6, n, seed), "nn"),
    "sample_generic": (lambda n, seed: sample_generic(_GUMBEL, n, seed), "nn"),
    "check_envelope": (lambda grid: check_envelope(_GUMBEL, grid), "n"),
    "validate": (lambda grid: validate(_PWL, grid), "n"),
    "verify_case": (lambda grid: verify_case(_PWL, grid), "n"),
}


def _finite(obj) -> bool:
    if isinstance(obj, (str, bool, np.bool_)) or obj is None:
        return True
    if isinstance(obj, DependenceFunction):
        t = np.linspace(0.0, 1.0, 9)
        return _finite(obj(t)) and _finite(obj.deriv(t)) and _finite(obj.params)
    if dataclasses.is_dataclass(obj):
        return all(_finite(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    if isinstance(obj, Mapping):
        return all(_finite(v) for v in obj.values())
    if isinstance(obj, (tuple, list)):
        return all(_finite(v) for v in obj)
    return bool(np.all(np.isfinite(obj)))


@given(name=st.sampled_from(sorted(_ENTRY_POINTS)), data=st.data())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_scalar_entry_points_finite_or_evcopula_error(name, data):
    fn, kinds = _ENTRY_POINTS[name]
    args = [data.draw(_REALS if kind == "x" else _COUNTS) for kind in kinds]
    try:
        out = fn(*args)
    except EvCopulaError:
        return
    assert _finite(out), (name, args, out)


# ---------------------------------------------------------------------------
# (u, v) arrays: SampleBatch and kendall_tau_stat share one check
# ---------------------------------------------------------------------------

_U = [0.1, 0.7, 0.3, 0.9, 0.5, 0.2, 0.8, 0.4, 0.6, 0.05]
_V = [0.3, 0.6, 0.1, 0.8, 0.9, 0.2, 0.7, 0.5, 0.4, 0.15]
_ACCEPTED_PAIRS = {
    "list": (_U, _V),
    "int64": (np.arange(10), np.array([2, 5, 0, 8, 9, 1, 7, 4, 3, 6])),
    "uint8": (np.arange(10, dtype=np.uint8), np.arange(10, dtype=np.uint8)[::-1]),
    "float32": (np.float32(_U), np.float32(_V)),
    "int list": ([3, 1, 2], [1, 2, 3]),
}


@pytest.mark.parametrize("name", list(_ACCEPTED_PAIRS))
def test_pairs_become_float_arrays(name):
    u, v = _ACCEPTED_PAIRS[name]
    batch = SampleBatch(u, v, 0, "manual")
    for got, given_ in ((batch.u, u), (batch.v, v)):
        assert type(got) is np.ndarray and got.dtype == np.float64 and got.ndim == 1
        np.testing.assert_array_equal(got, np.asarray(given_, dtype=float))
    floats = SampleBatch(np.asarray(u, dtype=float), np.asarray(v, dtype=float), 0, "manual")
    assert kendall_tau_stat(u, v) == kendall_tau_stat(floats.u, floats.v)
    if batch.n >= 10:
        assert empirical_coefficients(batch) == empirical_coefficients(floats)


_REJECTED_PAIRS = {
    "2-D": (np.full((5, 10), 0.5), np.full((5, 10), 0.25)),
    "2-D v": (np.linspace(0, 1, 10), np.full((10, 1), 0.25)),
    "0-D": (np.float64(0.5), np.float64(0.25)),
    "bool": (np.arange(10) % 2 == 0, np.arange(10) % 3 == 0),
    "bool list": ([True, False, True], [False, True, True]),
    "complex": (np.linspace(0, 1, 10) + 1j, np.linspace(0, 1, 10)),
    "object": (np.array(_U, dtype=object), np.array(_V, dtype=object)),
    "None in list": ([0.1, None, 0.3], [0.1, 0.2, 0.3]),
    "strings": (np.array(_U).astype(str), np.array(_V).astype(str)),
    "ragged list": ([[0.1, 0.2], [0.3]], [0.1, 0.2]),
}


@pytest.mark.parametrize("entry", ["SampleBatch", "kendall_tau_stat"])
@pytest.mark.parametrize("name", list(_REJECTED_PAIRS))
def test_pairs_that_are_not_1d_real_arrays_rejected(name, entry):
    u, v = _REJECTED_PAIRS[name]
    with pytest.raises(DegenerateSampleError, match="1-D array of real numbers"):
        if entry == "SampleBatch":
            SampleBatch(u, v, 0, "manual")
        else:
            kendall_tau_stat(u, v)


# ---------------------------------------------------------------------------
# hostile arrays: every public entry point that takes t, u, v, a sample or knots
# ---------------------------------------------------------------------------

_KNOTS = [(0, 1), (0.5, 0.75), (1, 1)]
# name: (as t, u, v or a sample; as (k, 2) knots)
_HOSTILE_ARRAYS = {
    "bool": (True, np.array([[False, True], [True, True]])),
    "bool list": ([True, False], [(False, True), (True, True)]),
    "complex": (np.array([0.5, 0.25j]), [(0, 1), (0.5, 0.75 + 0j), (1, 1)]),
    "object": (np.array([0.5, 0.25], dtype=object), np.array(_KNOTS, dtype=object)),
    "None in list": ([0.5, None], [(0, 1), (0.5, None), (1, 1)]),
    "strings": (["0.5", "0.25"], [("0", "1"), ("1", "1")]),
    "ragged list": ([[0.5, 0.25], [0.5]], [(0, 1), (0.5,), (1, 1)]),
    "Fraction": (
        [Fraction(1, 2), Fraction(1, 4)],
        [(0, 1), (Fraction(1, 2), Fraction(3, 4)), (1, 1)],
    ),
}
# name: call on one array x, or on knots k
_ARRAY_ENTRY_POINTS = {
    "EvCopula.__call__(u)": lambda x, k: _GUMBEL(x, 0.5),
    "EvCopula.__call__(v)": lambda x, k: _GUMBEL(0.5, x),
    "DependenceFunction.__call__": lambda x, k: _MO(x),
    "DependenceFunction.deriv": lambda x, k: _MO.deriv(x),
    "pointwise_lower(u)": lambda x, k: pointwise_lower(0.5, x, 0.5),
    "pointwise_upper(v)": lambda x, k: pointwise_upper(0.2, 0.3, 0.5, x),
    "SampleBatch": lambda x, k: SampleBatch(x, x, 0, "manual"),
    "kendall_tau_stat": lambda x, k: kendall_tau_stat(x, x),
    "ks_statistic_uniform": lambda x, k: ks_statistic_uniform(x),
    "piecewise_linear_dependence": lambda x, k: piecewise_linear_dependence(k),
}
_POINTWISE = list(_ARRAY_ENTRY_POINTS)[:6]  # the entries that take t, u or v


@pytest.mark.parametrize("entry", list(_ARRAY_ENTRY_POINTS))
@pytest.mark.parametrize("name", list(_HOSTILE_ARRAYS))
def test_hostile_array_rejected(name, entry):
    with pytest.raises(EvCopulaError):
        _ARRAY_ENTRY_POINTS[entry](*_HOSTILE_ARRAYS[name])


@pytest.mark.parametrize(
    "x", [np.float64(0.5), np.float32(0.25), np.int64(1), np.asarray(0.5)], ids=repr
)
@pytest.mark.parametrize("entry", _POINTWISE)
def test_numpy_scalars_and_0d_arrays_pass(entry, x):
    call = _ARRAY_ENTRY_POINTS[entry]
    assert call(x, None) == call(float(x), None)


# exempt by name: result dataclasses, which only the package builds
_RESULT_TYPES = {
    "BoundsInterval",
    "CoefficientSet",
    "EmpiricalCoefficients",
    "EnvelopeCheck",
    "InequalityReport",
    "ValidationReport",
}


def test_every_public_callable_has_a_row():
    tables = (*_REJECTED, *_ENTRY_POINTS, *_ARRAY_ENTRY_POINTS)
    rows = {re.match(r"\w+", key).group() for key in tables}
    public = {
        name
        for name in dir(evcopula)
        if not name.startswith("_")
        and callable(obj := getattr(evcopula, name))
        and not (isinstance(obj, type) and issubclass(obj, Exception))
    }
    assert sorted(public - rows - _RESULT_TYPES) == []
