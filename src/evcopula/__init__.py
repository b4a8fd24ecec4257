"""Numerical toolkit for bivariate extreme value copulas.

Builds copulas from Pickands dependence functions, computes their
dependence coefficients (Spearman rho, Kendall tau, upper tail lambda,
Blomqvist beta), verifies the sharp pointwise and coefficient bounds for
a known tail coefficient, and samples exactly or by conditional inversion.
"""

from .bounds import (
    BoundsInterval,
    EnvelopeCheck,
    InequalityReport,
    check_envelope,
    dependence_corpus,
    ev_inequalities,
    pointwise_lower,
    pointwise_upper,
    random_dependence_function,
    rho_bounds,
    tau_bounds,
    verify_case,
)
from .coefficients import (
    CoefficientSet,
    blomqvist,
    compute_coefficients,
    gumbel_closed_form,
    gumbel_tau_from_lambda,
    gumbel_theta_from_lambda,
    lambda_upper,
    mo_closed_form,
    pareto_closed_form,
    rho_numeric,
    tau_numeric,
)
from .copula import (
    EvCopula,
    check_max_stability,
    check_two_increasing,
    copula_from_pickands,
)
from .errors import (
    DegenerateSampleError,
    EvCopulaError,
    InvalidDependenceFunctionError,
    NonConvergentError,
    NonFiniteError,
    ParamOutOfRangeError,
)
from .montecarlo import (
    EmpiricalCoefficients,
    SampleBatch,
    empirical_coefficients,
    kendall_tau_stat,
    ks_statistic_uniform,
    read_pairs_csv,
    sample_generic,
    sample_mo,
    write_batch_csv,
)
from .pickands import (
    DependenceFunction,
    ValidationReport,
    gumbel_dependence,
    mix,
    mo_dependence,
    pareto_dependence,
    piecewise_linear_dependence,
    read_knots_csv,
    write_knots_csv,
)

__version__ = "0.1.0"
