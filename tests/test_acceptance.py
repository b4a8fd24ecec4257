"""Acceptance suite: one test per release criterion, at fixed tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion plus timing.
"""

import math
import time

import numpy as np
import pytest

from evcopula import (
    blomqvist,
    check_envelope,
    check_max_stability,
    check_two_increasing,
    copula_from_pickands,
    empirical_coefficients,
    ev_inequalities,
    gumbel_dependence,
    gumbel_theta_from_lambda,
    ks_statistic_uniform,
    lambda_upper,
    mix,
    mo_closed_form,
    mo_dependence,
    pareto_closed_form,
    pareto_dependence,
    rho_bounds,
    rho_numeric,
    sample_generic,
    sample_mo,
    tau_bounds,
    tau_numeric,
)
from evcopula.cli import main
from evcopula.rng import make_rng

# Published reference rows for the Gumbel family, printed at 3 decimals:
# lambda -> (theta, rho).
GUMBEL_REFERENCE = {
    0.0: (1.000, 0.000),
    0.1: (1.080, 0.110),
    0.2: (1.179, 0.225),
    0.3: (1.306, 0.342),
    0.4: (1.475, 0.461),
    0.5: (1.710, 0.581),
    0.6: (2.060, 0.699),
    0.7: (2.641, 0.808),
    0.8: (3.802, 0.904),
    0.9: (7.273, 0.973),
}

MC_SEEDS = range(500, 520)  # fixed replication seeds for the statistical suite


def _report(num, name, started):
    print(f"\nACCEPTANCE {num} {name}: PASS ({time.monotonic() - started:.1f}s)")


def _families_zoo():
    zoo = [
        ("marshall_olkin", mo_dependence(0.5, 0.5)),
        ("marshall_olkin", mo_dependence(0.85, 0.3)),
        ("gumbel", gumbel_dependence(2.0)),
        ("gumbel", gumbel_dependence(6.5)),
        ("pareto", pareto_dependence(0.3, 0.15)),
        ("pareto", pareto_dependence(0.45, 0.45)),
        ("mixture", mix(mo_dependence(0.6, 0.6), gumbel_dependence(3.0), 0.35)),
        ("independence", gumbel_dependence(1.0)),
    ]
    from evcopula import random_dependence_function

    zoo.append(("piecewise_linear", random_dependence_function(make_rng(77))))
    return zoo


def test_criterion_1_gumbel_table(capsys):
    started = time.monotonic()
    flagged = []
    for lam, (theta_ref, rho_ref) in GUMBEL_REFERENCE.items():
        theta = gumbel_theta_from_lambda(lam)
        rho = rho_numeric(gumbel_dependence(theta)) if lam else 0.0
        assert theta == pytest.approx(theta_ref, abs=1.5e-3), f"theta at lambda={lam}"
        assert rho == pytest.approx(rho_ref, abs=1.5e-3), f"rho at lambda={lam}"
        if f"{theta:.3f}" != f"{theta_ref:.3f}" or f"{rho:.3f}" != f"{rho_ref:.3f}":
            flagged.append((lam, f"{theta:.3f}", f"{rho:.3f}"))
    # the full-tail row prints the infinity marker
    assert main(["gumbel-table"]) == 0
    out = capsys.readouterr().out
    assert out.strip().splitlines()[-1] == "1.0,inf,1.000"
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    if flagged:
        print(f"\n  final-digit differences within tolerance: {flagged}")
    _report(1, "gumbel table reproduction", started)


def test_criterion_2_closed_form_vs_quadrature():
    started = time.monotonic()
    for i in range(200):
        rng = make_rng(901, i)
        alpha, beta = rng.random(), rng.random()
        cs = mo_closed_form(alpha, beta)
        df = mo_dependence(alpha, beta)
        assert abs(rho_numeric(df) - cs.rho) <= 1e-8
        assert abs(tau_numeric(df) - cs.tau) <= 1e-8
    for i in range(200):
        rng = make_rng(902, i)
        lam, split = rng.random(), rng.random()
        a, b = lam * split, lam * (1.0 - split)
        rho_cf, tau_cf = pareto_closed_form(a, b)
        df = pareto_dependence(a, b)
        assert abs(rho_numeric(df) - rho_cf) <= 1e-8
        assert abs(tau_numeric(df) - tau_cf) <= 1e-8
    thetas = np.concatenate(
        [[1.01, 1.02, 1.05], np.linspace(1.1, 5.0, 25), [8.0, 12.0, 20.0, 35.0, 50.0]]
    )
    for theta in thetas:
        assert abs(tau_numeric(gumbel_dependence(theta)) - (1.0 - 1.0 / theta)) <= 1e-6
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _report(2, "closed-form vs quadrature agreement", started)


def test_criterion_3_tangent_family_tau_exact():
    started = time.monotonic()
    for i in range(100):
        rng = make_rng(903, i)
        lam, split = rng.random(), rng.random()
        a, b = lam * split, lam * (1.0 - split)
        assert abs(tau_numeric(pareto_dependence(a, b)) - (a + b)) <= 1e-10
    _report(3, "tau equals the tail coefficient on the tangent family", started)


def test_criterion_4_coefficient_interval_containment(corpus_coefficients):
    started = time.monotonic()
    for df, lam, rho, tau in corpus_coefficients:
        ri = rho_bounds(lam)
        ti = tau_bounds(lam)
        assert rho >= ri.lo - 1e-7, (df.family, lam, rho, ri.lo)
        assert rho <= ri.hi + 1e-7, (df.family, lam, rho, ri.hi)
        assert tau >= ti.lo - 1e-7, (df.family, lam, tau, ti.lo)
        assert tau <= ti.hi + 1e-7, (df.family, lam, tau, ti.hi)
    for lam in np.linspace(0.1, 0.9, 9):
        ri, ti = rho_bounds(lam), tau_bounds(lam)
        mo = mo_dependence(lam, lam)
        pa = pareto_dependence(lam / 2.0, lam / 2.0)
        assert abs(rho_numeric(mo) - ri.lo) <= 1e-8
        assert abs(tau_numeric(mo) - ti.lo) <= 1e-8
        assert abs(rho_numeric(pa) - ri.hi) <= 1e-8
        assert abs(tau_numeric(pa) - ti.hi) <= 1e-8
    elapsed = time.monotonic() - started
    assert elapsed < 300.0
    _report(4, "coefficient intervals contain and are attained", started)


def test_criterion_5_pointwise_envelope(corpus500):
    started = time.monotonic()
    for df in corpus500:
        env = check_envelope(copula_from_pickands(df), grid=200)
        assert env.max_lower_violation <= 1e-9, df.family
        assert env.max_upper_violation <= 1e-9, df.family
    _report(5, "pointwise envelope on 200x200 grid", started)


def test_criterion_6_structural_identities():
    started = time.monotonic()
    us = np.linspace(1e-3, 1.0, 257)
    for name, df in _families_zoo():
        cop = copula_from_pickands(df)
        assert check_max_stability(cop, seed=5) <= 1e-12, name
        lam = lambda_upper(df)
        diag_err = float(np.abs(cop(us, us) - us ** (2.0 - lam)).max())
        assert diag_err <= 1e-12, name
        assert abs(blomqvist(cop) - (2.0**lam - 1.0)) <= 1e-12, name
        assert check_two_increasing(cop) >= -1e-12, name
    _report(6, "max-stability, diagonal law, Blomqvist, 2-increasing", started)


def test_criterion_7_monte_carlo_consistency():
    started = time.monotonic()
    n = 200000
    crit = 1.63 / math.sqrt(n)
    rho_gumbel2 = rho_numeric(gumbel_dependence(2.0))
    gum = copula_from_pickands(gumbel_dependence(2.0))
    moc = copula_from_pickands(mo_dependence(0.5, 0.5))
    for seed in MC_SEEDS:
        exact = sample_mo(0.5, 0.5, n, seed)
        est_mo = empirical_coefficients(exact)
        assert abs(est_mo.tau_hat - 1.0 / 3.0) <= 0.012, seed
        assert abs(est_mo.rho_hat - 3.0 / 7.0) <= 0.012, seed

        gen_g = sample_generic(gum, n, seed)
        est_g = empirical_coefficients(gen_g)
        assert abs(est_g.tau_hat - 0.5) <= 0.012, seed
        assert abs(est_g.rho_hat - rho_gumbel2) <= 0.012, seed

        gen_mo = sample_generic(moc, n, seed)
        est_gen_mo = empirical_coefficients(gen_mo)
        assert abs(est_gen_mo.tau_hat - est_mo.tau_hat) <= 0.015, seed

        for batch in (exact, gen_g, gen_mo):
            assert ks_statistic_uniform(batch.u) < crit, (seed, batch.generator)
            assert ks_statistic_uniform(batch.v) < crit, (seed, batch.generator)
    elapsed = time.monotonic() - started
    assert elapsed < 180.0
    _report(7, "Monte Carlo consistency over 20 seeds", started)


def test_criterion_8_inequality_suite(corpus_coefficients):
    started = time.monotonic()
    for df, lam, rho, tau in corpus_coefficients:
        rep = ev_inequalities(min(max(rho, 0.0), 1.0), min(max(tau, 0.0), 1.0))
        assert rep.passed, (df.family, lam, rho, tau, rep)
    # the lower-envelope family makes the Trutschnig inequality tight:
    # rho = 3 tau / (2 + tau) exactly when tau = lam / (2 - lam)
    for lam in np.linspace(0.0, 1.0, 21):
        cs = mo_closed_form(lam, lam)
        rep = ev_inequalities(cs.rho, cs.tau)
        assert rep.passed
        assert abs(rep.trutschnig_margin) <= 1e-9, lam
    _report(8, "Hutchinson-Lai and Trutschnig inequality suite", started)
