"""Acceptance suite: every release-gating check, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and the
measured runtimes.  Tolerances are fixed here and must not be loosened.
"""

import math
import time

import numpy as np
import pytest
from scipy import optimize, stats

from ptmoments import circuits, estimation, gaussian, noon_tables
from ptmoments.criteria import (
    PtMomentVector,
    descartes_test,
    hankel_test,
    optimal_threshold,
    p3_linear,
    p3_optimal,
    p3_quadratic,
)
from ptmoments.fock import (
    BipartiteDensityOperator,
    ModeCutoff,
    partial_transpose,
    pt_moment,
    pt_moments,
    pure_state_pt_moment,
    schmidt_probabilities,
)
from ptmoments.states import (
    CatParams,
    LossyNOONParams,
    NOONParams,
    cat_pt_moments,
    cat_separability_radius,
    lossy_noon_density,
    lossy_noon_pt_moments,
    tmsv_density,
)

from conftest import random_density, random_pure_bipartite

BAL = 1.0 / math.sqrt(2.0)


def report(number: int, label: str, started: float, budget: float, detail: str = ""):
    elapsed = time.perf_counter() - started
    suffix = f" [{detail}]" if detail else ""
    print(f"\n[PASS] criterion {number}: {label} ({elapsed:.2f}s < {budget:.0f}s){suffix}")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s runtime budget"


def test_criterion_01_noon_exactness():
    started = time.perf_counter()
    for n in range(1, 6):
        for alpha in (0.3, BAL, 0.9):
            p = NOONParams(n, alpha, math.sqrt(1.0 - alpha ** 2))
            _, closed = lossy_noon_pt_moments(LossyNOONParams(p, 1.0, 1.0))
            assert closed == pytest.approx(abs(alpha) ** 6 + (1 - alpha ** 2) ** 3, abs=1e-14)
            rho = lossy_noon_density(LossyNOONParams(p, 1.0, 1.0), ModeCutoff(n + 1, n + 1))
            dense = pt_moment(rho, 3)
            assert abs(dense - closed) < 1e-10
    # the linear witness attains its minimum -3/4 at the balanced point
    balanced = p3_linear(1.0, lossy_noon_pt_moments(LossyNOONParams.balanced(4, 1.0))[1]).witness
    assert abs(balanced - (-0.75)) < 1e-10
    for alpha in np.linspace(0.0, 1.0, 2001):
        w = p3_linear(1.0, alpha ** 6 + (1 - alpha ** 2) ** 3).witness
        assert w >= -0.75 - 1e-10
    report(1, "NOON closed-form p3 matches the dense oracle; witness floor -3/4",
           started, 1.0)


def test_criterion_02_output_distribution_tables():
    started = time.perf_counter()
    for tau in (1.0, 0.9, 0.75, 0.6):
        rho = lossy_noon_density(LossyNOONParams.balanced(1, tau))
        d2 = circuits.outcome_distribution([rho] * 2, 2)
        for outcome in noon_tables.f2_outcomes():
            assert abs(d2.probability(outcome)
                       - noon_tables.f2_formula(outcome, BAL, tau)) < 1e-10
        d3 = circuits.outcome_distribution([rho] * 3, 3)
        for outcome in noon_tables.f3_outcomes():
            assert abs(d3.probability(outcome)
                       - noon_tables.f3_formula(outcome, BAL, tau)) < 1e-10
        for outcome in noon_tables.f3_zero_outcomes():
            assert d3.probability(outcome) < 1e-10
        if tau == 1.0:
            assert abs(circuits.multicopy_expectation(d3) - 0.25) < 1e-10
    report(2, "readout distributions reproduce both reference tables "
              "(zero rows included) and give p3 = 1/4 lossless", started, 10.0)


def test_criterion_03_gaussian_formula_against_fock_oracle():
    started = time.perf_counter()
    cutoff = 40
    for r in (0.1, 0.3, 0.5):
        oracle = pt_moments(tmsv_density(r, cutoff), 7)
        pair = gaussian.tmsv_thermal_pt_pair(0.0, r)
        for n in range(2, 8):
            closed = gaussian.gaussian_pt_moment(pair, n)
            assert abs(closed - oracle[n - 1]) < 1e-7
    report(3, "closed-form Gaussian PT-moments match the cutoff-40 oracle for n = 2..7",
           started, 30.0)


def test_criterion_04_threshold_reproduction():
    started = time.perf_counter()
    n_bar = (math.sqrt(2.0) - 1.0) / 2.0

    def moment3(r):
        return gaussian.gaussian_pt_moment(gaussian.tmsv_thermal_pt_pair(n_bar, r), 3)

    r_third = optimize.brentq(lambda r: moment3(r) - 0.25, 0.2, 0.6, xtol=1e-12)
    assert abs(r_third - 0.363) < 0.005
    for shift, expect in ((-1e-3, False), (1e-3, True)):
        pair = gaussian.tmsv_thermal_pt_pair(n_bar, r_third + shift)
        p2 = gaussian.gaussian_pt_moment(pair, 2)
        p3 = gaussian.gaussian_pt_moment(pair, 3)
        assert p3_linear(p2, p3).detected is expect
        assert p3_quadratic(p2, p3).detected is expect
        assert p3_optimal(p2, p3).detected is expect

    def hankel_witness(r, n):
        pair = gaussian.tmsv_thermal_pt_pair(n_bar, r)
        ms = PtMomentVector(tuple(gaussian.gaussian_pt_moments(pair, n)))
        return hankel_test(ms, n).witness

    r5 = optimize.brentq(lambda r: hankel_witness(r, 5), 0.05, 0.4, xtol=1e-12)
    r7 = optimize.brentq(lambda r: hankel_witness(r, 7), 0.05, 0.4, xtol=1e-12)
    assert abs(r5 - 0.221) < 0.005
    assert abs(r7 - 0.187) < 0.005

    simon = optimize.brentq(
        lambda r: gaussian.tmsv_thermal_pt_pair(n_bar, r).nu1 - 1.0, 0.01, 1.0, xtol=1e-12)
    assert abs(simon - math.log(2.0) / 4.0) < 1e-9
    report(4, "detection thresholds on the squeezed-thermal family "
              f"(third order {r_third:.4f}, order five {r5:.4f}, order seven {r7:.4f}, "
              f"second-moment {simon:.6f})", started, 10.0)


def test_criterion_05_cat_state_boundary():
    started = time.perf_counter()
    rng = np.random.default_rng(515)
    for z in (0.5, 0.9, 0.99):
        radius = cat_separability_radius(z)
        for _ in range(1000):
            theta = rng.uniform(1e-3, math.pi / 2 - 1e-3)
            on = CatParams(radius * math.cos(theta), radius * math.sin(theta), z, "odd")
            w_on = p3_linear(*cat_pt_moments(on)).witness
            assert abs(w_on) < 1e-6
            for sign in (-1.0, 1.0):
                r = radius + sign * 1e-3
                p = CatParams(r * math.cos(theta), r * math.sin(theta), z, "odd")
                w = p3_linear(*cat_pt_moments(p)).witness
                assert (w < 0) == (sign > 0)
    report(5, "odd-cat witness changes sign exactly across the separability circle",
           started, 10.0)


def test_criterion_06_lossy_noon_robustness():
    started = time.perf_counter()

    def witness(n, tau):
        p2, p3 = lossy_noon_pt_moments(LossyNOONParams.balanced(n, tau))
        return p3 - optimal_threshold(p2)

    taus_low = np.round(np.arange(0.0, 0.5 + 1e-12, 1e-3), 9)
    for n in range(1, 11):
        for tau in taus_low:
            assert witness(n, float(tau)) >= -1e-12
    # N = 10 crossing, located on the same 1e-3 grid (last non-detecting point),
    # with the exact bisected value reported alongside
    taus_high = np.round(np.arange(0.5, 1.0, 1e-3), 9)
    values = np.array([witness(10, float(t)) for t in taus_high])
    last_nonneg = float(taus_high[np.where(values >= 0)[0][-1]])
    exact = optimize.brentq(lambda t: witness(10, t), 0.52, 0.999, xtol=1e-9)
    assert last_nonneg <= 0.8 + 5e-3 + 1e-12
    report(6, "no detection up to half transmissivity for any population; "
              f"population-ten crossing at grid point {last_nonneg:.3f} "
              f"(exact {exact:.6f})", started, 30.0)


def test_criterion_07_estimator_statistics():
    started = time.perf_counter()
    reps, k = 10 ** 4, 100
    tau = 0.75
    p2, p3 = lossy_noon_pt_moments(LossyNOONParams.balanced(1, tau))
    rho = lossy_noon_density(LossyNOONParams.balanced(1, tau))
    d2 = circuits.outcome_distribution([rho] * 2, 2)
    d3 = circuits.outcome_distribution([rho] * 3, 3)

    rng = estimation.rng_stream(7701, 0)
    q2, v2 = d2.probs, d2.values
    q3, v3 = d3.probs, d3.values
    e2 = v2[rng.choice(q2.size, size=(reps, k), p=q2 / q2.sum())].mean(axis=1)
    e3 = v3[rng.choice(q3.size, size=(reps, k), p=q3 / q3.sum())].mean(axis=1)
    w_l, w_q = estimation.witness_estimators(e2, e3, k)

    var2 = (1.0 - p2 ** 2) / k
    var3 = (1.0 - p3 ** 2) / k
    var_l, var_q = estimation.witness_variances(p2, p3, k)
    checks = [
        ("p2", e2, p2, var2), ("p3", e3, p3, var3),
        ("W_l", w_l, p3 - (3 * p2 - 1) / 2, var_l),
        ("W_q", w_q, p3 - p2 ** 2, var_q),
    ]
    lo = stats.chi2.ppf(0.005, reps - 1) / (reps - 1)
    hi = stats.chi2.ppf(0.995, reps - 1) / (reps - 1)
    for name, sampled, mean_true, var_true in checks:
        err = abs(np.mean(sampled).real - mean_true)
        assert err < 3.0 * math.sqrt(var_true / reps), f"{name} mean off by {err:.2e}"
        var_emp = float(np.sum(np.abs(sampled - np.mean(sampled)) ** 2) / (reps - 1))
        assert lo <= var_emp / var_true <= hi, \
            f"{name} variance ratio {var_emp / var_true:.4f} outside [{lo:.4f}, {hi:.4f}]"
    report(7, "estimator means unbiased and variances inside the 99% band "
              f"({reps} repetitions, k={k})", started, 120.0)


def test_criterion_08_sample_budgets():
    started = time.perf_counter()
    p2, p3 = lossy_noon_pt_moments(LossyNOONParams.balanced(1, 0.9))
    k_mild = estimation.min_samples(p2, p3, "quadratic")
    assert 3 <= k_mild <= 30
    p2, p3 = lossy_noon_pt_moments(LossyNOONParams.balanced(1, 0.6))
    k_strong = estimation.min_samples(p2, p3, "quadratic")
    assert 300 <= k_strong <= 3000
    report(8, f"sample budgets {k_mild} at mild loss and {k_strong} at strong loss",
           started, 5.0)


def test_criterion_09_full_simulation():
    started = time.perf_counter()
    details = []
    for tau in (0.9, 0.75, 0.6):
        params = LossyNOONParams.balanced(1, tau)
        plan = estimation.SamplingPlan(k=1000, repetitions=500, master_seed=42)
        (point,) = estimation.full_simulation(params, plan, k_values=(1000,))
        std = math.sqrt(point.estimate.variance)
        assert point.estimate.mean < 0.0
        assert point.estimate.mean + std < 0.0
        details.append(f"tau={tau}: {point.estimate.mean:.4f} +/- {std:.4f}")
    report(9, "noisy-copy simulation detects within one standard deviation at k=1000",
           started, 600.0, "; ".join(details))


def test_criterion_10_property_suites():
    started = time.perf_counter()
    rng = np.random.default_rng(1001)

    # partial-transpose involution and exact trace/hermiticity preservation
    for _ in range(50):
        d_a, d_b = rng.integers(2, 5, size=2)
        rho = BipartiteDensityOperator(ModeCutoff(d_a, d_b),
                                       random_density(rng, d_a * d_b))
        pt = partial_transpose(rho)
        assert np.array_equal(partial_transpose(pt).matrix, rho.matrix)
        assert abs(np.trace(pt.matrix) - 1.0) < 1e-14

    # Schmidt law and the moment growth bound on random pure states
    for _ in range(50):
        d_a, d_b = rng.integers(2, 6, size=2)
        vec = random_pure_bipartite(rng, d_a, d_b)
        cutoff = ModeCutoff(d_a, d_b)
        rho = BipartiteDensityOperator.from_state_vector(vec, cutoff)
        lam = schmidt_probabilities(vec)
        ms = pt_moments(rho, 7)
        for n in range(2, 8):
            assert abs(ms[n - 1] - pure_state_pt_moment(lam, n)) < 1e-10
            assert abs(ms[n - 1]) <= ms[1] ** (n / 2) + 1e-9

    # criteria soundness on random non-negative spectra
    for _ in range(500):
        lam = rng.random(rng.integers(1, 9))
        lam /= lam.sum()
        ms = [float(np.sum(lam ** n)) for n in range(1, 8)]
        vec = PtMomentVector(tuple(ms))
        assert hankel_test(vec, 7).witness >= -1e-10
        assert descartes_test(vec, 7).witness >= -1e-12
        assert p3_optimal(min(ms[1], 1.0), ms[2]).witness >= -1e-7

    # symplectic third-order forms agree in sign with the generic tests
    grid = np.linspace(0.2, 3.0, 100)
    for nu1 in grid:
        for nu2 in grid:
            if nu1 * nu2 < 1.0:
                continue
            pair = gaussian.SymplecticPair(float(nu1), float(nu2))
            p2 = gaussian.gaussian_pt_moment(pair, 2)
            p3 = gaussian.gaussian_pt_moment(pair, 3)
            lin, quad = gaussian.symplectic_p3_criteria(pair)
            assert lin.detected == p3_linear(p2, p3).detected
            assert quad.detected == p3_quadratic(p2, p3).detected
            if not gaussian.simon_test(pair).detected:
                assert not p3_optimal(p2, p3).detected

    # loss-channel composition law
    for _ in range(20):
        rho = BipartiteDensityOperator(ModeCutoff(4, 3), random_density(rng, 12))
        t1, t2 = rng.uniform(0.2, 1.0, size=2)
        twice = circuits.lossy_channel(circuits.lossy_channel(rho, t1, "a"), t2, "a")
        once = circuits.lossy_channel(rho, t1 * t2, "a")
        assert np.abs(twice.matrix - once.matrix).max() < 1e-10

    report(10, "randomized property suites (transpose involution, pure-state law, "
               "soundness, sign agreement, channel composition)", started, 120.0)
