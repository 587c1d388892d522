import math
from functools import lru_cache
from itertools import product

import numpy as np
import pytest

from ptmoments import circuits
from ptmoments.errors import DomainError
from ptmoments.estimation import (
    EstimatorResult,
    NoiseSpec,
    SamplingPlan,
    SimulationPoint,
    _draw_clamped,
    _noon1_distributions,
    _noon1_tables,
    full_simulation,
    min_samples,
    noon1_moments,
    rng_stream,
    sample_pn,
    witness_estimators,
    witness_variances,
)
from ptmoments.fock import ModeCutoff
from ptmoments.states import (
    LossyNOONParams,
    NOONParams,
    lossy_noon_density,
    lossy_noon_pt_moments,
)

BAL = 1 / math.sqrt(2)


def dist_for(tau, n):
    rho = lossy_noon_density(LossyNOONParams.balanced(1, tau))
    return circuits.outcome_distribution([rho] * n, n)


def flat_cells(dist, n):
    """Outcomes of ``dist`` as flat indices on the grid of n + 1 levels per
    count, and their probabilities."""
    outcomes, probs = dist.as_arrays()
    return np.ravel_multi_index(np.array(outcomes).T, (n + 1,) * (2 * (n - 1))), probs


@lru_cache(maxsize=None)
def reachable_cells(n):
    """Flat outcome cells in the support of some product of the four lossy
    N=1 copies that span the family: vacuum, |10>, |01> and the Bell state."""
    basis = [lossy_noon_density(LossyNOONParams(NOONParams(1, a, math.sqrt(1 - a ** 2)), t, t),
                                ModeCutoff(2, 2))
             for a, t in ((BAL, 0.0), (1.0, 1.0), (0.0, 1.0), (BAL, 1.0))]
    return np.unique(np.concatenate([flat_cells(circuits.outcome_distribution(copies, n), n)[0]
                                     for copies in product(basis, repeat=n)]))


class TestSamplePn:
    def test_concentrated_distribution(self, rng):
        dist = circuits.OutcomeDistribution([[0, 0]], [1.0])
        for k in (1, 5, 50):
            assert sample_pn(dist, 2, k, rng) == pytest.approx(1.0)

    def test_sampled_values_are_roots_of_unity(self):
        dist = dist_for(0.75, 3)
        _, vals = circuits.outcome_weights(dist)
        assert np.abs(np.abs(vals) - 1.0).max() < 1e-12

    def test_unbiased_and_variance(self):
        tau, k, reps = 0.75, 40, 4000
        dist = dist_for(tau, 2)
        p2, _ = lossy_noon_pt_moments(LossyNOONParams.balanced(1, tau))
        rng = rng_stream(11, 0)
        est = np.array([sample_pn(dist, 2, k, rng) for _ in range(reps)])
        se = math.sqrt((1 - p2 ** 2) / k / reps)
        assert abs(est.mean().real - p2) < 3 * se
        var = np.sum(np.abs(est - est.mean()) ** 2) / (reps - 1)
        assert var == pytest.approx((1 - p2 ** 2) / k, rel=0.15)

    def test_copy_count_checked(self, rng):
        with pytest.raises(ValueError):
            sample_pn(dist_for(0.9, 2), 3, 10, rng)

    def test_estimate_checks_copy_count(self, rng):
        from ptmoments.estimation import estimate_pn
        with pytest.raises(ValueError):
            estimate_pn(dist_for(0.9, 2), 3, 10, 2, rng)

    def test_single_repetition_has_undefined_spread(self, rng):
        from ptmoments.estimation import estimate_pn
        with pytest.raises(DomainError):
            estimate_pn(dist_for(0.9, 2), 2, 50, 1, rng)
        with pytest.raises(DomainError):
            SamplingPlan(k=50, repetitions=1, master_seed=0)


class TestWitnessEstimators:
    def test_boundary_point(self):
        w_l, w_q = witness_estimators(1.0, 1.0, 10 ** 9)
        assert w_l == pytest.approx(0.0, abs=1e-9)
        assert w_q == pytest.approx(0.0, abs=1e-9)

    def test_requires_two_samples(self):
        with pytest.raises(DomainError):
            witness_estimators(0.5, 0.5, 1)

    def test_quadratic_unbiased(self):
        tau, k, reps = 0.75, 25, 6000
        p2, p3 = lossy_noon_pt_moments(LossyNOONParams.balanced(1, tau))
        d2, d3 = dist_for(tau, 2), dist_for(tau, 3)
        rng = rng_stream(5, 1)
        w_q = np.empty(reps, dtype=complex)
        for i in range(reps):
            e2 = sample_pn(d2, 2, k, rng)
            e3 = sample_pn(d3, 3, k, rng)
            w_q[i] = witness_estimators(e2, e3, k)[1]
        expect = p3 - p2 ** 2
        se = math.sqrt(witness_variances(p2, p3, k)[1] / reps)
        assert abs(w_q.mean().real - expect) < 3 * se

    def test_variance_formulas(self):
        p2, p3 = 0.8, 0.4
        var_l, var_q = witness_variances(p2, p3, 2)
        assert var_l == pytest.approx((1 - p3 ** 2) / 2 + 2.25 * (1 - p2 ** 2) / 2)
        assert var_q == pytest.approx((1 - p3 ** 2) / 2 + (1 - p2 ** 2) * (1 + p2 ** 2))
        assert witness_variances(1.0, 1.0, 7) == (0.0, 0.0)

    @pytest.mark.parametrize("tau", [0.9, 0.6])
    def test_unbiased_at_other_losses(self, tau):
        # moment estimates sampled in bulk; ten thousand repetitions each
        reps, k = 10 ** 4, 100
        p2, p3 = lossy_noon_pt_moments(LossyNOONParams.balanced(1, tau))
        d2, d3 = dist_for(tau, 2), dist_for(tau, 3)
        rng = rng_stream(17, int(tau * 100))
        _, q2 = d2.as_arrays()
        _, v2 = circuits.outcome_weights(d2)
        _, q3 = d3.as_arrays()
        _, v3 = circuits.outcome_weights(d3)
        e2 = v2[rng.choice(q2.size, size=(reps, k), p=q2 / q2.sum())].mean(axis=1)
        e3 = v3[rng.choice(q3.size, size=(reps, k), p=q3 / q3.sum())].mean(axis=1)
        w_l, w_q = witness_estimators(e2, e3, k)
        var_l, var_q = witness_variances(p2, p3, k)
        assert abs(w_l.mean().real - (p3 - (3 * p2 - 1) / 2)) < 3 * math.sqrt(var_l / reps)
        assert abs(w_q.mean().real - (p3 - p2 ** 2)) < 3 * math.sqrt(var_q / reps)

    def test_linear_variance_empirical(self):
        tau, k, reps = 0.9, 30, 4000
        p2, p3 = lossy_noon_pt_moments(LossyNOONParams.balanced(1, tau))
        d2, d3 = dist_for(tau, 2), dist_for(tau, 3)
        rng = rng_stream(6, 2)
        w_l = np.empty(reps, dtype=complex)
        for i in range(reps):
            e2 = sample_pn(d2, 2, k, rng)
            e3 = sample_pn(d3, 3, k, rng)
            w_l[i] = witness_estimators(e2, e3, k)[0]
        var = np.sum(np.abs(w_l - w_l.mean()) ** 2) / (reps - 1)
        assert var == pytest.approx(witness_variances(p2, p3, k)[0], rel=0.12)


class TestMinSamples:
    def test_mild_loss_needs_few_samples(self):
        p2, p3 = lossy_noon_pt_moments(LossyNOONParams.balanced(1, 0.9))
        assert 3 <= min_samples(p2, p3, "quadratic") <= 30

    def test_strong_loss_needs_thousandish(self):
        p2, p3 = lossy_noon_pt_moments(LossyNOONParams.balanced(1, 0.6))
        assert 300 <= min_samples(p2, p3, "quadratic") <= 3000

    def test_separable_is_infinite(self):
        assert min_samples(0.8, 0.8) == math.inf
        p2, p3 = lossy_noon_pt_moments(LossyNOONParams.balanced(1, 0.5))
        assert min_samples(p2, p3, "quadratic") == math.inf

    def test_returned_k_is_minimal(self):
        p2, p3 = lossy_noon_pt_moments(LossyNOONParams.balanced(1, 0.8))
        k_star = min_samples(p2, p3, "quadratic")
        var = lambda k: witness_variances(p2, p3, k)[1]
        w = p3 - p2 ** 2
        assert w + math.sqrt(var(k_star)) < 0
        if k_star > 2:
            assert w + math.sqrt(var(k_star - 1)) >= 0


class TestNoisyDraws:
    def test_zero_std_returns_base(self, rng):
        spec = NoiseSpec.for_noon(BAL, 0.75, alpha_rel_std=0.0, tau_std=0.0)
        for entry in (spec.alpha, spec.tau):
            draws, clamped = _draw_clamped(rng, entry, (50, 3))
            assert draws.shape == (50, 3)
            assert (draws == entry.mean).all()
            assert clamped == 0

    def test_draws_respect_clamps(self):
        spec = NoiseSpec.for_noon(BAL, 0.98, tau_std=0.05)
        for entry in (spec.alpha, spec.tau):
            draws, clamped = _draw_clamped(rng_stream(5, 1), entry, (200, 3))
            raw = rng_stream(5, 1).normal(entry.mean, entry.std, size=(200, 3))
            assert ((entry.lo <= draws) & (draws <= entry.hi)).all()
            assert clamped == np.count_nonzero((raw < entry.lo) | (raw > entry.hi))
        assert clamped > 0  # tau at 0.98 +- 0.05 clips some draws at 1


class TestFastNoon1Path:
    @pytest.mark.parametrize("n", [2, 3])
    def test_moments_match_circuit_engine(self, n, rng):
        runs = 12
        alphas = rng.uniform(0.1, 0.95, size=(runs, n))
        taus = rng.uniform(0.3, 1.0, size=(runs, n))
        fast = noon1_moments(n, alphas, taus)
        for i in range(runs):
            copies = []
            for c in range(n):
                noon = NOONParams(1, alphas[i, c], math.sqrt(1 - alphas[i, c] ** 2))
                copies.append(lossy_noon_density(LossyNOONParams(noon, taus[i, c], taus[i, c])))
            dist = circuits.outcome_distribution(copies, n)
            exact = circuits.multicopy_expectation(dist)
            assert fast[i].real == pytest.approx(exact, abs=1e-10)
            assert abs(fast[i].imag) < 1e-10

    def test_equal_copies_match_closed_forms(self):
        for tau in (0.9, 0.6):
            p = LossyNOONParams.balanced(1, tau)
            p2, p3 = lossy_noon_pt_moments(p)
            a = np.full((1, 2), BAL)
            t = np.full((1, 2), tau)
            assert noon1_moments(2, a, t)[0].real == pytest.approx(p2, abs=1e-12)
            a = np.full((1, 3), BAL)
            t = np.full((1, 3), tau)
            assert noon1_moments(3, a, t)[0].real == pytest.approx(p3, abs=1e-12)

    def test_separable_second_copy_kills_detection(self):
        # third-order witness with one copy driven to a product state
        from ptmoments.criteria import optimal_threshold
        tau = 0.9
        a2 = 1e-6
        p2 = noon1_moments(2, np.array([[BAL, a2]]), np.full((1, 2), tau))[0].real
        p3 = noon1_moments(3, np.array([[BAL, a2, BAL]]), np.full((1, 3), tau))[0].real
        assert p3 - optimal_threshold(min(max(p2, 1e-9), 1.0)) >= -1e-9

    def test_detection_robust_to_third_copy_once_tau2_above_half(self):
        from ptmoments.criteria import optimal_threshold
        tau1, tau2 = 0.6, 0.55
        p2 = noon1_moments(2, np.full((1, 2), BAL), np.array([[tau1, tau2]]))[0].real
        thr = optimal_threshold(min(max(p2, 1e-9), 1.0))
        for tau3 in np.linspace(0.0, 1.0, 21):
            p3 = noon1_moments(3, np.full((1, 3), BAL),
                               np.array([[tau1, tau2, tau3]]))[0].real
            assert p3 - thr < 0


    @pytest.mark.parametrize("params", [
        [(0.3, 0.8), (0.9, 0.6)],
        [(0.0, 0.75), (1.0, 0.9)],
        [(0.6, 0.0), (0.8, 1.0)],
        [(BAL, 0.9), (0.2, 0.55), (0.95, 0.7)],
        [(0.0, 1.0), (1.0, 0.0), (0.6, 0.7)],
        [(1.0, 1.0), (0.0, 0.0), (0.4, 1.0)],
    ])
    def test_distributions_match_engine_array(self, params):
        # alpha and tau at their clamped edges 0 and 1 included
        n = len(params)
        copies = [lossy_noon_density(
            LossyNOONParams(NOONParams(1, a, math.sqrt(1 - a ** 2)), t, t), ModeCutoff(2, 2))
            for a, t in params]
        engine = np.zeros((n + 1) ** (2 * (n - 1)))
        cells, probs = flat_cells(circuits.outcome_distribution(copies, n), n)
        engine[cells] = probs
        rows = _noon1_distributions(n, np.array([[a for a, _ in params]]),
                                    np.array([[t for _, t in params]]))
        cells = reachable_cells(n)
        np.testing.assert_allclose(rows[0], engine[cells], rtol=0, atol=1e-12)
        assert np.abs(np.delete(engine, cells)).max() <= 1e-12

    def test_tables_keep_only_reachable_outcomes(self):
        for n, kept in ((2, 6), (3, 31)):
            table, cumtable, values = _noon1_tables(n)
            assert table.shape == (4 ** n, kept) and values.shape == (kept,)
            np.testing.assert_array_equal(cumtable, np.cumsum(table, axis=1))
            grid = (n + 1,) * (2 * (n - 1))
            full = circuits._readout_values(np.indices(grid).reshape(len(grid), -1).T)
            np.testing.assert_array_equal(values, full[reachable_cells(n)])


class TestFullSimulation:
    def test_requires_single_photon(self):
        plan = SamplingPlan(100, 2, 0)
        with pytest.raises(DomainError):
            full_simulation(LossyNOONParams.balanced(2, 0.9), plan)

    def test_deterministic_and_chunk_independent(self):
        params = LossyNOONParams.balanced(1, 0.75)
        plan = SamplingPlan(k=50, repetitions=6, master_seed=123)
        a = full_simulation(params, plan, k_values=(50,))
        b = full_simulation(params, plan, k_values=(50,))
        assert a == b
        # the point the earlier, batched implementation gave for this plan
        assert a == [SimulationPoint(
            k=50, estimate=EstimatorResult(mean=-0.09747447604755129,
                                           variance=0.015651746274299275,
                                           std_error=0.05107469411606769, k=50,
                                           repetitions=6),
            analytic_witness=-0.21093749999999983, band_low=-0.4263330980791505,
            band_high=0.0044580980791508185, clamped_draws=0)]

    def test_noiseless_lossless_bell_converges(self):
        params = LossyNOONParams.balanced(1, 1.0)
        noise = NoiseSpec.for_noon(BAL, 1.0, alpha_rel_std=0.0, tau_std=0.0)
        plan = SamplingPlan(k=2, repetitions=40, master_seed=7)
        (point,) = full_simulation(params, plan, noise=noise, k_values=(4000,))
        assert point.estimate.mean == pytest.approx(-0.75, abs=0.01)
        assert point.analytic_witness == pytest.approx(-0.75, abs=1e-12)
        assert point.clamped_draws == 0

    def test_band_uses_linear_variance(self):
        params = LossyNOONParams.balanced(1, 0.75)
        plan = SamplingPlan(k=2, repetitions=2, master_seed=1)
        (point,) = full_simulation(params, plan, k_values=(100,))
        p2, p3 = lossy_noon_pt_moments(params)
        width = math.sqrt(witness_variances(p2, p3, 100)[0])
        assert point.band_high - point.band_low == pytest.approx(2 * width, abs=1e-12)


class TestRngStreams:
    def test_streams_are_stable(self):
        a = rng_stream(42, 1, 2).random(4)
        b = rng_stream(42, 1, 2).random(4)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ_by_key(self):
        a = rng_stream(42, 1, 2).random(4)
        b = rng_stream(42, 1, 3).random(4)
        assert not np.array_equal(a, b)
