import math
import warnings
from dataclasses import asdict

import numpy as np
import pytest

from ptmoments import circuits, estimation
from ptmoments.errors import DomainError
from ptmoments.estimation import (
    EstimatorResult,
    NoiseSpec,
    SamplingPlan,
    SimulationPoint,
    _draw_clamped,
    _noon1_coefficients,
    _noon1_tables,
    _sample_values,
    _sampled_estimates,
    full_simulation,
    min_samples,
    noon1_moments,
    rng_stream,
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


class TestSamplePn:
    def test_concentrated_distribution(self, rng):
        dist = circuits.OutcomeDistribution([[0, 0]], [1.0])
        for k in (1, 5, 50):
            np.testing.assert_allclose(_sampled_estimates(dist, 2, k, 3, rng), 1.0)

    def test_sampled_values_are_roots_of_unity(self):
        dist = dist_for(0.75, 3)
        assert np.abs(np.abs(dist.values) - 1.0).max() < 1e-12

    def test_unbiased_and_variance(self):
        tau, k, reps = 0.75, 40, 4000
        dist = dist_for(tau, 2)
        p2, _ = lossy_noon_pt_moments(LossyNOONParams.balanced(1, tau))
        est = _sampled_estimates(dist, 2, k, reps, rng_stream(11, 0))
        se = math.sqrt((1 - p2 ** 2) / k / reps)
        assert abs(est.mean().real - p2) < 3 * se
        var = np.sum(np.abs(est - est.mean()) ** 2) / (reps - 1)
        assert var == pytest.approx((1 - p2 ** 2) / k, rel=0.15)

    def test_copy_count_checked(self, rng):
        with pytest.raises(ValueError):
            _sampled_estimates(dist_for(0.9, 2), 3, 10, 1, rng)

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
            e2 = _sampled_estimates(d2, 2, k, 1, rng)[0]
            e3 = _sampled_estimates(d3, 3, k, 1, rng)[0]
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
        e2 = _sampled_estimates(d2, 2, k, reps, rng)
        e3 = _sampled_estimates(d3, 3, k, reps, rng)
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
            e2 = _sampled_estimates(d2, 2, k, 1, rng)[0]
            e3 = _sampled_estimates(d3, 3, k, 1, rng)[0]
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


class TestNoiseSpec:
    def test_defaults_are_the_papers_noise_levels(self):
        assert asdict(NoiseSpec()) == {"alpha_rel_std": 0.05, "tau_std": 0.05}

    @pytest.mark.parametrize("field", ["alpha_rel_std", "tau_std"])
    @pytest.mark.parametrize("std", [-0.01, math.nan, math.inf])
    def test_rejects_negative_or_non_finite_std(self, field, std):
        with pytest.raises(DomainError, match=field):
            NoiseSpec(**{field: std})

    def test_narrow_fluctuation_warning(self):
        # tau_std = 0.05 exceeds a tenth of tau at 0.45, not at 0.75
        plan = SamplingPlan(k=2, repetitions=2, master_seed=0)
        with pytest.warns(UserWarning, match="noise on 'tau' exceeds a tenth of its mean"):
            full_simulation(LossyNOONParams.balanced(1, 0.45), plan, k_values=(10,))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            full_simulation(LossyNOONParams.balanced(1, 0.75), plan, k_values=(10,))


class TestNoisyDraws:
    def test_zero_std_returns_base(self):
        spec = NoiseSpec(0.0, 0.0)
        for mean, std in ((BAL, spec.alpha_rel_std * BAL), (0.75, spec.tau_std)):
            rng = rng_stream(5, 1)
            draws, clamped = _draw_clamped(rng, mean, std, (50, 3))
            assert draws.shape == (50, 3)
            assert (draws == mean).all()
            assert clamped == 0
            assert rng.random() == rng_stream(5, 1).random()  # nothing was drawn

    def test_draws_respect_clamps(self):
        spec = NoiseSpec()
        for mean, std in ((BAL, spec.alpha_rel_std * BAL), (0.98, spec.tau_std)):
            draws, clamped = _draw_clamped(rng_stream(5, 1), mean, std, (200, 3))
            raw = rng_stream(5, 1).normal(mean, std, size=(200, 3))
            np.testing.assert_array_equal(draws, np.clip(raw, 0.0, 1.0))
            assert clamped == np.count_nonzero((raw < 0.0) | (raw > 1.0))
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
        engine = circuits.outcome_distribution(copies, n)
        cells, table, _, _ = _noon1_tables(n)
        coefs = _noon1_coefficients([[a for a, _ in params]], [[t for _, t in params]])
        fast = circuits.OutcomeDistribution(cells, (table.T @ coefs)[:, 0])
        for outcome in set(engine.outcomes()) | set(fast.outcomes()):
            assert fast.probability(outcome) == pytest.approx(engine.probability(outcome),
                                                              abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3])
    def test_sampled_values_match_fixed_row(self, n):
        # one fixed run repeated: the draws average to that run's p_n
        draws = 20000
        rng = rng_stream(5, n)
        alphas = np.tile(rng.uniform(0.2, 0.9, n), (draws, 1))
        taus = np.tile(rng.uniform(0.5, 1.0, n), (draws, 1))
        values = _sample_values(n, alphas, taus, rng.random(draws))
        exact = noon1_moments(n, alphas[:1], taus[:1])[0]
        std_error = math.sqrt((1.0 - abs(exact) ** 2) / draws)
        assert abs(values.mean() - exact) < 4 * std_error

    @pytest.mark.parametrize("n", [2, 3])
    def test_sampled_values_match_varying_rows(self, n):
        # every run has its own copies: the draws average to the mean p_n
        draws = 20000
        rng = rng_stream(6, n)
        alphas = rng.uniform(0.0, 1.0, (draws, n))
        taus = rng.uniform(0.5, 1.0, (draws, n))
        values = _sample_values(n, alphas, taus, rng.random(draws))
        exact = noon1_moments(n, alphas, taus)
        std_error = math.sqrt(np.sum(1.0 - np.abs(exact) ** 2)) / draws
        assert abs(values.mean() - exact.mean()) < 4 * std_error

    def test_tables_keep_only_reachable_outcomes(self):
        for n, kept in ((2, 6), (3, 31)):
            cells, table, cumtable, values = _noon1_tables(n)
            assert cells.shape == (kept, 2 * (n - 1))
            assert table.shape == (4 ** n, kept) and values.shape == (kept,)
            assert (table > 0).any(axis=0).all()  # every kept outcome is reached
            np.testing.assert_array_equal(cumtable, np.cumsum(table, axis=1))
            # distinct rows in lexicographic order, and their readout values
            uniform = circuits.OutcomeDistribution(cells, np.full(kept, 1.0 / kept))
            np.testing.assert_array_equal(values, uniform.values)


def reference_coefficients(alphas, taus):
    """The Kronecker coefficients one row per run, (runs, 4^n): the layout
    the sampler is checked against."""
    alphas = np.asarray(alphas, dtype=float)
    taus = np.asarray(taus, dtype=float)
    betas = np.sqrt(np.clip(1.0 - alphas ** 2, 0.0, 1.0))
    ab = alphas * betas
    per_copy = np.stack([1.0 - taus, taus * (alphas ** 2 - ab), taus * (betas ** 2 - ab),
                         2.0 * taus * ab], axis=-1)
    coefs = per_copy[:, 0]
    for c in range(1, per_copy.shape[1]):
        coefs = (coefs[:, :, None] * per_copy[:, c, None, :]).reshape(coefs.shape[0], -1)
    return coefs


def reference_sample_values(n, alphas, taus, uniforms):
    """The sampler as one product of the row-per-run coefficients with the
    cumulative table."""
    _, _, cumtable, values = _noon1_tables(n)
    cum = reference_coefficients(alphas, taus) @ cumtable
    targets = uniforms * cum[:, -1]
    idx = (cum < targets[:, None]).sum(axis=1)
    return values[np.minimum(idx, values.size - 1)]


def reference_moments(n, alphas, taus):
    _, table, _, values = _noon1_tables(n)
    return reference_coefficients(alphas, taus) @ table @ values


class TestSamplerBitwise:
    """The run-major, blocked table product gives the same bits as one
    product of the row-per-run coefficients, on either side of the block
    width.  Equality of the two products depends on the BLAS kernel and its
    thread count, so CI runs this class at one and at two BLAS threads."""

    RUNS = [1, 2, 127, 128, 129, 1000, 3162]

    @staticmethod
    def draws(n, runs):
        rng = rng_stream(17, n, runs)
        return rng.uniform(0.0, 1.0, (runs, n)), rng.uniform(0.0, 1.0, (runs, n)), rng.random(runs)

    @pytest.mark.parametrize("runs", RUNS)
    @pytest.mark.parametrize("n", [2, 3])
    def test_sampled_values(self, n, runs):
        alphas, taus, uniforms = self.draws(n, runs)
        assert np.array_equal(_sample_values(n, alphas, taus, uniforms),
                              reference_sample_values(n, alphas, taus, uniforms))

    @pytest.mark.parametrize("runs", RUNS + [3721])
    @pytest.mark.parametrize("n", [2, 3])
    def test_moments(self, n, runs):
        alphas, taus, _ = self.draws(3, runs)
        # fig3b passes column slices of (runs, 3) arrays
        alphas, taus = alphas[:, :n], taus[:, :n]
        assert np.array_equal(noon1_moments(n, alphas, taus), reference_moments(n, alphas, taus))

    @pytest.mark.filterwarnings("ignore:noise on 'tau' exceeds")  # default noise at tau=0.3
    @pytest.mark.parametrize("noise", [NoiseSpec(), NoiseSpec(0.0, 0.0), NoiseSpec(0.07, 0.03)])
    @pytest.mark.parametrize("tau", [0.9, 0.6, 0.3])
    def test_full_simulation(self, tau, noise, monkeypatch):
        params = LossyNOONParams.balanced(1, tau)
        plan = SamplingPlan(k=2, repetitions=3, master_seed=29)
        k_values = (2, 10, 129, 1000)
        points = full_simulation(params, plan, noise, k_values)
        monkeypatch.setattr(estimation, "_sample_values", reference_sample_values)
        assert full_simulation(params, plan, noise, k_values) == points


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
        plan = SamplingPlan(k=2, repetitions=40, master_seed=7)
        (point,) = full_simulation(params, plan, noise=NoiseSpec(0.0, 0.0), k_values=(4000,))
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
