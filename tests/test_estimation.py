import math
import warnings
from dataclasses import asdict
from itertools import product

import numpy as np
import pytest

from ptmoments import circuits, estimation
from ptmoments.errors import DomainError
from ptmoments.estimation import (
    EstimatorResult,
    NoiseSpec,
    SamplingPlan,
    SimulationPoint,
    _averaged_copy,
    _clamped_moments,
    _mean_values,
    _noon1_terms,
    _sampled_estimates,
    full_simulation,
    min_samples,
    noon1_moments,
    rng_stream,
    witness_estimators,
    witness_variances,
)
from ptmoments.fock import BipartiteDensityOperator, ModeCutoff
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


def law_for(tau, n):
    return circuits.value_law([lossy_noon_density(LossyNOONParams.balanced(1, tau))] * n)


# ---------------------------------------------------------------------------
# The per-shot model of the noisy-copy experiment, the reference for
# full_simulation: every copy of every shot draws its own alpha and tau, and
# each shot's class comes from that shot's own value law.
# ---------------------------------------------------------------------------

def _draw_clamped(rng, mean, std, shape):
    """Gaussian draws around mean clamped to [0, 1], and how many were
    clamped; a zero std draws nothing from rng."""
    raw = rng.normal(mean, std, size=shape) if std > 0 else np.full(shape, mean)
    clipped = np.clip(raw, 0.0, 1.0)
    return clipped, int(np.count_nonzero(clipped != raw))


def _sample_classes(n, alphas, taus, uniforms):
    """One readout class per run from its own value law, n = 2 or 3: how many
    of the law's first n-1 cumulative sums lie below the run's uniform."""
    t = noon1_moments(n, alphas, taus)
    p0, p1 = (1.0 + (n - 1.0) * t) / n, (1.0 - t) / n
    return (p0 + p1 * np.arange(n - 1)[:, None] < uniforms).sum(axis=0)


def per_shot_simulation(params, repetitions, seed, noise, k):
    """Optimal-witness estimates of ``repetitions`` runs of k shots per circuit
    with per-shot noise draws, and the number of clamped draws."""
    alpha = abs(params.noon.alpha)
    spread = [(alpha, noise.alpha_rel_std * alpha), (params.tau_a, noise.tau_std)]
    estimates, clamped = np.empty((repetitions, 2), dtype=complex), 0
    for r in range(repetitions):
        rng = rng_stream(seed, k, r)
        for i, n in enumerate((2, 3)):
            (a, ca), (t, ct) = (_draw_clamped(rng, *ms, (k, n)) for ms in spread)
            clamped += ca + ct
            classes = _sample_classes(n, a, t, rng.random(k))
            estimates[r, i] = _mean_values(np.bincount(classes, minlength=n), k)
    return estimation._optimal_witness_from_estimates(estimates[:, 0], estimates[:, 1]), clamped


class TestSamplePn:
    def test_concentrated_distribution(self, rng):
        dist = circuits.OutcomeDistribution([[0, 0]], [1.0])
        for k in (1, 5, 50):
            np.testing.assert_allclose(_sampled_estimates(dist.value_law(), 2, k, 3, rng), 1.0)
        assert estimation.estimate_pn(dist, 2, 5, 2, rng).mean == 1.0

    def test_sampled_values_are_roots_of_unity(self):
        dist = dist_for(0.75, 3)
        assert np.abs(np.abs(dist.values) - 1.0).max() < 1e-12

    def test_unbiased_and_variance(self):
        tau, k, reps = 0.75, 40, 4000
        p2, _ = lossy_noon_pt_moments(LossyNOONParams.balanced(1, tau))
        est = _sampled_estimates(law_for(tau, 2), 2, k, reps, rng_stream(11, 0))
        se = math.sqrt((1 - p2 ** 2) / k / reps)
        assert abs(est.mean().real - p2) < 3 * se
        var = np.sum(np.abs(est - est.mean()) ** 2) / (reps - 1)
        assert var == pytest.approx((1 - p2 ** 2) / k, rel=0.15)

    def test_copy_count_checked(self, rng):
        with pytest.raises(ValueError):
            _sampled_estimates(law_for(0.9, 2), 3, 10, 1, rng)

    def test_real_part_of_p3_has_the_exact_variance(self):
        # the law gives Re p_3,k the variance ((1 + p3)/2 - p3^2)/k; the
        # complex estimate, whose spread estimate_pn reports, has (1 - p3^2)/k
        tau, k, reps = 0.75, 50, 20000
        _, p3 = lossy_noon_pt_moments(LossyNOONParams.balanced(1, tau))
        est = _sampled_estimates(law_for(tau, 3), 3, k, reps, rng_stream(12, 0))
        assert np.var(est.real, ddof=1) == pytest.approx(((1 + p3) / 2 - p3 ** 2) / k, rel=0.05)
        result = estimation.estimate_pn(law_for(tau, 3), 3, k, reps, rng_stream(12, 0))
        assert result.variance == pytest.approx((1 - p3 ** 2) / k, rel=0.05)
        assert result.mean == pytest.approx(est.real.mean(), abs=1e-15)

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
        d2, d3 = law_for(tau, 2), law_for(tau, 3)
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
        d2, d3 = law_for(tau, 2), law_for(tau, 3)
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
        d2, d3 = law_for(tau, 2), law_for(tau, 3)
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


    @staticmethod
    def scalar_min_samples(p2, p3, criterion):
        """Reference: one point at a time, with Python ints for k, by doubling
        and bisection; a smallest k above 1e12 gives inf."""
        if criterion == "quadratic":
            mean = p3 - p2 ** 2
            var = lambda k: ((1.0 - p3 ** 2) / k + 2.0 * (1.0 - p2 ** 2)
                             * (1.0 + (2 * k - 3) * p2 ** 2) / (k * (k - 1)))
        else:
            mean = p3 - (3.0 * p2 - 1.0) / 2.0
            var = lambda k: (1.0 - p3 ** 2) / k + 2.25 * (1.0 - p2 ** 2) / k
        if mean >= 0:
            return math.inf
        k = 2
        while mean + math.sqrt(var(k)) >= 0:
            k *= 2
        lo, hi = max(k // 2, 2), k
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            if mean + math.sqrt(var(mid)) < 0:
                hi = mid
            else:
                lo = mid
        k = lo if mean + math.sqrt(var(lo)) < 0 else hi
        return math.inf if k > 10 ** 12 else k

    @pytest.mark.parametrize("criterion", ["quadratic", "linear"])
    def test_fig3c_grid_gives_the_scalar_ints_and_infs(self, criterion):
        n, tau = (x.ravel() for x in np.meshgrid(
            np.arange(1, 11), np.round(np.arange(0.5, 1.0 + 1e-12, 2.5e-3), 10), indexing="ij"))
        p2, p3 = lossy_noon_pt_moments(LossyNOONParams.balanced(n, tau))
        k_star = min_samples(p2, p3, criterion)
        assert k_star.shape == (2010,)
        got = [(type(k), k) for k in k_star.tolist()]
        ref = [self.scalar_min_samples(a, b, criterion) for a, b in zip(p2.tolist(), p3.tolist())]
        assert got == [(type(k), k) for k in ref]
        assert {int, float} == {t for t, _ in got}
        if criterion == "quadratic":  # fig3c's: its k*(k-1) passes the int64 range
            assert max(k for t, k in got if t is int) ** 2 > 2 ** 63
        assert min_samples(p2[5], p3[5], criterion) == ref[5]
        assert type(min_samples(float(p2[5]), float(p3[5]), criterion)) is type(ref[5])

    @pytest.mark.parametrize("criterion", ["quadratic", "linear"])
    def test_random_points_give_the_scalar_ints_and_infs(self, criterion):
        rng = np.random.default_rng(20)
        p2 = 1.0 - rng.random(2000)  # in (0, 1]
        threshold = p2 ** 2 if criterion == "quadratic" else (3.0 * p2 - 1.0) / 2.0
        # witness means from -1 to -1e-8, so k* runs from 2 past 1e12
        p3 = np.clip(threshold - 10.0 ** rng.uniform(-8.0, 0.0, p2.size), -1.0, 1.0)
        got = [(type(k), k) for k in min_samples(p2, p3, criterion).tolist()]
        ref = [self.scalar_min_samples(a, b, criterion) for a, b in zip(p2.tolist(), p3.tolist())]
        assert got == [(type(k), k) for k in ref]
        assert {int, float} == {t for t, _ in got}

    @pytest.mark.parametrize("criterion", ["quadratic", "linear"])
    def test_k_star_between_2_to_the_39_and_1e12_is_an_int(self, criterion):
        # at p2 = 1/2 both thresholds are 1/4, and k* is about A/m^2 with
        # A = (1 - p3^2) + 2.25 (1 - p2^2) (linear) or (1 - p3^2) + 4 p2^2 (1 - p2^2)
        a = 2.625 if criterion == "linear" else 1.6875
        p2, p3 = 0.5, 0.25 - math.sqrt(a / 6e11)
        k_star = min_samples(p2, p3, criterion)
        assert type(k_star) is int and 2 ** 39 < k_star <= 10 ** 12
        assert k_star == self.scalar_min_samples(p2, p3, criterion)

    def test_no_k_up_to_1e12_is_inf(self):
        p2, p3 = 0.5, 0.25 - math.sqrt(2.625 / 1.1e12)
        assert self.scalar_min_samples(p2, p3, "linear") == math.inf
        assert min_samples(p2, p3, "linear") == math.inf
        # a witness mean whose square underflows
        assert min_samples(0.5, 0.25 - 1e-170, "linear") == math.inf

    @pytest.mark.parametrize("p2, p3", [(0.0, 0.1), (-0.2, 0.1), (1.0 + 1e-12, 0.1),
                                        (0.5, 1.0 + 1e-12), (0.5, -1.5)])
    def test_unphysical_moments_are_rejected(self, p2, p3):
        with pytest.raises(DomainError):
            min_samples(p2, p3)
        with pytest.raises(DomainError):
            min_samples(np.array([0.5, p2]), np.array([0.1, p3]), "linear")

    def test_array_shape_is_kept(self):
        p2 = np.array([[0.9, 0.8], [0.5, 0.7]])
        k_star = min_samples(p2, 0.3)
        assert k_star.shape == (2, 2)
        assert k_star.tolist() == [[min_samples(a, 0.3) for a in row] for row in p2.tolist()]

    def test_variances_broadcast_over_k(self):
        ks = np.array([2, 3, 1000, 2 ** 40])
        var_l, var_q = witness_variances(0.6, 0.3, ks)
        assert [(a, b) for a, b in zip(var_l.tolist(), var_q.tolist())] == [
            witness_variances(0.6, 0.3, int(k)) for k in ks]
        assert [type(v) for v in witness_variances(0.6, 0.3, 10)] == [float, float]


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
        # a run's value law from its moment t, alpha and tau at their clamped
        # edges 0 and 1 included, against the engine's outcomes summed by class
        n = len(params)
        copies = [lossy_noon_density(
            LossyNOONParams(NOONParams(1, a, math.sqrt(1 - a ** 2)), t, t), ModeCutoff(2, 2))
            for a, t in params]
        engine = circuits.outcome_distribution(copies, n).value_law()
        mean = noon1_moments(n, [[a for a, _ in params]], [[t for _, t in params]])[0]
        law = np.array([1 + (n - 1) * mean] + [1 - mean] * (n - 1)) / n
        np.testing.assert_allclose(law, engine, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("n", [2, 3])
    def test_moments_are_real_cycle_traces(self, n):
        # each run's t is the cycle trace of its copies' partial transposes,
        # which are real symmetric
        rng = rng_stream(8, n)
        alphas, taus = rng.uniform(0.0, 1.0, (20, n)), rng.uniform(0.0, 1.0, (20, n))
        fast = noon1_moments(n, alphas, taus)
        assert fast.dtype == float
        for i in range(20):
            copies = [lossy_noon_density(LossyNOONParams(
                NOONParams(1, a, math.sqrt(1 - a ** 2)), t, t)) for a, t in zip(alphas[i], taus[i])]
            trace = circuits.cycle_traces(copies)[-1]
            assert abs(trace.imag) < 1e-15
            assert abs(fast[i] - trace.real) < 1e-15

    def test_terms_are_the_basis_products_moments(self):
        h = 1 / math.sqrt(2)
        basis = [BipartiteDensityOperator.from_state_vector(v, ModeCutoff(2, 2))
                 for v in ([1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, h, h, 0])]
        # the terms are exact, so the moments of basis states built with
        # rounding match them to the rounding
        for n, kept in ((2, 8), (3, 19)):
            index, weights = _noon1_terms(n)
            assert index.shape == (kept, n)
            assert set(weights.tolist()) <= {0.25, 0.5, 1.0}
            tensor = np.zeros((4,) * n)
            tensor[tuple(index.T)] = weights
            values = circuits.class_values(np.arange(n), n)
            for copies in product(range(4), repeat=n):
                law = circuits.value_law([basis[b] for b in copies])
                assert tensor[copies] == pytest.approx((law @ values).real, abs=1e-15)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_terms_equal_the_validated_basis_operators_cycle_traces(self, n):
        # reference: the tensor built one basis product at a time, from
        # validated operators through the public cycle_traces
        basis = [BipartiteDensityOperator(ModeCutoff(2, 2), np.outer(v, v) / np.dot(v, v),
                                          check_psd=False)
                 for v in ([1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 1, 1, 0])]
        tensor = np.array([circuits.cycle_traces(copies)[-1]
                           for copies in product(basis, repeat=n)]).real.reshape((4,) * n)
        index, weights = _noon1_terms(n)
        assert np.array_equal(index, np.argwhere(tensor))
        assert weights.tobytes() == tensor[tuple(index.T)].tobytes()
        assert not index.flags.writeable and not weights.flags.writeable

    def test_cold_simulation_builds_no_density_operator(self, monkeypatch):
        calls = []
        init = BipartiteDensityOperator._init

        def counted(self, *args):
            calls.append(args[0])
            return init(self, *args)

        monkeypatch.setattr(BipartiteDensityOperator, "_init", counted)
        BipartiteDensityOperator(ModeCutoff(1, 1), [[1.0]])
        assert len(calls) == 1  # the count sees the constructor
        for cached in (estimation._noon1_terms, estimation._analytic_band,
                       estimation._gauss_legendre):
            cached.cache_clear()
        full_simulation(LossyNOONParams.balanced(1, 0.75), SamplingPlan(2, 2, 0), k_values=(10,))
        assert len(calls) == 1

    @pytest.mark.parametrize("n", [2, 3])
    def test_sampled_values_match_fixed_row(self, n):
        # one fixed run repeated: the draws average to that run's p_n
        draws = 20000
        rng = rng_stream(5, n)
        alphas = np.tile(rng.uniform(0.2, 0.9, n), (draws, 1))
        taus = np.tile(rng.uniform(0.5, 1.0, n), (draws, 1))
        classes = _sample_classes(n, alphas, taus, rng.random(draws))
        mean = _mean_values(np.bincount(classes, minlength=n), draws)
        exact = noon1_moments(n, alphas[:1], taus[:1])[0]
        std_error = math.sqrt((1.0 - abs(exact) ** 2) / draws)
        assert abs(mean - exact) < 4 * std_error

    @pytest.mark.parametrize("n", [2, 3])
    def test_sampled_values_match_varying_rows(self, n):
        # every run has its own copies: the draws average to the mean p_n
        draws = 20000
        rng = rng_stream(6, n)
        alphas = rng.uniform(0.0, 1.0, (draws, n))
        taus = rng.uniform(0.5, 1.0, (draws, n))
        classes = _sample_classes(n, alphas, taus, rng.random(draws))
        mean = _mean_values(np.bincount(classes, minlength=n), draws)
        exact = noon1_moments(n, alphas, taus)
        std_error = math.sqrt(np.sum(1.0 - np.abs(exact) ** 2)) / draws
        assert abs(mean - exact.mean()) < 4 * std_error


def one_run_at_a_time(f):
    """``f`` over (n, alphas, taus, *per-run arrays) called once per run."""
    def per_run(n, *arrays):
        return np.concatenate([f(n, *(a[i:i + 1] for a in arrays))
                               for i in range(len(arrays[0]))])
    return per_run


class TestSamplerBitwise:
    """The noisy-copy moments for a batch of runs have the bits of the same
    runs one call each, at run counts on either side of 128 and at fig3b's
    panel size; a batch of repetitions' class counts has the bits of the
    same repetitions drawn one call each; and full_simulation's points do
    not depend on the other budgets asked for.  The moments sum their terms
    one at a time, elementwise, and call no BLAS routine; CI runs this class
    at one and at two BLAS threads to keep it so."""

    RUNS = [1, 2, 127, 128, 129, 1000, 3162]

    @staticmethod
    def draws(n, runs):
        rng = rng_stream(17, n, runs)
        return rng.uniform(0.0, 1.0, (runs, n)), rng.uniform(0.0, 1.0, (runs, n)), rng.random(runs)

    @pytest.mark.parametrize("runs", RUNS)
    @pytest.mark.parametrize("n", [2, 3])
    def test_sampled_values(self, n, runs):
        # fig7 draws its repetitions in one batch, full_simulation one at a time
        law = law_for(0.75, n)
        batch = _sampled_estimates(law, n, 1000, runs, rng_stream(17, n, runs))
        rng = rng_stream(17, n, runs)
        one_at_a_time = [_sampled_estimates(law, n, 1000, 1, rng) for _ in range(runs)]
        assert np.array_equal(batch, np.concatenate(one_at_a_time))

    @pytest.mark.parametrize("runs", RUNS + [3721])  # 3721 = 61^2, a fig3b panel
    @pytest.mark.parametrize("n", [2, 3])
    def test_moments(self, n, runs):
        alphas, taus, _ = self.draws(3, runs)
        # fig3b passes column slices of (runs, 3) arrays
        alphas, taus = alphas[:, :n], taus[:, :n]
        assert np.array_equal(noon1_moments(n, alphas, taus),
                              one_run_at_a_time(noon1_moments)(n, alphas, taus))

    @pytest.mark.filterwarnings("ignore:noise on 'tau' exceeds")  # default noise at tau=0.3
    @pytest.mark.parametrize("noise", [NoiseSpec(), NoiseSpec(0.0, 0.0), NoiseSpec(0.07, 0.03)])
    @pytest.mark.parametrize("tau", [0.9, 0.6, 0.3])
    def test_full_simulation(self, tau, noise):
        params = LossyNOONParams.balanced(1, tau)
        plan = SamplingPlan(k=2, repetitions=3, master_seed=29)
        k_values = (2, 10, 129, 1000)
        points = full_simulation(params, plan, noise, k_values)
        assert [p.k for p in points] == list(k_values)
        assert points == [p for k in k_values for p in full_simulation(params, plan, noise, (k,))]
        assert points[::-1] == full_simulation(params, plan, noise, k_values[::-1])


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
        # the point this plan gives with each repetition's class counts drawn
        # from the law of identical copies of the noise-averaged state
        assert a == [SimulationPoint(
            k=50, estimate=EstimatorResult(mean=-0.07566683932484196,
                                           variance=0.018859779538960002,
                                           std_error=0.05606511027213509, k=50,
                                           repetitions=6),
            analytic_witness=-0.21093749999999978, band_low=-0.42633309807915043,
            band_high=0.004458098079150874, clamped_draws=0.0004299773579079178)]

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


def clamped_reference(mean, std):
    """_clamped_moments by scipy: the clamp masses from ndtr and the
    interior by adaptive quadrature over the standard normal variable."""
    from scipy.integrate import quad
    from scipy.special import ndtr
    if std == 0:
        x = min(max(mean, 0.0), 1.0)
        return 0.0, x, x * x, x * math.sqrt(1.0 - x * x)
    lo, hi = -mean / std, (1.0 - mean) / std
    above = float(ndtr(-hi))

    def interior(g):
        a, b = max(lo, -14.0), min(hi, 14.0)
        return quad(lambda z: g(mean + std * z) * math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi),
                    a, b, points=[0.0] if a < 0.0 < b else None, limit=200,
                    epsabs=1e-15, epsrel=1e-13)[0]

    return (float(ndtr(lo)) + above, above + interior(lambda x: x),
            above + interior(lambda x: x * x), interior(lambda x: x * math.sqrt(1.0 - x * x)))


def noisy_moments(params, noise):
    alpha = abs(params.noon.alpha)
    return _averaged_copy(alpha, noise.alpha_rel_std * alpha, params.tau_a, noise.tau_std)


class TestNoiseAveragedLaw:
    """full_simulation draws from the law of identical copies of the
    noise-averaged state; these hold that law to references and the
    experiment to the per-shot model it replaces."""

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("mean, std", [
        (BAL, 0.0), (1.0, 0.0), (0.0, 0.0),  # no spread: the point itself
        (0.03, 0.05), (0.0, 0.05),  # the clamp at 0 within one std
        (0.97, 0.05), (1.0, 0.05), (0.98, 0.05),  # the clamp at 1 within one std
        (BAL, 0.05 * BAL), (0.9, 0.05), (0.75, 0.05), (0.6, 0.05), (0.45, 0.2), (0.5, 1.0),
        (0.3, 1e-6), (BAL, 1e-6), (1.0 - 5e-7, 1e-6), (4e-7, 1e-6),  # a narrow spread
    ])
    def test_clamped_moments_match_quadrature(self, mean, std):
        got, want = _clamped_moments(mean, std), clamped_reference(mean, std)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("tau", [1.0, 0.9, 0.75, 0.6, 0.3, 0.0])
    def test_zero_noise_is_the_closed_form(self, tau):
        params = LossyNOONParams.balanced(1, tau)
        p2, p3, clamped = noisy_moments(params, NoiseSpec(0.0, 0.0))
        np.testing.assert_allclose((p2, p3), lossy_noon_pt_moments(params), rtol=0, atol=1e-15)
        assert clamped == 0.0

    @pytest.mark.parametrize("n", [2, 3])
    def test_averaged_copy_is_the_mean_of_per_run_moments(self, n):
        # at tau = 0.6 under the default noise, over 400,000 noisy runs
        params, runs = LossyNOONParams.balanced(1, 0.6), 400_000
        rng = rng_stream(31, n)
        alphas, _ = _draw_clamped(rng, BAL, 0.05 * BAL, (runs, n))
        taus, _ = _draw_clamped(rng, 0.6, 0.05, (runs, n))
        per_run = noon1_moments(n, alphas, taus)
        exact = noisy_moments(params, NoiseSpec())[n - 2]
        assert abs(per_run.mean() - exact) < 4 * per_run.std(ddof=1) / math.sqrt(runs)

    @pytest.mark.filterwarnings("ignore:noise on 'tau' exceeds")
    @pytest.mark.parametrize("tau", [0.9, 0.75, 0.6])
    def test_experiment_matches_the_per_shot_model(self, tau):
        # fig4's taus, k = 1000, 400 repetitions of each; the witness mean
        # and spread within 4 standard errors, and clamped_draws, the
        # expected count, within 4 standard deviations of the drawn count
        params, reps, k = LossyNOONParams.balanced(1, tau), 400, 1000
        (point,) = full_simulation(params, SamplingPlan(k, reps, 41), k_values=(k,))
        ref, clamped = per_shot_simulation(params, reps, 43, NoiseSpec(), k)
        var, ref_var = point.estimate.variance, np.var(ref, ddof=1)
        assert abs(point.estimate.mean - ref.mean()) < 4 * math.sqrt((var + ref_var) / reps)
        std_error = math.sqrt((var + ref_var) / (2 * (reps - 1)))
        assert abs(math.sqrt(var) - math.sqrt(ref_var)) < 4 * std_error
        draws = reps * k * (2 + 3) * 2
        p = point.clamped_draws / draws
        assert abs(clamped - point.clamped_draws) < 4 * math.sqrt(draws * p * (1 - p)) + 1e-9


class TestIntegerSizes:
    @pytest.mark.parametrize("call", [
        lambda: SamplingPlan(k=math.nan, repetitions=2, master_seed=0),
        lambda: SamplingPlan(k=10.5, repetitions=2, master_seed=0),
        lambda: SamplingPlan(k=10.0, repetitions=2, master_seed=0),
        lambda: SamplingPlan(k=1, repetitions=2, master_seed=0),
        lambda: SamplingPlan(k=10, repetitions=math.nan, master_seed=0),
        lambda: SamplingPlan(k=10, repetitions=2.5, master_seed=0),
        lambda: SamplingPlan(k=10, repetitions=2, master_seed=-1),
        lambda: SamplingPlan(k=10, repetitions=2, master_seed=1.5),
        lambda: full_simulation(LossyNOONParams.balanced(1, 0.9),
                                SamplingPlan(2, 2, 0), k_values=(math.nan,)),
        lambda: full_simulation(LossyNOONParams.balanced(1, 0.9),
                                SamplingPlan(2, 2, 0), k_values=(10.5,)),
        lambda: full_simulation(LossyNOONParams.balanced(1, 0.9),
                                SamplingPlan(2, 2, 0), k_values=(10, 1)),
        lambda: estimation.estimate_pn(law_for(0.9, 2), 2, math.nan, 2, rng_stream(0)),
        lambda: estimation.estimate_pn(law_for(0.9, 2), 2, 10.5, 2, rng_stream(0)),
        lambda: estimation.estimate_pn(law_for(0.9, 2), 2, 10, 2.0, rng_stream(0)),
        lambda: _sampled_estimates(law_for(0.9, 2), 2, 10.5, 1, rng_stream(0)),
        lambda: _sampled_estimates(law_for(0.9, 2), 2, 0, 1, rng_stream(0)),
    ], ids=["plan-k-nan", "plan-k-half", "plan-k-float", "plan-k-1", "plan-reps-nan",
            "plan-reps-half", "plan-seed-negative", "plan-seed-float", "fullsim-k-nan",
            "fullsim-k-half", "fullsim-k-1", "estimate-k-nan", "estimate-k-half",
            "estimate-reps-float", "sampled-k-half", "sampled-k-0"])
    def test_non_integer_or_small_sizes_raise_domain_error(self, call):
        with pytest.raises(DomainError):
            call()

    def test_numpy_integers_are_sizes(self):
        plan = SamplingPlan(k=np.int64(10), repetitions=np.int32(2), master_seed=np.uint8(3))
        (point,) = full_simulation(LossyNOONParams.balanced(1, 0.9), plan,
                                   k_values=(np.int64(10),))
        assert point == full_simulation(LossyNOONParams.balanced(1, 0.9),
                                        SamplingPlan(10, 2, 3), k_values=(10,))[0]


class TestRngStreams:
    def test_streams_are_stable(self):
        a = rng_stream(42, 1, 2).random(4)
        b = rng_stream(42, 1, 2).random(4)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ_by_key(self):
        a = rng_stream(42, 1, 2).random(4)
        b = rng_stream(42, 1, 3).random(4)
        assert not np.array_equal(a, b)
