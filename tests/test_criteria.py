import math
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptmoments import criteria, gaussian
from ptmoments.criteria import (
    CriterionReport,
    PtMomentVector,
    descartes_test,
    gaussian_physicality_bound,
    hankel_matrix,
    hankel_test,
    newton_elementary,
    optimal_threshold,
    p3_linear,
    p3_optimal,
    p3_quadratic,
    simon_gaussian3,
)
from ptmoments.errors import DomainError, OrderError


def moments_of_spectrum(lam, n_max):
    lam = np.asarray(lam, dtype=float)
    return PtMomentVector(tuple(float(np.sum(lam ** n)) for n in range(1, n_max + 1)))


nonneg_spectra = st.lists(
    st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=8
).filter(lambda xs: sum(xs) > 1e-3).map(lambda xs: np.array(xs) / np.sum(xs))


class TestMomentVector:
    def test_rejects_bad_first_moment(self):
        with pytest.raises(ValueError):
            PtMomentVector.of(0.9, 0.5)

    def test_rejects_moment_growth_violation(self):
        with pytest.raises(ValueError):
            PtMomentVector.of(1.0, 0.5, 0.9)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_rejects_non_finite(self, bad, position):
        ms = [1.0, 0.5, 0.25]
        ms[position] = bad
        with pytest.raises(DomainError):
            PtMomentVector.of(*ms)

    def test_accessor_is_one_based(self):
        p = PtMomentVector.of(1.0, 0.5, 0.25)
        assert p.p(1) == 1.0 and p.p(2) == 0.5 and p.p(3) == 0.25

    @pytest.mark.parametrize("k", [-1, 0, 4])
    def test_accessor_rejects_missing_order(self, k):
        with pytest.raises(OrderError):
            PtMomentVector.of(1.0, 0.5, 0.25).p(k)


class TestHankel:
    def test_order_one(self):
        np.testing.assert_allclose(hankel_matrix(PtMomentVector.of(1.0), 1), [[1.0]])

    def test_order_three_layout(self):
        m = hankel_matrix(PtMomentVector.of(1.0, 0.5, 0.25), 3)
        np.testing.assert_allclose(m, [[1.0, 0.5], [0.5, 0.25]])

    def test_pure_product_all_ones(self):
        m = hankel_matrix(PtMomentVector.of(*([1.0] * 5)), 5)
        np.testing.assert_allclose(m, np.ones((3, 3)))
        w = np.linalg.eigvalsh(m)
        assert w[0] == pytest.approx(0.0, abs=1e-12)  # PSD, rank one

    def test_rejects_even_order(self):
        with pytest.raises(OrderError):
            hankel_matrix(PtMomentVector.of(1.0, 0.5), 2)

    def test_rejects_missing_moments(self):
        with pytest.raises(OrderError):
            hankel_test(PtMomentVector.of(1.0, 0.5, 0.25), 5)

    def test_bell_detected_at_order_three(self):
        report = hankel_test(PtMomentVector.of(1.0, 1.0, 0.25), 3)
        assert report.detected and report.witness < 0


class TestNewton:
    def test_first_elementary_values(self):
        e = newton_elementary(PtMomentVector.of(1.0))
        np.testing.assert_allclose(e, [1.0, 1.0])

    def test_e2_e3_closed_forms(self):
        p2, p3 = 0.6, 0.3
        e = newton_elementary(PtMomentVector.of(1.0, p2, p3))
        assert e[2] == pytest.approx((1 - p2) / 2)
        assert e[3] == pytest.approx((e[2] - p2 + p3) / 3)

    @settings(max_examples=60, deadline=None)
    @given(nonneg_spectra)
    def test_matches_direct_elementary_polynomials(self, lam):
        n = min(len(lam), 8)
        e = newton_elementary(moments_of_spectrum(lam, n))
        for k in range(1, n + 1):
            direct = sum(np.prod(c) for c in combinations(lam, k))
            assert e[k] == pytest.approx(direct, abs=1e-12)

    def test_bell_detected(self):
        report = descartes_test(PtMomentVector.of(1.0, 1.0, 0.25), 3)
        # e3 = (0 - 1 + 1/4)/3 < 0
        assert report.detected
        assert report.witness == pytest.approx(-0.25, abs=1e-12)

    def test_separable_two_level_spectrum_not_detected(self):
        # e3 = e4 = 0 exactly for a rank-two spectrum; only float noise remains
        report = descartes_test(moments_of_spectrum([0.7, 0.3], 4), 4)
        assert report.witness >= -1e-12

    def test_all_ones_not_detected(self):
        assert not descartes_test(PtMomentVector.of(1.0, 1.0, 1.0, 1.0), 4).detected


class TestThirdOrder:
    def test_linear_boundaries(self):
        assert p3_linear(1.0, 1.0).witness == pytest.approx(0.0, abs=1e-12)
        assert p3_linear(0.5, 0.25).witness == pytest.approx(0.0, abs=1e-12)
        assert p3_linear(1.0, 0.25).witness == pytest.approx(-0.75, abs=1e-12)

    def test_quadratic_boundaries(self):
        assert p3_quadratic(1.0, 1.0).witness == pytest.approx(0.0, abs=1e-12)
        assert p3_quadratic(0.5, 0.25).witness == pytest.approx(0.0, abs=1e-12)
        assert p3_quadratic(1.0, 0.25).witness == pytest.approx(-0.75, abs=1e-12)

    def test_optimal_equals_linear_above_half(self):
        for p2 in np.linspace(0.5 + 1e-9, 1.0, 200):
            assert optimal_threshold(p2) == pytest.approx((3 * p2 - 1) / 2, abs=1e-11)

    def test_optimal_explicit_values(self):
        assert optimal_threshold(0.75) == pytest.approx(0.625, abs=1e-12)
        assert optimal_threshold(1.0) == pytest.approx(1.0, abs=1e-12)
        u = (2 + math.sqrt(0.4)) / 6
        assert optimal_threshold(0.4) == pytest.approx(2 * u ** 3 + (1 - 2 * u) ** 3, abs=1e-14)

    def test_optimal_threshold_against_spectrum_minimizer(self):
        # independent oracle: minimize sum(l^3) over discretized spectra with
        # sum(l) = 1 and sum(l^2) = p2 (SLSQP polish of random starts)
        from scipy import optimize as so
        rng = np.random.default_rng(7)
        for p2 in (0.17, 0.3, 0.4, 0.55, 0.8):
            m = 12
            best = np.inf
            for _ in range(60):
                x0 = rng.random(m)
                x0 /= x0.sum()
                res = so.minimize(
                    lambda l: np.sum(l ** 3), x0, jac=lambda l: 3 * l ** 2,
                    constraints=[{"type": "eq", "fun": lambda l: l.sum() - 1,
                                  "jac": lambda l: np.ones_like(l)},
                                 {"type": "eq", "fun": lambda l: np.sum(l ** 2) - p2,
                                  "jac": lambda l: 2 * l}],
                    bounds=[(0, 1)] * m, method="SLSQP",
                    options={"maxiter": 300, "ftol": 1e-15})
                if res.success:
                    best = min(best, res.fun)
            assert optimal_threshold(p2) == pytest.approx(best, abs=1e-8)

    def test_optimal_dominates_on_grid(self):
        for p2 in np.linspace(1e-4, 1.0, 10000):
            thr = optimal_threshold(p2)
            assert thr >= (3 * p2 - 1) / 2 - 1e-12
            assert thr >= p2 ** 2 - 1e-12

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            p3_optimal(0.0, 0.5)
        with pytest.raises(DomainError):
            p3_optimal(1.2, 0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_rejected(self, bad):
        with pytest.raises(DomainError):
            optimal_threshold(bad)
        for test in (p3_linear, p3_quadratic, p3_optimal, simon_gaussian3):
            with pytest.raises(DomainError):
                test(bad, 0.25)
            with pytest.raises(DomainError):
                test(0.5, bad)

    def test_boundary_purity_nudge(self):
        # threshold continuous across p2 = 1/m boundaries
        for m in (2, 3, 4):
            p2 = 1.0 / m
            below = optimal_threshold(p2 - 1e-9)
            above = optimal_threshold(p2 + 1e-9)
            assert below == pytest.approx(above, abs=1e-7)


class TestOptimalThresholdArrays:
    def test_array_form_matches_scalar_bit_for_bit(self):
        rng = np.random.default_rng(7)
        inv = 1.0 / np.arange(1, 400)
        p2 = np.concatenate([rng.uniform(1e-9, 1.0, 20000), 10 ** rng.uniform(-9, 0, 5000),
                             inv, np.nextafter(inv, 0.0), np.nextafter(inv[1:], 1.0),
                             [1e-9, 1.0]])
        scalar = np.array([optimal_threshold(v) for v in p2.tolist()])
        assert optimal_threshold(p2).tobytes() == scalar.tobytes()
        grid = p2[:12].reshape(3, 4)
        assert optimal_threshold(grid).tobytes() == scalar[:12].reshape(3, 4).tobytes()

    def test_scalar_gives_float(self):
        for p2 in (0.4, np.float64(0.4), np.array(0.4)):
            assert type(optimal_threshold(p2)) is float

    @pytest.mark.parametrize("bad", [0.0, -0.1, 1.2, math.nan, math.inf])
    def test_array_outside_domain_rejected(self, bad):
        with pytest.raises(DomainError):
            optimal_threshold(np.array([0.5, bad, 0.25]))


def exact_optimal_threshold(p2: float) -> Decimal:
    """The closed form a u^3 + (1 - a u)^3 at 700 digits, with a = floor(1/p2)
    taken exactly from the float p2: enough digits for the cancellation in
    1 - a u down to p2 = 1e-300."""
    a = math.floor(1 / Fraction(p2))
    with localcontext() as ctx:
        ctx.prec = 700
        p, a = Decimal(p2), Decimal(a)
        u = (a + (a * (p * (a + 1) - 1)).sqrt()) / (a * (a + 1))
        return a * u ** 3 + (1 - a * u) ** 3


class TestOptimalThresholdAtSmallPurity:
    @staticmethod
    def assert_accurate(p2, thr):
        # a few ulps where the threshold is a normal float, and within one
        # subnormal unit below that (thr is about p2^2)
        for x, t in zip(p2.tolist(), thr.tolist()):
            want = exact_optimal_threshold(x)
            assert abs(Decimal(t) - want) <= Decimal(1e-15) * want + Decimal(2.0 ** -1074), x

    def test_log_grid_against_high_precision(self):
        p2 = np.logspace(-300, -4, 593)
        thr = optimal_threshold(p2)
        self.assert_accurate(p2, thr)
        assert thr.tobytes() == np.array([optimal_threshold(x) for x in p2.tolist()]).tobytes()

    def test_threshold_is_p2_squared_to_within_a_sixth_of_p2(self):
        # the bound that lets p2^2 stand for the threshold below the floor
        for x in np.concatenate([np.logspace(-15, -4, 221), 1 / np.arange(3.0, 60.0)]).tolist():
            assert abs(exact_optimal_threshold(x) / Decimal(x) ** 2 - 1) <= Decimal(0.15 * x)

    def test_both_sides_of_the_floor(self):
        floor = criteria._SMALL_PURITY
        p2 = np.array([np.nextafter(floor, 0.0), floor, np.nextafter(floor, 1.0)])
        thr = optimal_threshold(p2)
        assert thr[0] == p2[0] ** 2
        self.assert_accurate(p2, thr)

    def test_smallest_purities_give_no_warning(self):
        # the suite makes a RuntimeWarning an error
        tiny = np.array([1e-300, 2.0 ** -1022, 5e-324])
        assert optimal_threshold(tiny).tolist() == [0.0, 0.0, 0.0]
        assert p3_optimal(1e-300, 1e-200).witness == 1e-200

    @pytest.mark.parametrize("n_bar", [1e13, 1e15])
    def test_product_of_thermal_modes_is_not_detected(self, n_bar):
        # a separable product: p3 - p2^2 = 1/(3 n^2 + 3n + 1)^2 - 1/(2n + 1)^4 > 0
        pair = gaussian.tmsv_thermal_pt_pair(n_bar, 0.0)
        p2, p3 = gaussian.gaussian_pt_moment(pair, 2), gaussian.gaussian_pt_moment(pair, 3)
        report = p3_optimal(p2, p3)
        assert not report.detected
        assert report.witness == pytest.approx(p3 - p2 ** 2, rel=1e-12)


class TestGaussianThirdOrder:
    def test_boundary_values(self):
        r = simon_gaussian3(1.0, 1.0)
        assert r.witness == pytest.approx(0.0, abs=1e-12)
        assert r.gaussian_only
        assert gaussian_physicality_bound(1.0) == pytest.approx(1.0)

    def test_half_purity_values(self):
        assert gaussian_physicality_bound(0.5) == pytest.approx(16.0 / 49.0, abs=1e-14)
        assert simon_gaussian3(0.5, 0.3).threshold == pytest.approx(4.0 / 13.0, abs=1e-14)


class TestSoundnessAndNesting:
    @settings(max_examples=80, deadline=None)
    @given(nonneg_spectra)
    def test_no_detection_on_nonnegative_spectra(self, lam):
        n = min(len(lam) if len(lam) % 2 else len(lam) - 1, 7)
        # two-level spectra sit exactly on the linear boundary, so tolerate
        # float-level negativity instead of asserting detected == False
        ms = moments_of_spectrum(lam, max(n, 3))
        p2, p3 = ms.p(2), ms.p(3)
        assert p3_linear(p2, p3).witness >= -1e-10
        assert p3_quadratic(p2, p3).witness >= -1e-10
        assert p3_optimal(min(p2, 1.0), p3).witness >= -1e-7
        if n >= 3:
            assert hankel_test(ms, n).witness >= -1e-10
            assert descartes_test(ms, n).witness >= -1e-12

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-0.3, 1.0), min_size=2, max_size=8).filter(
        lambda xs: abs(sum(xs)) > 0.2))
    def test_hierarchy_nesting(self, raw):
        # detection at order n implies detection at order n+2 (Sylvester)
        lam = np.array(raw) / np.sum(raw)
        ms = moments_of_spectrum(lam, 7)
        if abs(ms.p(2)) > 1.0:  # not a valid PT spectrum of a state
            return
        for n in (3, 5):
            # demand propagation only for violations above float noise
            if hankel_test(ms, n).witness < -1e-12:
                assert hankel_test(ms, n + 2).witness < 1e-15


class TestElementwiseReports:
    def test_batched_hankel_equals_one_matrix_at_a_time(self):
        rng = np.random.default_rng(4)
        lam = rng.uniform(-0.3, 1.0, (300, 6))
        lam /= lam.sum(axis=1, keepdims=True)
        lam = lam[np.sum(lam ** 2, axis=1) <= 1.0]
        ms = np.sum(lam[:, None, :] ** np.arange(1, 8)[None, :, None], axis=2)
        batch = PtMomentVector(tuple(ms.T))
        for n in (3, 5, 7):
            m = (n + 1) // 2
            assert hankel_matrix(batch, n).shape == (len(ms), m, m)
            report = hankel_test(batch, n)
            one = [hankel_test(PtMomentVector(tuple(row)), n) for row in ms.tolist()]
            assert report.witness.tolist() == [r.witness for r in one]
            assert report.detected.tolist() == [r.detected for r in one]

    @pytest.mark.parametrize("moments, error", [
        ((1.0, [0.5, 0.4], [0.2, 0.9]), ValueError),
        ((1.0, [0.5, 0.4], [0.2, math.nan]), DomainError),
        (([1.0, 0.9], [0.5, 0.4]), ValueError),
    ], ids=["growth", "nan", "p1"])
    def test_moment_checks_apply_to_every_element(self, moments, error):
        with pytest.raises(error):
            PtMomentVector(tuple(np.broadcast_arrays(*map(np.asarray, moments))))

    def test_reports_of_arrays_and_of_scalars(self):
        p2, p3 = np.array([1.0, 0.5, 0.3]), np.array([0.25, 0.25, 0.2])
        for test in (p3_linear, p3_quadratic, p3_optimal, simon_gaussian3):
            report = test(p2, p3)
            assert report.detected.dtype == bool
            one = [test(a, b) for a, b in zip(p2.tolist(), p3.tolist())]
            assert report.witness.tolist() == [r.witness for r in one]
            assert np.broadcast_to(report.threshold, 3).tolist() == [r.threshold for r in one]
            assert report.detected.tolist() == [r.detected for r in one]
            assert type(one[0].witness) is float and type(one[0].detected) is bool
        bounds = gaussian_physicality_bound(p2)
        assert bounds.tolist() == [gaussian_physicality_bound(x) for x in p2.tolist()]
        assert type(gaussian_physicality_bound(0.5)) is float

    @pytest.mark.parametrize("bad", [0.0, 1.5, math.nan])
    def test_one_bad_purity_refuses_the_gaussian_bounds(self, bad):
        p2 = np.array([0.5, bad])
        with pytest.raises(DomainError):
            gaussian_physicality_bound(p2)
        with pytest.raises(DomainError):
            simon_gaussian3(p2, 0.2)


class TestPurityRounding:
    def test_purity_a_few_ulps_above_one_reads_as_one(self):
        eps = np.finfo(float).eps
        for p2 in (1.0 + eps, 1.0 + 4 * eps):
            assert optimal_threshold(p2) == optimal_threshold(1.0)
            assert simon_gaussian3(p2, 0.5).witness == simon_gaussian3(1.0, 0.5).witness
            assert gaussian_physicality_bound(p2) == 1.0
            assert p3_optimal(np.array([0.5, p2]), 0.2).witness[1] == p3_optimal(1.0, 0.2).witness

    @pytest.mark.parametrize("p2", [1.0 + 8 * np.finfo(float).eps, 1.0 + 1e-12])
    def test_purity_further_above_one_is_refused(self, p2):
        for test in (optimal_threshold, gaussian_physicality_bound,
                     lambda x: simon_gaussian3(x, 0.5)):
            with pytest.raises(DomainError):
                test(p2)

    @pytest.mark.parametrize("witness", [math.nan, -math.inf, np.array([0.1, math.nan])])
    def test_non_finite_witness_is_refused_not_a_verdict(self, witness):
        with pytest.raises(DomainError):
            CriterionReport.from_witness("unit", witness)
