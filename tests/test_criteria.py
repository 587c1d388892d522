import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptmoments.criteria import (
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
