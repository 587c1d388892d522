import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from ptmoments.criteria import (gaussian_physicality_bound, optimal_threshold, p3_linear,
                                p3_optimal, p3_quadratic, simon_gaussian3)
from ptmoments.errors import DomainError, SymmetryError
from ptmoments.fock import pt_moments
from ptmoments.gaussian import (
    OMEGA,
    CovarianceMatrix,
    SymplecticPair,
    gaussian_pt_moment,
    gaussian_pt_moments,
    simon_test,
    symplectic_p3_criteria,
    tmsv_thermal,
    tmsv_thermal_pt_pair,
)
from ptmoments.states import tmsv_cutoff, tmsv_density


class TestCovariance:
    def test_omega_is_symplectic_metric(self):
        np.testing.assert_allclose(OMEGA @ OMEGA.T, np.eye(4))
        np.testing.assert_allclose(OMEGA.T, -OMEGA)

    def test_rejects_asymmetric(self):
        g = np.eye(4)
        g[0, 1] = 0.1
        with pytest.raises(SymmetryError):
            CovarianceMatrix(g)

    def test_vacuum_is_physical(self):
        assert CovarianceMatrix(np.eye(4)).is_physical()


class TestSymplecticEigenvalues:
    @pytest.mark.parametrize("n_bar,r", [(0.0, 0.3), (0.2, 0.5), (1.0, 0.1)])
    def test_tmsv_thermal_pair(self, n_bar, r):
        # Williamson eigenvalues of the partially transposed covariance matrix
        # (P2 -> -P2): the moduli of the eigenvalues of i Omega gamma, paired
        flip = np.diag([1.0, 1.0, 1.0, -1.0])
        gamma = flip @ tmsv_thermal(n_bar, r).gamma @ flip
        vals = np.sort(np.abs(np.linalg.eigvals(1j * OMEGA @ gamma)))
        np.testing.assert_allclose(vals[[1, 3]], vals[[0, 2]], rtol=1e-10)
        pair = SymplecticPair(vals[0], vals[2])
        expect = tmsv_thermal_pt_pair(n_bar, r)
        assert pair.nu1 == pytest.approx(expect.nu1, rel=1e-10)
        assert pair.nu2 == pytest.approx(expect.nu2, rel=1e-10)

    def test_pair_orders_itself(self):
        pair = SymplecticPair(2.0, 0.5)
        assert pair.nu1 == 0.5 and pair.nu2 == 2.0


class TestSimon:
    def test_boundary(self):
        assert not simon_test(SymplecticPair(1.0, 1.0)).detected

    def test_obviously_entangled(self):
        assert simon_test(SymplecticPair(0.5, 3.0)).detected

    def test_tmsv_threshold(self):
        n_bar = 0.2
        r_star = math.log(2 * n_bar + 1) / 2
        assert not simon_test(tmsv_thermal_pt_pair(n_bar, r_star - 1e-6)).detected
        assert simon_test(tmsv_thermal_pt_pair(n_bar, r_star + 1e-6)).detected


class TestGaussianMoments:
    def test_vacuum_all_unity(self):
        pair = SymplecticPair(1.0, 1.0)
        for n in range(1, 8):
            assert gaussian_pt_moment(pair, n) == pytest.approx(1.0)

    def test_p2_is_inverse_determinant_root(self):
        pair = SymplecticPair(0.7, 1.9)
        assert gaussian_pt_moment(pair, 2) == pytest.approx(1 / (0.7 * 1.9))

    def test_p3_closed_form(self):
        pair = SymplecticPair(0.7, 1.9)
        expect = 16.0 / ((1 + 3 * 0.7 ** 2) * (1 + 3 * 1.9 ** 2))
        assert gaussian_pt_moment(pair, 3) == pytest.approx(expect)

    @pytest.mark.parametrize("r", [0.1, 0.3, 0.5])
    def test_matches_fock_oracle_on_pure_tmsv(self, r):
        d = max(tmsv_cutoff(r, 1e-12), 12)
        rho = tmsv_density(r, d)
        oracle = pt_moments(rho, 7)
        pair = tmsv_thermal_pt_pair(0.0, r)
        for n in range(2, 8):
            assert gaussian_pt_moment(pair, n) == pytest.approx(oracle[n - 1], abs=1e-8)

    def test_rejects_bad_order(self):
        with pytest.raises(DomainError):
            gaussian_pt_moment(SymplecticPair(1.0, 1.0), 0)

    @pytest.mark.parametrize("nus", [(0.0, 2.0), (2.0, -0.0), (np.array([1.0, 0.0]), 2.0)])
    def test_zero_eigenvalue_refused_before_any_moment(self, nus):
        # p_n of even order divides by nu1 nu2: a zero must raise DomainError
        # at construction, never reach gaussian_pt_moment as a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainError, match="must be > 0"):
                gaussian_pt_moment(SymplecticPair(*nus), 2)


class TestSymplecticThirdOrder:
    def test_boundary_values(self):
        lin, quad = symplectic_p3_criteria(SymplecticPair(1.0, 1.0))
        assert lin.witness == pytest.approx(0.0, abs=1e-12)
        assert quad.witness == pytest.approx(0.0, abs=1e-12)

    def test_sign_agreement_with_moment_criteria(self):
        grid = np.linspace(0.2, 3.0, 100)
        for nu1 in grid:
            for nu2 in grid:
                if nu1 * nu2 < 1.0:
                    continue
                pair = SymplecticPair(float(nu1), float(nu2))
                p2 = gaussian_pt_moment(pair, 2)
                p3 = gaussian_pt_moment(pair, 3)
                lin, quad = symplectic_p3_criteria(pair)
                assert lin.detected == p3_linear(p2, p3).detected
                assert quad.detected == p3_quadratic(p2, p3).detected

    def test_simon_implies_third_order(self):
        grid = np.linspace(0.2, 3.0, 100)
        for nu1 in grid:
            for nu2 in grid:
                if nu1 * nu2 < 1.0:
                    continue
                pair = SymplecticPair(float(nu1), float(nu2))
                if simon_test(pair).detected:
                    continue
                p2 = gaussian_pt_moment(pair, 2)
                p3 = gaussian_pt_moment(pair, 3)
                assert not p3_optimal(p2, p3).detected
                lin, quad = symplectic_p3_criteria(pair)
                assert not lin.detected and not quad.detected


class TestTmsvThermalFamily:
    def test_vacuum_case(self):
        pair = tmsv_thermal_pt_pair(0.0, 0.0)
        for n in range(1, 6):
            assert gaussian_pt_moment(pair, n) == pytest.approx(1.0)

    def test_half_purity_mean_occupation(self):
        n_bar = (math.sqrt(2) - 1) / 2
        pair = tmsv_thermal_pt_pair(n_bar, 0.37)
        assert gaussian_pt_moment(pair, 2) == pytest.approx(0.5, abs=1e-12)
        assert gaussian_pt_moment(pair, 2) == pytest.approx(1 / (2 * n_bar + 1) ** 2, abs=1e-12)

    def test_physicality_of_family(self):
        for n_bar in (0.0, 0.2, 1.0):
            for r in (0.0, 0.3, 0.8):
                assert tmsv_thermal(n_bar, r).is_physical()

    def test_hierarchy_orders_detect_earlier(self):
        # at half purity: squeezing 0.25 is seen by order five but not order
        # three; squeezing 0.20 by order seven but not order five
        from ptmoments.criteria import PtMomentVector, hankel_test
        n_bar = (math.sqrt(2) - 1) / 2

        def hankel(r, n):
            pair = tmsv_thermal_pt_pair(n_bar, r)
            ms = PtMomentVector(tuple(gaussian_pt_moments(pair, n)))
            return hankel_test(ms, n)

        assert not hankel(0.25, 3).detected
        assert hankel(0.25, 5).detected
        assert not hankel(0.20, 5).detected
        assert hankel(0.20, 7).detected

    def test_third_order_detection_threshold(self):
        # all third-order criteria coincide on this family (p2 = 1/2) and
        # fire once p3 drops below 1/4
        n_bar = (math.sqrt(2) - 1) / 2
        from scipy import optimize
        f = lambda r: gaussian_pt_moment(tmsv_thermal_pt_pair(n_bar, r), 3) - 0.25
        r_star = optimize.brentq(f, 0.1, 0.9, xtol=1e-12)
        assert r_star == pytest.approx(math.acosh(2.25) / 4, abs=1e-10)
        for shift, expect in ((-1e-4, False), (1e-4, True)):
            pair = tmsv_thermal_pt_pair(n_bar, r_star + shift)
            p2 = gaussian_pt_moment(pair, 2)
            p3 = gaussian_pt_moment(pair, 3)
            assert p3_optimal(p2, p3).detected is expect
            assert p3_linear(p2, p3).detected is expect
            assert p3_quadratic(p2, p3).detected is expect


class TestElementwise:
    def test_pair_sorts_each_element_and_scalars_stay_floats(self):
        pair = SymplecticPair(np.array([2.0, 0.5]), np.array([1.0, 3.0]))
        assert pair.nu1.tolist() == [1.0, 0.5] and pair.nu2.tolist() == [2.0, 3.0]
        scalar = SymplecticPair(np.float64(2.0), 1)
        assert type(scalar.nu1) is float and type(scalar.nu2) is float
        assert type(gaussian_pt_moment(scalar, 3)) is float
        assert type(simon_test(scalar).witness) is float and simon_test(scalar).detected is False

    @pytest.mark.parametrize("bad", [-0.1, math.nan, math.inf])
    def test_one_bad_element_refuses_the_pair(self, bad):
        with pytest.raises(DomainError):
            SymplecticPair(np.array([1.0, bad]), 2.0)

    def test_arrays_equal_scalar_calls_bit_for_bit(self):
        rng = np.random.default_rng(11)
        nu1, nu2 = rng.uniform(0.05, 20.0, (2, 400))
        pair = SymplecticPair(nu1, nu2)
        moments = gaussian_pt_moments(pair, 7)
        assert moments.shape == (7, 400)
        lin, quad = symplectic_p3_criteria(pair)
        simon = simon_test(pair)
        for i, (a, b) in enumerate(zip(nu1.tolist(), nu2.tolist())):
            one = SymplecticPair(a, b)
            assert moments[:, i].tolist() == gaussian_pt_moments(one, 7).tolist()
            l1, q1 = symplectic_p3_criteria(one)
            assert (lin.witness[i], quad.witness[i], simon.witness[i]) == (
                l1.witness, q1.witness, simon_test(one).witness)
            assert (lin.detected[i], simon.detected[i]) == (l1.detected, simon_test(one).detected)

    def test_thermal_pair_takes_arrays(self):
        r = np.linspace(0.0, 2.0, 9)
        pair = tmsv_thermal_pt_pair(0.3, r)
        for i, x in enumerate(r.tolist()):
            one = tmsv_thermal_pt_pair(0.3, x)
            assert (pair.nu1[i], pair.nu2[i]) == (one.nu1, one.nu2)
        with pytest.raises(DomainError):
            tmsv_thermal_pt_pair(np.array([0.1, -0.2]), 0.3)


class TestCancellationFree:
    def test_moments_within_four_ulps_of_exact(self):
        # (nu + 1)^n - (nu - 1)^n cancels at small and at large nu; the sum of
        # its positive odd binomial terms does not
        nus = np.logspace(-8, 8, 97).tolist()
        for n in range(2, 8):
            for i, nu in enumerate(nus):
                pair = (nu, nus[(7 * i + 3) % len(nus)])
                exact = Fraction(1)
                for x in map(Fraction, pair):
                    exact *= Fraction(2) ** n / ((x + 1) ** n - (x - 1) ** n)
                got = gaussian_pt_moment(SymplecticPair(*pair), n)
                assert abs(Fraction(got) - exact) <= 4 * Fraction(math.ulp(float(exact))), (n, pair)

    def test_pure_tmsv_is_pure_and_every_test_takes_it(self):
        r = np.round(np.arange(0.0, 20.0 + 1e-9, 0.01), 10)
        pair = tmsv_thermal_pt_pair(0.0, r)
        p2, p3 = gaussian_pt_moment(pair, 2), gaussian_pt_moment(pair, 3)
        assert np.abs(p2 - 1.0).max() <= 1e-15
        assert np.abs(optimal_threshold(p2) - 1.0).max() <= 2e-15
        assert np.abs(gaussian_physicality_bound(p2) - 1.0).max() <= 2e-15
        assert simon_gaussian3(p2, p3).detected[1:].all()
        assert p3_optimal(p2, p3).detected[1:].all() and not p3_optimal(p2, p3).detected[0]
