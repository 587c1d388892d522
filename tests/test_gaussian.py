import math

import numpy as np
import pytest

from ptmoments.criteria import p3_linear, p3_quadratic, p3_optimal
from ptmoments.errors import DomainError, SymmetryError
from ptmoments.fock import pt_moments
from ptmoments.gaussian import (
    OMEGA,
    CovarianceMatrix,
    SymplecticPair,
    gaussian_pt_moment,
    gaussian_pt_moments,
    pt_covariance,
    simon_test,
    symplectic_eigenvalues,
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

    def test_pt_is_involution_and_preserves_determinant(self):
        gamma = tmsv_thermal(0.2, 0.4)
        pt = pt_covariance(gamma)
        np.testing.assert_allclose(pt_covariance(pt).gamma, gamma.gamma)
        assert np.linalg.det(pt.gamma) == pytest.approx(np.linalg.det(gamma.gamma))

    def test_identity_fixed_point(self):
        np.testing.assert_allclose(pt_covariance(CovarianceMatrix(np.eye(4))).gamma, np.eye(4))


class TestSymplecticEigenvalues:
    def test_vacuum(self):
        pair = symplectic_eigenvalues(CovarianceMatrix(np.eye(4)))
        assert (pair.nu1, pair.nu2) == pytest.approx((1.0, 1.0))

    def test_williamson_diagonal(self):
        pair = symplectic_eigenvalues(CovarianceMatrix(np.diag([3.0, 3.0, 1.5, 1.5])))
        assert (pair.nu1, pair.nu2) == pytest.approx((1.5, 3.0))

    @pytest.mark.parametrize("n_bar,r", [(0.0, 0.3), (0.2, 0.5), (1.0, 0.1)])
    def test_tmsv_thermal_pair(self, n_bar, r):
        pair = symplectic_eigenvalues(pt_covariance(tmsv_thermal(n_bar, r)))
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
