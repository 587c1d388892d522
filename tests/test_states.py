import math

import numpy as np
import pytest

from ptmoments.criteria import p3_linear, optimal_threshold
from ptmoments.errors import CutoffTooSmallError, DomainError
from ptmoments.fock import ModeCutoff, pt_moment, purity, spectrum, partial_transpose
from ptmoments.states import (
    CatParams,
    FockSuperposition,
    HHGParams,
    LossyNOONParams,
    NOONParams,
    cat_density,
    cat_pt_moments,
    cat_separability_radius,
    hhg_pt_moments,
    hhg_reduced_density,
    lossy_noon_density,
    lossy_noon_pt_moments,
    noon_density,
    noon_pt_moment,
    qutrit_state,
)

BAL = 1 / math.sqrt(2)


class TestCat:
    def test_params_validation(self):
        with pytest.raises(DomainError):
            CatParams(1.0, 1.0, 1.5)
        with pytest.raises(DomainError):
            CatParams(0.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            CatParams(1.0, 1.0, 0.5, parity="both")

    def test_vacuum_limit(self):
        rho = cat_density(CatParams(0.0, 0.0, 1.0), ModeCutoff(3, 3))
        assert rho.matrix[0, 0].real == pytest.approx(1.0)

    def test_fully_dephased_is_separable(self):
        rho = cat_density(CatParams(0.9, 0.7, 1.0, "odd"))
        assert spectrum(partial_transpose(rho)).min() >= -1e-10

    def test_pure_cat_unit_purity(self):
        p = CatParams(1.0, 1.0, 0.0, "odd")
        assert purity(cat_density(p)) == pytest.approx(1.0, abs=1e-9)
        assert cat_pt_moments(p)[0] == pytest.approx(1.0, abs=1e-12)

    def test_high_z_large_amplitude_purity_half(self):
        p = CatParams(3.0, 3.0, 1.0)
        assert cat_pt_moments(p)[0] == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("parity", ["even", "odd"])
    @pytest.mark.parametrize("alpha,beta,z", [(0.4, 0.7, 0.3), (1.0, 0.2, 0.8),
                                              (0.8, 0.8, 0.05)])
    def test_closed_forms_match_oracle(self, parity, alpha, beta, z):
        from ptmoments.fock import coherent_cutoff
        p = CatParams(alpha, beta, z, parity)
        cutoff = ModeCutoff(coherent_cutoff([alpha], 1e-13), coherent_cutoff([beta], 1e-13))
        rho = cat_density(p, cutoff)
        p2, p3 = cat_pt_moments(p)
        assert purity(rho) == pytest.approx(p2, abs=1e-9)
        assert pt_moment(rho, 3) == pytest.approx(p3, abs=1e-9)

    def test_cutoff_too_small(self):
        with pytest.raises(CutoffTooSmallError):
            cat_density(CatParams(2.5, 2.5, 0.5), ModeCutoff(3, 3))

    def test_separability_radius(self):
        assert cat_separability_radius(0.0) == 0.0
        assert cat_separability_radius(0.99) == pytest.approx(math.sqrt(-0.5 * math.log(0.01)))
        assert cat_separability_radius(1.0) == math.inf
        z = 1 - math.exp(-9.0)
        assert cat_separability_radius(z) == pytest.approx(math.sqrt(4.5))
        # diagonal |alpha| = |beta| point of that radius sits at 3/2
        assert cat_separability_radius(z) / math.sqrt(2) == pytest.approx(1.5)

    def test_linear_witness_zero_on_boundary(self):
        z = 0.5
        alpha = math.sqrt(math.log(2.0)) / 2.0
        p2, p3 = cat_pt_moments(CatParams(alpha, alpha, z, "odd"))
        assert p3_linear(p2, p3).witness == pytest.approx(0.0, abs=1e-14)

    def test_detection_region_matches_disk(self, rng):
        for z in (0.5, 0.9):
            radius = cat_separability_radius(z)
            for _ in range(200):
                theta = rng.uniform(0.05, math.pi / 2 - 0.05)
                for sign in (-1.0, 1.0):
                    r = radius + sign * 1e-3
                    p = CatParams(r * math.cos(theta), r * math.sin(theta), z, "odd")
                    w = p3_linear(*cat_pt_moments(p)).witness
                    assert (w < 0) == (sign > 0)


class TestHHG:
    def test_invalid_params(self):
        with pytest.raises(DomainError):
            HHGParams(1.0, -0.1, 3)
        with pytest.raises(DomainError):
            HHGParams(1.0, 0.5, 0)
        with pytest.raises(DomainError):
            hhg_pt_moments(HHGParams(1.0, 0.0, 3))

    def test_single_harmonic_is_pure(self):
        for n in (1, 2):
            p2, _ = hhg_pt_moments(HHGParams(2.0, 0.7, n))
            assert p2 == pytest.approx(1.0, abs=1e-12)

    def test_purity_floor_in_benchmark_regime(self):
        # moderate-to-strong depletion; purity tends to 1 as delta_alpha grows
        for n in range(2, 9):
            for da in np.arange(0.9, 3.0, 0.1):
                p2, _ = hhg_pt_moments(HHGParams(3.0, float(da), n))
                assert p2 >= 0.8 - 1e-6

    def test_witness_vanishes_at_large_depletion(self):
        for n in (2, 4):
            w = [p3_linear(*hhg_pt_moments(HHGParams(3.0, da, n))).witness
                 for da in (1.0, 2.0, 4.0, 6.0)]
            assert all(x < 0 for x in w[:3])
            assert abs(w[-1]) < 1e-8
            assert w[0] < w[1] < w[2]

    @pytest.mark.parametrize("n_modes,dalpha", [(2, 0.8), (3, 0.6), (5, 1.1)])
    def test_closed_forms_match_oracle(self, n_modes, dalpha):
        p = HHGParams(1.2, dalpha, n_modes)
        rho = hhg_reduced_density(p)
        p2, p3 = hhg_pt_moments(p)
        assert abs(np.trace(rho.matrix) - 1) < 1e-12
        assert purity(rho) == pytest.approx(p2, abs=1e-7)
        assert pt_moment(rho, 3) == pytest.approx(p3, abs=1e-7)

    def test_detected_over_depletion_range(self):
        for da in np.arange(0.2, 2.5, 0.1):
            p2, p3 = hhg_pt_moments(HHGParams(3.0, float(da), 4))
            assert p3_linear(p2, p3).witness < 0


class TestNOON:
    def test_normalization_enforced(self):
        with pytest.raises(DomainError):
            NOONParams(2, 1.0, 0.5)

    def test_pure_product_limits(self):
        for n in range(1, 4):
            p = NOONParams(n, 1.0, 0.0)
            for order in range(1, 6):
                assert noon_pt_moment(p, order) == pytest.approx(1.0)

    def test_balanced_third_moment(self):
        p = NOONParams.balanced(3)
        assert noon_pt_moment(p, 3) == pytest.approx(0.25, abs=1e-15)

    def test_moment_independent_of_population(self):
        vals = [noon_pt_moment(NOONParams(n, 0.6, 0.8), 3) for n in range(1, 6)]
        assert max(vals) - min(vals) < 1e-15

    @pytest.mark.parametrize("n", range(1, 6))
    def test_closed_form_matches_oracle(self, n):
        p = NOONParams(n, 0.6, 0.8)
        rho = noon_density(p)
        assert pt_moment(rho, 2) == pytest.approx(noon_pt_moment(p, 2), abs=1e-12)
        assert pt_moment(rho, 3) == pytest.approx(noon_pt_moment(p, 3), abs=1e-12)


class TestLossyNOON:
    def test_tau_validation(self):
        with pytest.raises(DomainError):
            LossyNOONParams(NOONParams.balanced(1), 1.2, 0.5)

    def test_lossless_reduces_to_ideal(self):
        p = LossyNOONParams(NOONParams(2, 0.6, 0.8), 1.0, 1.0)
        p2, p3 = lossy_noon_pt_moments(p)
        assert p2 == pytest.approx(1.0, abs=1e-14)
        assert p3 == pytest.approx(noon_pt_moment(p.noon, 3), abs=1e-14)

    @pytest.mark.parametrize("n,ta,tb", [(1, 0.6, 0.6), (2, 0.7, 0.9), (3, 0.85, 0.85),
                                         (4, 0.3, 0.95)])
    def test_closed_forms_match_oracle(self, n, ta, tb):
        p = LossyNOONParams(NOONParams(n, 0.6, 0.8), ta, tb)
        rho = lossy_noon_density(p)
        p2, p3 = lossy_noon_pt_moments(p)
        assert purity(rho) == pytest.approx(p2, abs=1e-12)
        assert pt_moment(rho, 3) == pytest.approx(p3, abs=1e-12)

    def test_swap_symmetry(self):
        a = LossyNOONParams(NOONParams(2, 0.6, 0.8), 0.7, 0.9)
        b = LossyNOONParams(NOONParams(2, 0.8, 0.6), 0.9, 0.7)
        assert lossy_noon_pt_moments(a) == pytest.approx(lossy_noon_pt_moments(b))

    def test_single_photon_no_detection_below_half(self):
        for tau in (0.2, 0.4, 0.5):
            p2, p3 = lossy_noon_pt_moments(LossyNOONParams.balanced(1, tau))
            assert p3 - optimal_threshold(p2) >= -1e-12

    def test_high_population_crossing_near_twenty_percent_loss(self):
        from scipy import optimize
        def witness(tau):
            p2, p3 = lossy_noon_pt_moments(LossyNOONParams.balanced(10, tau))
            return p3 - optimal_threshold(p2)
        crossing = optimize.brentq(witness, 0.52, 0.99, xtol=1e-10)
        assert crossing == pytest.approx(0.805302, abs=1e-5)


class TestFockSuperposition:
    def test_normalization_required(self):
        with pytest.raises(DomainError):
            FockSuperposition(np.array([[1.0, 1.0], [0.0, 0.0]]))

    def test_qutrit_moments(self):
        q = qutrit_state()
        assert q.pt_moment(2) == pytest.approx(1.0, abs=1e-14)
        assert q.pt_moment(3) == pytest.approx(13.0 / 16.0, abs=1e-12)
        assert q.pt_moment(3) < 1.0  # entangled pure state

    def test_qutrit_oracle_agreement(self):
        q = qutrit_state()
        rho = q.density_operator()
        assert pt_moment(rho, 3) == pytest.approx(q.pt_moment(3), abs=1e-12)
        assert purity(rho) == pytest.approx(1.0, abs=1e-12)

    def test_product_coefficients_not_detected(self):
        c = np.outer([0.6, 0.8], [0.8, 0.6]).astype(complex)
        c /= np.linalg.norm(c)
        s = FockSuperposition(c)
        assert s.pt_moment(3) == pytest.approx(1.0, abs=1e-12)
