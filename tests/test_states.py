import math
import re
import time
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from ptmoments.criteria import p3_linear, optimal_threshold
from ptmoments.errors import BudgetError, CutoffTooSmallError, DomainError
from ptmoments.estimation import min_samples, witness_variances
from ptmoments.gaussian import SymplecticPair, simon_test, tmsv_thermal, tmsv_thermal_pt_pair
from ptmoments.fock import ModeCutoff, pt_moment, purity, spectrum, partial_transpose
from ptmoments import states
from ptmoments.states import (
    CatParams,
    FockSuperposition,
    HHGParams,
    LossyNOONParams,
    NOONParams,
    cat_density,
    cat_pt_moments,
    cat_separability_radius,
    coherent_vector,
    hhg_pt_moments,
    hhg_reduced_density,
    lossy_noon_density,
    lossy_noon_pt_moments,
    noon_pt_moment,
    qutrit_state,
    tmsv_cutoff,
)

BAL = 1 / math.sqrt(2)


@pytest.mark.parametrize("build", [
    lambda: NOONParams(1, math.nan, math.nan),
    lambda: NOONParams(1, math.inf, 0.0),
    lambda: CatParams(math.nan, 1.0, 0.5, "odd"),
    lambda: CatParams(1.0, complex(math.inf, 0.0), 0.5, "odd"),
    lambda: CatParams(1.0, 1.0, math.nan, "odd"),
    lambda: HHGParams(3.0, math.nan, 2),
    lambda: HHGParams(math.inf, 0.5, 2),
    lambda: HHGParams(3.0, math.inf, 2),
    lambda: LossyNOONParams(NOONParams.balanced(1), math.nan, 0.5),
], ids=["noon-nan", "noon-inf", "cat-alpha-nan", "cat-beta-inf", "cat-z-nan",
        "hhg-delta-nan", "hhg-alpha-inf", "hhg-delta-inf", "lossy-noon-tau-nan"])
def test_non_finite_family_parameters_are_rejected(build):
    with pytest.raises(DomainError):
        build()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", [
    lambda x: min_samples(x, 0.1),
    lambda x: min_samples(0.5, x),
    lambda x: witness_variances(x, 0.1, 10),
    lambda x: simon_test(SymplecticPair(x, 2.0)),
    lambda x: SymplecticPair(x, 1.0),
    lambda x: tmsv_thermal_pt_pair(0.0, x),
    lambda x: tmsv_thermal(x, 0.3),
    lambda x: tmsv_thermal(0.0, x),
    lambda x: tmsv_cutoff(x),
    lambda x: coherent_vector(x, 4),
], ids=["min_samples-p2", "min_samples-p3", "witness_variances", "simon_test",
        "symplectic_pair", "tmsv_thermal_pt_pair", "tmsv_thermal-n_bar", "tmsv_thermal-r",
        "tmsv_cutoff", "coherent_vector"])
def test_non_finite_input_is_rejected(entry, bad):
    # NaN fails every comparison and inf overflows the formulas, so either
    # would otherwise come out as a number or a verdict
    with pytest.raises(DomainError):
        entry(bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", [
    lambda x: min_samples(np.array([0.5, x, 0.3]), 0.1),
    lambda x: min_samples(0.5, np.array([[0.1, 0.2], [x, 0.1]])),
    lambda x: witness_variances(np.array([0.5, x]), 0.1, 10),
    lambda x: witness_variances(0.5, np.array([0.1, x]), 10),
    lambda x: witness_variances(0.5, 0.1, np.array([10.0, x])),
    lambda x: lossy_noon_pt_moments(LossyNOONParams.balanced(2, np.array([0.7, x, 0.9]))),
    lambda x: LossyNOONParams(NOONParams.balanced(1), 0.5, np.array([0.5, x])),
], ids=["min_samples-p2", "min_samples-p3", "witness_variances-p2", "witness_variances-p3",
        "witness_variances-k", "lossy_noon_pt_moments-tau", "lossy_noon-tau_b"])
def test_non_finite_array_element_is_rejected(entry, bad):
    # one bad element anywhere in an array input refuses the whole call
    with pytest.raises(DomainError):
        entry(bad)


class TestTmsvCutoff:
    @staticmethod
    def cutoff_by_loop(r, tol):
        """Reference: the smallest d >= 2 with tanh(r)^(2d) < tol, d by d."""
        t = np.tanh(abs(r))
        if t == 0.0:
            return 2
        d = 2
        while t ** (2 * d) >= tol:
            d += 1
        return d

    @pytest.mark.parametrize("tol", [1e-6, 1e-12])
    def test_closed_form_equals_the_loop(self, tol):
        for r in np.linspace(0.05, 5.0, 100):
            assert tmsv_cutoff(r, tol) == self.cutoff_by_loop(r, tol)
        assert tmsv_cutoff(0.0, tol) == 2

    def test_saturated_squeezing_raises_at_once(self):
        # tanh(20) rounds to 1.0, where the tail never falls below tol
        started = time.perf_counter()
        with pytest.raises(DomainError):
            tmsv_cutoff(20.0)
        assert time.perf_counter() - started < 1.0
        assert tmsv_cutoff(10.0) == 1675701205  # about 1.7e9 loop steps


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

    @staticmethod
    def largest_accepted_alpha():
        # the largest alpha whose square, with beta = 0, is within the bound
        bound = states._CAT_R2_MAX
        a = math.sqrt(bound)
        while np.float_power(a, 2) > bound:
            a = math.nextafter(a, 0.0)
        while np.float_power(math.nextafter(a, math.inf), 2) <= bound:
            a = math.nextafter(a, math.inf)
        return a

    @pytest.mark.parametrize("parity", ["even", "odd"])
    @pytest.mark.parametrize("z", [0.0, 0.5, 1.0])
    def test_largest_accepted_radius_gives_no_warning(self, parity, z):
        # 3 e^(4 r^2) is finite there; the suite makes any RuntimeWarning an
        # error, on the scalar and on the elementwise path
        a = self.largest_accepted_alpha()
        for alpha in (a, np.full(20, a)):
            p2, p3 = cat_pt_moments(CatParams(alpha, 0.0, z, parity))
            assert np.isfinite(p2).all() and np.isfinite(p3).all()

    @pytest.mark.parametrize("alpha, beta", [
        ("next", 0.0), (13.28, 1.0), (30.0, 1.0), (1e200, 1.0), (complex(1e308, 1e308), 0.0),
        (np.array([0.5, 30.0]), 0.5)])
    def test_radius_past_the_bound_is_refused_before_any_warning(self, alpha, beta):
        # 13.28 and 1 is where the unbounded form first warned: r^2 = 177.36
        if isinstance(alpha, str):
            alpha = math.nextafter(self.largest_accepted_alpha(), math.inf)
        with pytest.raises(DomainError, match=re.escape(
                f"cat closed forms need |alpha|^2 + |beta|^2 <= {states._CAT_R2_MAX!r}, got ")):
            cat_pt_moments(CatParams(alpha, beta, 0.5))

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


def hhg_reference(delta_alpha: float, n_modes: int) -> tuple:
    """(p2, p3) of the reduced driver/harmonic state by the closed form over
    C^2 and C^3, C = 1 - c^2, evaluated in 50-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 50
        n = max(n_modes, 2)
        da2 = Decimal(delta_alpha) ** 2
        chi2 = 4 * da2 / (n * n + 2 * n - 3)
        s = (-da2 / 2 - (n - 1) * chi2 / 2).exp() ** 2
        c = 1 - s
        g2 = (-(da2 + chi2)).exp()
        p2 = (1 - 2 * s * (2 - g2) + s * s * (2 / g2 - 1)) / c ** 2
        p3 = (1 - 3 * s * (2 - g2)
              + 3 * s * s * (2 + g2 + da2.exp() - 2 * (-da2).exp() + chi2.exp()
                             - 2 * (-chi2).exp())
              - s ** 3 * (1 + 6 / g2 - 3 * da2.exp() - 3 * chi2.exp())) / c ** 3
        return float(p2), float(p3)


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

    @pytest.mark.parametrize("n_modes", range(1, 9))
    def test_closed_forms_match_a_50_digit_reference(self, n_modes):
        # a log grid and fig2d's grid: the form over C^2 and C^3 cancelled as
        # C ~ delta_alpha^2, to p2 above 1 at 0.05 and p3 = -190 at 1e-3
        fig2d = np.round(np.arange(0.05, 3.0 + 1e-12, 0.025), 10)
        grid = np.concatenate([np.geomspace(1e-3, 6.0, 61), fig2d])
        p2, p3 = hhg_pt_moments(HHGParams(3.0, grid, n_modes))
        ref = np.array([hhg_reference(da, n_modes) for da in grid.tolist()])
        np.testing.assert_allclose(p2, ref[:, 0], rtol=1e-14, atol=0)
        np.testing.assert_allclose(p3, ref[:, 1], rtol=1e-14, atol=0)
        assert (p2 <= 1.0).all()

    @pytest.mark.parametrize("delta_alpha", [1e-150, 1e-9, 1e-3, 0.05, 0.3, 6.0, 1e100])
    def test_single_harmonic_is_exactly_pure_at_any_depletion(self, delta_alpha):
        for n in (1, 2):
            p2, p3 = hhg_pt_moments(HHGParams(3.0, delta_alpha, n))
            assert p2 == 1.0 and 0.0 < p3 <= 1.0

    @pytest.mark.parametrize("delta_alpha, n", [(1e-200, 1), (1e-153, 10 ** 6), (1.3e154, 3),
                                                (1e160, 2)])
    def test_squares_outside_the_normal_float_range_are_refused(self, delta_alpha, n):
        with pytest.raises(DomainError, match="outside the normal float range"):
            hhg_pt_moments(HHGParams(3.0, delta_alpha, n))

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

    def test_largest_amplitude_below_the_float_range(self):
        # |alpha - delta_alpha|^(d-1) = 13.5^267 stays below 1.8e308; any
        # overflow warning would fail the test under the RuntimeWarning filter
        rho = hhg_reduced_density(HHGParams(14.0, 0.5, 2))
        assert rho.cutoff == ModeCutoff(268, 7)
        assert np.isfinite(rho.matrix).all()

    def test_amplitude_beyond_the_float_range_is_refused(self):
        # the cutoff 302 puts 14.5^301 past the float range: refused by name,
        # before any power is taken
        with pytest.raises(DomainError, match=r"alpha=14\.5, d=302"):
            hhg_reduced_density(HHGParams(15.0, 0.5, 2))
        with pytest.raises(DomainError, match=r"alpha=-20, d=300"):
            coherent_vector(-20, 300)
        assert np.isfinite(coherent_vector(-20, 200)).all()


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
        rho = lossy_noon_density(LossyNOONParams(p, 1.0, 1.0))
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

    @staticmethod
    def scalar_moments(p):
        """Reference: the (p2, p3) closed form term by term in Python floats,
        each k-sum added in increasing k."""
        N = p.noon.N
        a2, b2 = abs(p.noon.alpha) ** 2, abs(p.noon.beta) ** 2
        ta, tb = p.tau_a, p.tau_b
        s2a = sum(math.comb(N, k) ** 2 * ta ** (2 * (N - k)) * (1 - ta) ** (2 * k)
                  for k in range(N + 1))
        s2b = sum(math.comb(N, k) ** 2 * tb ** (2 * (N - k)) * (1 - tb) ** (2 * k)
                  for k in range(N + 1))
        p2 = (a2 ** 2 * s2a
              + 2.0 * a2 * b2 * (ta ** N * tb ** N + (1 - ta) ** N * (1 - tb) ** N)
              + b2 ** 2 * s2b)
        s3a = sum(math.comb(N, k) ** 3 * ta ** (3 * (N - k)) * (1 - ta) ** (3 * k)
                  for k in range(N + 1))
        s3b = sum(math.comb(N, k) ** 3 * tb ** (3 * (N - k)) * (1 - tb) ** (3 * k)
                  for k in range(N + 1))
        p3 = (a2 ** 3 * s3a
              + 3.0 * a2 * b2 * (a2 * ta ** N * tb ** N * (1 - ta) ** N
                                 + b2 * ta ** N * tb ** N * (1 - tb) ** N
                                 + a2 * (1 - ta) ** (2 * N) * (1 - tb) ** N
                                 + b2 * (1 - ta) ** N * (1 - tb) ** (2 * N))
              + b2 ** 3 * s3b)
        return p2, p3

    def test_fig3a_grid_equals_the_scalar_form_bit_for_bit(self):
        n, tau = (x.ravel() for x in np.meshgrid(
            np.arange(1, 11), np.round(np.arange(0.5, 1.0 + 1e-12, 1e-3), 10), indexing="ij"))
        p2, p3 = lossy_noon_pt_moments(LossyNOONParams.balanced(n, tau))
        ref = [self.scalar_moments(LossyNOONParams.balanced(int(a), float(t)))
               for a, t in zip(n, tau)]
        assert np.column_stack([p2, p3]).tobytes() == np.array(ref).tobytes()

    def test_unequal_losses_equal_the_scalar_form_bit_for_bit(self):
        rng = np.random.default_rng(5)
        n = rng.integers(1, 25, 600)
        ta, tb = rng.uniform(0.0, 1.0, (2, 600))
        ta[::7], tb[::11] = 0.0, 1.0
        for noon in (NOONParams(n, 0.6, 0.8), NOONParams(n, 0.6j, -0.8)):
            p2, p3 = lossy_noon_pt_moments(LossyNOONParams(noon, ta, tb))
            ref = [self.scalar_moments(LossyNOONParams(NOONParams(int(a), noon.alpha, noon.beta),
                                                       float(x), float(y)))
                   for a, x, y in zip(n, ta, tb)]
            assert np.column_stack([p2, p3]).tobytes() == np.array(ref).tobytes()

    @pytest.mark.parametrize("shape", [(), (1,), (2, 1)])
    def test_many_k_terms_add_in_increasing_k(self, shape):
        # from N = 8 on, a pairwise sum over k would round differently
        for n in (1, 7, 8, 9, 16, 30):
            for ta, tb in ((0.75, 0.75), (0.3, 0.95), (0.999, 0.5)):
                p = LossyNOONParams(NOONParams(n, 0.6, 0.8), ta, tb)
                ref = self.scalar_moments(p)
                if shape:
                    p = LossyNOONParams(NOONParams(np.full(shape, n), 0.6, 0.8), ta, tb)
                got = np.array(lossy_noon_pt_moments(p), dtype=float).reshape(2, -1)
                assert got.tobytes() == np.repeat(np.array(ref)[:, None], got.shape[1], 1).tobytes()

    def test_scalars_give_floats_and_arrays_keep_their_shape(self):
        p = LossyNOONParams(NOONParams(3, 0.6, 0.8), 0.75, 0.45)
        moments = lossy_noon_pt_moments(p)
        assert [type(m) for m in moments] == [float, float]
        assert moments == self.scalar_moments(p)
        p2, p3 = lossy_noon_pt_moments(LossyNOONParams.balanced(np.array([[1], [2]]),
                                                                np.array([0.6, 0.7, 0.8])))
        assert p2.shape == p3.shape == (2, 3)

    def test_high_population_crossing_near_twenty_percent_loss(self):
        from scipy import optimize
        def witness(tau):
            p2, p3 = lossy_noon_pt_moments(LossyNOONParams.balanced(10, tau))
            return p3 - optimal_threshold(p2)
        crossing = optimize.brentq(witness, 0.52, 0.99, xtol=1e-10)
        assert crossing == pytest.approx(0.805302, abs=1e-5)


class TestLossyNOONLimit:
    @staticmethod
    def exact_at_half(N):
        """(p2, p3) of LossyNOONParams.balanced(N, 1/2) in exact arithmetic
        from its float weight |alpha|^2 = |beta|^2, where every tau^N and
        (1 - tau)^N is 2^-N."""
        w = Fraction(abs(NOONParams.balanced(N).alpha) ** 2)
        s2 = Fraction(sum(math.comb(N, k) ** 2 for k in range(N + 1)), 4 ** N)
        s3 = Fraction(sum(math.comb(N, k) ** 3 for k in range(N + 1)), 8 ** N)
        h = Fraction(1, 2 ** N)
        return 2 * w ** 2 * (s2 + 2 * h ** 2), 2 * w ** 3 * (s3 + 6 * h ** 3)

    @pytest.mark.parametrize("N", [300, 345])
    def test_moments_up_to_the_limit_match_exact_sums(self, N):
        got = lossy_noon_pt_moments(LossyNOONParams.balanced(N, 0.5))
        for value, exact in zip(got, self.exact_at_half(N)):
            assert math.isfinite(value)
            assert abs(Fraction(value) - exact) <= Fraction(1, 10 ** 13) * exact

    @pytest.mark.parametrize("N", [346, 1000, np.array([1, 346])])
    def test_past_the_limit_is_refused(self, N):
        # C(N, k)^3 passes the float range from N = 346 on
        with pytest.raises(DomainError, match="N <= 345"):
            lossy_noon_pt_moments(LossyNOONParams(NOONParams(N, BAL, BAL), 0.5, 0.5))


class TestElementwiseClosedForms:
    """cat, hhg and noon closed forms on arrays equal their scalar calls."""

    def test_cat(self):
        rng = np.random.default_rng(8)
        alpha = rng.uniform(-2.0, 2.0, 300) + 1j * rng.uniform(-1.0, 1.0, 300)
        beta, z = rng.uniform(0.0, 2.0, 300), rng.uniform(0.0, 1.0, 300)
        for parity in ("even", "odd"):
            p2, p3 = cat_pt_moments(CatParams(alpha, beta, z, parity))
            ref = [cat_pt_moments(CatParams(a, b, c, parity))
                   for a, b, c in zip(alpha.tolist(), beta.tolist(), z.tolist())]
            assert list(zip(p2.tolist(), p3.tolist())) == ref
            assert [type(m) for m in ref[0]] == [float, float]

    def test_hhg(self):
        rng = np.random.default_rng(9)
        n = rng.integers(1, 9, 300)
        alpha, da = rng.uniform(0.0, 4.0, 300), rng.uniform(0.01, 3.0, 300)
        p2, p3 = hhg_pt_moments(HHGParams(alpha, da, n))
        ref = [hhg_pt_moments(HHGParams(a, d, int(k)))
               for a, d, k in zip(alpha.tolist(), da.tolist(), n)]
        assert list(zip(p2.tolist(), p3.tolist())) == ref

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 7])
    def test_noon(self, order):
        rng = np.random.default_rng(order)
        theta = rng.uniform(0.0, math.pi / 2, 300)
        alpha, beta = np.cos(theta), np.sin(theta) * np.exp(1j * rng.uniform(0, 6, 300))
        moments = noon_pt_moment(NOONParams(np.arange(1, 301), alpha, beta), order)
        ref = [noon_pt_moment(NOONParams(1, a, b), order)
               for a, b in zip(alpha.tolist(), beta.tolist())]
        assert moments.tolist() == ref
        assert noon_pt_moment(NOONParams(1, np.full((2, 1), BAL), BAL), order).shape == (2, 1)

    @pytest.mark.parametrize("build", [
        lambda: CatParams(np.array([1.0, math.nan]), 1.0, 0.5),
        lambda: CatParams(1.0, 1.0, np.array([0.5, 1.5])),
        lambda: CatParams(np.array([0.0, 1.0]), 0.0, np.array([0.0, 0.5])),
        lambda: HHGParams(3.0, np.array([0.5, -0.1]), 2),
        lambda: HHGParams(3.0, 0.5, np.array([2, 0])),
        lambda: hhg_pt_moments(HHGParams(3.0, np.array([0.5, 0.0]), 2)),
        lambda: NOONParams(np.array([1, 2]), np.array([0.6, 0.7]), 0.8),
    ], ids=["cat-alpha", "cat-z", "cat-centered", "hhg-delta", "hhg-N", "hhg-zero-delta",
            "noon-norm"])
    def test_one_bad_element_refuses_the_call(self, build):
        with pytest.raises(DomainError):
            build()


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

    def test_schmidt_path_needs_no_dense_matrix(self):
        # 10^4 basis states: the dense matrix would take 1.49 GiB, the Schmidt
        # probabilities only the SVD of the 100 x 100 coefficients
        s = FockSuperposition(np.eye(100) / 10)
        assert s.pt_moment(3) == pytest.approx(1e-4, rel=1e-12)
        with pytest.raises(BudgetError):
            s.density_operator()
