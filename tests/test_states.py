import functools
import math
import operator
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
from ptmoments import fock
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
    family_pt_moments,
    hhg_pt_moments,
    hhg_reduced_density,
    lossy_noon_density,
    lossy_noon_pt_moments,
    lossy_noon_spectra,
    qutrit_state,
    tmsv_cutoff,
)

BAL = 1 / math.sqrt(2)


def lossless_noon_moment(p: NOONParams, n: int):
    """p_n of the NOON state ``p`` without loss, read from the lossy NOON spectra at tau = 1."""
    return family_pt_moments(LossyNOONParams(p, 1.0, 1.0), max(n, 2))[n - 1]


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

    @pytest.mark.parametrize("parity", ["even", "odd"])
    @pytest.mark.parametrize("z", [0.0, 0.5, 1.0])
    def test_large_radius_reads_the_limit_without_warning(self, parity, z):
        # 13.31 is past the old bound r^2 <= 177.17; at |alpha| >> 1 each mode's
        # even and odd weights are 1/2, so the spectrum is (1, 1, x, -x)/2,
        # x = s(1 - z), on the scalar and on the elementwise path
        x = (1.0 if parity == "even" else -1.0) * (1.0 - z)
        for alpha in (13.31, np.full(20, 13.31)):
            p2, p3 = cat_pt_moments(CatParams(alpha, 13.31, z, parity))
            np.testing.assert_allclose(p2, (1.0 + x * x) / 2.0, rtol=1e-15)
            np.testing.assert_allclose(p3, 0.25, rtol=1e-15)

    @pytest.mark.parametrize("alpha, beta", [
        (13.28, 1.0), (30.0, 1.0), (1e200, 1.0), (complex(1e308, 1e308), 0.0),
        (np.array([0.5, 30.0]), 0.5)])
    def test_radius_past_the_old_bound_gives_finite_moments(self, alpha, beta):
        # 13.28 and 1 is where the p3 form first warned, r^2 = 177.36; any
        # RuntimeWarning fails the suite
        p = CatParams(alpha, beta, 0.5)
        p2, p3 = cat_pt_moments(p)
        assert np.isfinite(p2).all() and np.isfinite(p3).all()
        far = CatParams(1e3, beta, 0.5)
        if np.ndim(alpha) == 0 and abs(alpha) > 20:  # e^(-2|alpha|^2) is 0 in floats
            assert (p2, p3) == cat_pt_moments(far)

    @pytest.mark.parametrize("z", [0.0, 0.5])
    def test_small_amplitudes_match_a_50_digit_reference(self, z):
        # the p2/p3 form cancelled there: p3 off by 1.75e-6 at alpha = beta = 0.01, z = 0
        grid = np.round(np.arange(0.01, 0.2 + 1e-12, 0.01), 10)
        for parity in ("even", "odd"):
            p2, p3 = cat_pt_moments(CatParams(grid, grid, z, parity))
            ref = np.array([cat_reference(a, a, z, parity) for a in grid.tolist()])
            np.testing.assert_allclose(p2, ref[:, 0], rtol=1e-14, atol=0)
            np.testing.assert_allclose(p3, ref[:, 1], rtol=1e-14, atol=0)

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

    @pytest.mark.parametrize("p", [CatParams(1.0, 1.0, 0.3, "odd"), CatParams(0.7, 0.2j, 0.1),
                                   CatParams(2, 1, 0.55, "odd")], ids=["float", "complex", "int"])
    def test_no_loss_returns_the_cat_itself(self, p):
        # 1 - (1 - z) e^0 read z = 0.3 as 0.30000000000000004
        lossless = p.after_loss(1.0)
        assert lossless == p
        assert [type(getattr(lossless, f)) for f in ("alpha", "beta", "z", "parity")] == [
            type(getattr(p, f)) for f in ("alpha", "beta", "z", "parity")]

    @pytest.mark.parametrize("z, tau", [(1e-10, 1.0 - 1e-9), (0.3, 1.0 - 1e-12), (0.0, 0.999),
                                        (0.9, 0.5)])
    def test_loss_keeps_the_relative_precision_of_z(self, z, tau):
        # 1 - z' = (1 - z) e^(-2 (1 - tau) (|alpha|^2 + |beta|^2)), in 50 digits
        with localcontext() as ctx:
            ctx.prec = 50
            x = 2 * (1 - Decimal(tau)) * (Decimal(0.8) ** 2 + Decimal(0.6) ** 2)
            reference = float(1 - (1 - Decimal(z)) * (-x).exp())
        got = CatParams(0.8, 0.6, z).after_loss(tau).z
        assert got == pytest.approx(reference, rel=4e-16, abs=0)

    def test_a_fully_damped_coherence_reads_z_1_exactly(self):
        z = np.concatenate([np.linspace(0.0, 1.0, 1001), np.random.default_rng(3).random(10000)])
        assert (CatParams(1e200, 1.0, z).after_loss(0.5).z == 1.0).all()


def cat_reference(alpha: float, beta: float, z: float, parity: str) -> tuple:
    """(p2, p3) of the dephased cat by its two 2 x 2 partial-transpose blocks,
    in 50-digit decimal arithmetic: p_n = sum over both blocks of
    ((t + h)^n + (t - h)^n) / trace^n, t the half trace and h the half gap."""
    with localcontext() as ctx:
        ctx.prec = 50
        x = (1 if parity == "even" else -1) * (1 - Decimal(z))
        e_a, e_b = ((1 + (-2 * Decimal(a) ** 2).exp()) / 2 for a in (alpha, beta))
        o_a, o_b = ((1 - (-2 * Decimal(a) ** 2).exp()) / 2 for a in (alpha, beta))
        ab = (e_a * o_a * e_b * o_b).sqrt()
        blocks = [((1 + x) * e_a * e_b, (1 + x) * o_a * o_b, (1 - x) * ab),
                  ((1 - x) * e_a * o_b, (1 - x) * o_a * e_b, (1 + x) * ab)]
        trace = sum(p + r for p, r, _ in blocks)
        eig = []
        for p, r, q in blocks:
            h = (((p - r) / 2) ** 2 + q * q).sqrt()
            eig += [(p + r) / 2 + h, (p + r) / 2 - h]
        return tuple(float(sum((w / trace) ** n for w in eig)) for n in (2, 3))


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

    def test_purity_never_rounds_above_1(self):
        # the spectrum's power sums put a pure state's p2 up to 6 ulps above 1
        rng = np.random.default_rng(1)
        for n in range(1, 9):
            da = np.exp(rng.uniform(math.log(1e-150), math.log(1e100), 20000))
            p2, _ = hhg_pt_moments(HHGParams(3.0, da, n))
            assert (p2 <= 1.0).all()

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
                assert lossless_noon_moment(p, order) == pytest.approx(1.0)

    def test_balanced_third_moment(self):
        p = NOONParams.balanced(3)
        assert lossless_noon_moment(p, 3) == pytest.approx(0.25, abs=1e-15)

    def test_moment_independent_of_population(self):
        vals = [lossless_noon_moment(NOONParams(n, 0.6, 0.8), 3) for n in range(1, 6)]
        assert max(vals) - min(vals) < 1e-15

    @pytest.mark.parametrize("n", range(1, 6))
    def test_closed_form_matches_oracle(self, n):
        p = NOONParams(n, 0.6, 0.8)
        rho = lossy_noon_density(LossyNOONParams(p, 1.0, 1.0))
        assert pt_moment(rho, 2) == pytest.approx(lossless_noon_moment(p, 2), abs=1e-12)
        assert pt_moment(rho, 3) == pytest.approx(lossless_noon_moment(p, 3), abs=1e-12)


class TestLossyNOON:
    def test_tau_validation(self):
        with pytest.raises(DomainError):
            LossyNOONParams(NOONParams.balanced(1), 1.2, 0.5)

    def test_lossless_reduces_to_ideal(self):
        p = LossyNOONParams(NOONParams(2, 0.6, 0.8), 1.0, 1.0)
        p2, p3 = lossy_noon_pt_moments(p)
        assert p2 == 1.0
        assert p3 == pytest.approx(0.6 ** 6 + 0.8 ** 6, abs=1e-14)

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
        """Reference: p2 of one state's spectrum and p3 of its PT spectrum, each
        power (a product) added in index order in Python floats."""
        state, pt = (w.tolist() for w in lossy_noon_spectra(p))
        return tuple(functools.reduce(operator.add, terms)
                     for terms in ([x * x for x in state], [x * x * x for x in pt]))

    def test_fig3a_grid_equals_the_scalar_form_bit_for_bit(self):
        n, tau = (x.ravel() for x in np.meshgrid(
            np.arange(1, 11), np.round(np.arange(0.5, 1.0 + 1e-12, 1e-3), 10), indexing="ij"))
        p2, p3 = lossy_noon_pt_moments(LossyNOONParams.balanced(n, tau))
        ref = [lossy_noon_pt_moments(LossyNOONParams.balanced(int(a), float(t)))
               for a, t in zip(n, tau)]
        assert np.column_stack([p2, p3]).tobytes() == np.array(ref).tobytes()

    def test_unequal_losses_equal_the_scalar_form_bit_for_bit(self):
        rng = np.random.default_rng(5)
        n = rng.integers(1, 25, 600)
        ta, tb = rng.uniform(0.0, 1.0, (2, 600))
        ta[::7], tb[::11] = 0.0, 1.0
        for noon in (NOONParams(n, 0.6, 0.8), NOONParams(n, 0.6j, -0.8)):
            p2, p3 = lossy_noon_pt_moments(LossyNOONParams(noon, ta, tb))
            ref = [lossy_noon_pt_moments(LossyNOONParams(
                NOONParams(int(a), noon.alpha, noon.beta), float(x), float(y)))
                   for a, x, y in zip(n, ta, tb)]
            assert np.column_stack([p2, p3]).tobytes() == np.array(ref).tobytes()

    @pytest.mark.parametrize("shape", [(), (1,), (2, 1)])
    def test_many_k_terms_add_in_increasing_k(self, shape):
        # from 8 terms on, a pairwise sum would round differently, and a batch
        # pads the smaller N with zeros, which leave an in-order sum unchanged
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

    @pytest.mark.parametrize("N", [346, 1000, 1022])
    def test_past_the_old_limit_match_exact_sums(self, N):
        # C(N, k)^3 passed the float range from N = 346 on; the spectrum takes C(N, k) once
        self.test_moments_up_to_the_limit_match_exact_sums(N)
        p2, p3 = lossy_noon_pt_moments(LossyNOONParams.balanced(np.array([1, N]), 0.5))
        assert (p2[1], p3[1]) == lossy_noon_pt_moments(LossyNOONParams.balanced(N, 0.5))

    @pytest.mark.parametrize("ta, tb", [(1.0, 1.0), (0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    def test_without_partial_loss_the_spectrum_does_not_depend_on_n(self, ta, tb):
        # lossless NOON read p_n independent of N before the spectra; no N is refused here
        N = np.array([1, 5, 2000, 10 ** 9])
        p = LossyNOONParams(NOONParams(N, 0.6, 0.8), ta, tb)
        moments = family_pt_moments(p, 7)
        assert (moments == moments[:, :1]).all()
        if ta == tb == 1.0:
            ideal = [1.0, 0.6 ** 6 + 0.8 ** 6]
            assert moments[1:3, 0].tolist() == pytest.approx(ideal, abs=1e-15)

    @pytest.mark.parametrize("N", [1023, np.array([1, 2000])])
    def test_past_the_normal_float_range_is_refused(self, N):
        # 2^-N, the leading weight's power product at tau = 1/2, is subnormal past 1022
        with pytest.raises(DomainError, match="N <= 1022, got N = "):
            lossy_noon_spectra(LossyNOONParams(NOONParams(N, BAL, BAL), 0.5, 0.5))


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
        moments = lossless_noon_moment(NOONParams(np.arange(1, 301), alpha, beta), order)
        ref = [lossless_noon_moment(NOONParams(1, a, b), order)
               for a, b in zip(alpha.tolist(), beta.tolist())]
        assert moments.tolist() == ref
        wide = NOONParams(1, np.full((2, 1), BAL), BAL)
        assert lossless_noon_moment(wide, order).shape == (2, 1)

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


def noon_reference(N: int, alpha: float, beta: float, tau_a: float, tau_b: float) -> tuple:
    """(p2, p3) of the lossy NOON state's partial-transpose spectrum in 50-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 50
        a2, b2 = Decimal(abs(alpha)) ** 2, Decimal(abs(beta)) ** 2
        ta, tb = Decimal(tau_a), Decimal(tau_b)
        d = a2 * (1 - ta) ** N + b2 * (1 - tb) ** N
        c = (a2 * b2).sqrt() * (ta * tb).sqrt() ** N
        h = (d * d / 4 + c * c).sqrt()
        eig = [d / 2 + h, d / 2 - h]
        for w, t in ((a2, ta), (b2, tb)):
            eig += [w * math.comb(N, k) * t ** k * ((1 - t) ** (N - k) if k < N else 1)
                    for k in range(1, N + 1)]  # Decimal refuses 0 ** 0
        trace = sum(eig)
        return tuple(float(sum((w / trace) ** n for w in eig)) for n in (2, 3))


class TestSpectraAgainstTheOracle:
    """p_1 .. p_7 of each closed-form spectrum equal the dense oracle's power
    sums to 1e-14, at cutoffs whose coherent tails are below 1e-15."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_lossy_noon(self, n):
        for alpha, beta in ((0.6, 0.8j), (0.28, -0.96)):
            for ta, tb in ((1.0, 1.0), (0.9, 0.6), (0.3, 0.45), (0.0, 0.7), (1.0, 0.2)):
                p = LossyNOONParams(NOONParams(n, alpha, beta), ta, tb)
                got = family_pt_moments(p, 7)
                np.testing.assert_allclose(got, fock.pt_moments(lossy_noon_density(p), 7),
                                           rtol=0, atol=1e-14)

    @pytest.mark.parametrize("parity", ["even", "odd"])
    @pytest.mark.parametrize("alpha, beta, z", [(0.4, 0.7, 0.3), (1.0, 0.2, 0.8), (0.7, 0.3, 0.1),
                                                (0.05, 1.5, 0.0), (2.0, 1.0, 0.5), (1.2, 1.2, 1.0)])
    def test_cat(self, parity, alpha, beta, z):
        p = CatParams(alpha, beta, z, parity)
        cutoff = ModeCutoff(*(fock.coherent_cutoff([x], 1e-16, guard=2) for x in (alpha, beta)))
        got = family_pt_moments(p, 7)
        np.testing.assert_allclose(got, fock.pt_moments(cat_density(p, cutoff), 7),
                                   rtol=0, atol=1e-14)

    @pytest.mark.parametrize("parity", ["even", "odd"])
    @pytest.mark.parametrize("alpha, beta, z, tau", [(1.0, 1.0, 0.5, 0.8), (0.5, 0.7, 0.0, 0.3),
                                                     (1.3, 0.2, 0.9, 0.05), (0.8, 0.8, 0.2, 0.0),
                                                     (1.1, 0.6, 0.0, 1.0)])
    def test_lossy_cat(self, parity, alpha, beta, z, tau):
        # pure loss keeps the cat a cat (CatParams.after_loss)
        from ptmoments.circuits import lossy_channel
        p = CatParams(alpha, beta, z, parity)
        cutoff = ModeCutoff(*(fock.coherent_cutoff([x], 1e-16, guard=2) for x in (alpha, beta)))
        rho = lossy_channel(lossy_channel(cat_density(p, cutoff), tau, "a"), tau, "b")
        got = family_pt_moments(p.after_loss(tau), 7)
        np.testing.assert_allclose(got, fock.pt_moments(rho, 7), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_hhg(self, n):
        # smaller depletions cancel in the dense operator: about eps / delta_alpha^2,
        # 9e-14 at 0.05
        for alpha, da in ((1.2, 0.3), (1.2, 0.8), (2.0, 1.5), (0.5, 0.45)):
            p = HHGParams(alpha, da, n)
            cutoff = ModeCutoff(fock.coherent_cutoff([alpha, alpha - da], 1e-16, guard=2), 20)
            got = family_pt_moments(p, 7)
            np.testing.assert_allclose(got, fock.pt_moments(hhg_reduced_density(p, cutoff), 7),
                                       rtol=0, atol=1e-14)


class TestGridsAgainst50Digits:
    """p2 and p3 on the reproduce grids agree with a 50-digit evaluation to
    1e-14 (relative); fig2d's grid is in TestHHG, and fig3b reads estimation."""

    @staticmethod
    def grid(lo, hi, step):
        return np.round(np.arange(lo, hi + 1e-12, step), 10)

    def test_fig2c(self):
        z, a = (x.ravel() for x in np.meshgrid((0.0, 0.5, 0.9, 0.99), self.grid(0.01, 2.5, 0.01),
                                               indexing="ij"))
        p2, p3 = cat_pt_moments(CatParams(a, a, z, "odd"))
        ref = np.array([cat_reference(x, x, y, "odd") for x, y in zip(a.tolist(), z.tolist())])
        np.testing.assert_allclose(np.stack([p2, p3], 1), ref, rtol=1e-14, atol=0)

    def test_fig2e(self):
        n, a = (x.ravel() for x in np.meshgrid(np.arange(1, 6), self.grid(0.0, 1.0, 0.005),
                                               indexing="ij"))
        b = np.sqrt(np.maximum(1.0 - a * a, 0.0))
        for order in (2, 3):
            got = lossless_noon_moment(NOONParams(n, a, b), order)
            with localcontext() as ctx:
                ctx.prec = 50
                ref = [float((Decimal(x) ** 2) ** order + (Decimal(y) ** 2) ** order
                             + (2 * (Decimal(x) * Decimal(y)) ** order if order % 2 == 0 else 0))
                       for x, y in zip(a.tolist(), b.tolist())]
            np.testing.assert_allclose(got, ref, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("step", [1e-3, 2.5e-3], ids=["fig3a", "fig3c"])
    def test_fig3a_and_fig3c(self, step):
        n, tau = (x.ravel() for x in np.meshgrid(np.arange(1, 11), self.grid(0.5, 1.0, step),
                                                 indexing="ij"))
        p2, p3 = lossy_noon_pt_moments(LossyNOONParams.balanced(n, tau))
        ref = np.array([noon_reference(int(k), BAL, BAL, t, t)
                        for k, t in zip(n.tolist(), tau.tolist())])
        np.testing.assert_allclose(np.stack([p2, p3], 1), ref, rtol=1e-14, atol=0)


class TestExactPurity:
    """p2 = Tr[rho^2] is the power sum of the state's own spectrum, so a pure
    state (one nonzero weight) reads exactly 1; the power sums of the PT
    spectrum read a pure cat or NOON state a few ulps off."""

    M = 10 ** 5

    def test_pure_cats_on_random_amplitudes(self):
        rng = np.random.default_rng(37)
        alpha = rng.normal(0.0, 1.5, self.M) + 1j * rng.normal(0.0, 1.5, self.M)
        beta = rng.normal(0.0, 1.5, self.M)
        for parity in ("even", "odd"):
            p2, _ = cat_pt_moments(CatParams(alpha, beta, 0.0, parity))
            assert (p2 == 1.0).all()

    def test_pure_noon_on_random_amplitudes(self):
        rng = np.random.default_rng(38)
        theta = rng.uniform(0.0, math.pi / 2, self.M)
        alpha = np.cos(theta) * np.exp(1j * rng.uniform(0.0, 6.3, self.M))
        noon = NOONParams(rng.integers(1, 50, self.M), alpha, np.sin(theta))
        p2, _ = lossy_noon_pt_moments(LossyNOONParams(noon, 1.0, 1.0))
        assert (p2 == 1.0).all()

    def test_single_harmonic_hhg_and_the_qutrit(self):
        da = np.exp(np.random.default_rng(39).uniform(math.log(1e-150), math.log(1e100),
                                                       self.M // 5))
        for n in (1, 2):
            p2, _ = hhg_pt_moments(HHGParams(3.0, da, n))
            assert (p2 == 1.0).all()
        assert qutrit_state().pt_moment(2) == 1.0

    def test_mixed_states_never_round_above_1(self):
        rng = np.random.default_rng(40)
        alpha, beta = rng.normal(0.0, 1.5, (2, self.M))
        z = 1.0 - rng.uniform(0.0, 1.0, self.M)  # in (0, 1]
        for parity in ("even", "odd"):
            assert (cat_pt_moments(CatParams(alpha, beta, z, parity))[0] <= 1.0).all()
        m = self.M // 5  # each lossy spectrum is padded to the batch's largest N
        theta = rng.uniform(0.0, math.pi / 2, m)
        noon = NOONParams(rng.integers(1, 13, m), np.cos(theta), np.sin(theta))
        ta, tb = rng.uniform(0.0, 1.0, (2, m))
        assert (lossy_noon_pt_moments(LossyNOONParams(noon, ta, tb))[0] <= 1.0).all()
        da = rng.uniform(0.05, 6.0, m)
        assert (hhg_pt_moments(HHGParams(3.0, da, rng.integers(3, 9, m)))[0] <= 1.0).all()


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
