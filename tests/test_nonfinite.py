"""NaN, +inf and -inf fed to every public function that takes a float, in
every module's ``__all__``, and large finite squeezing to the TMSV
constructors: each must raise a package error before any RuntimeWarning,
never return a number or a verdict.  +-1e300 in every float slot of
``states`` gives finite values or a package error, with no warning."""

import math
import sys
import warnings

import numpy as np
import pytest

from ptmoments import (circuits, criteria, estimation, fock, gaussian, noon_tables, reporting,
                       states)
from ptmoments.errors import DomainError, PtmomentsError
from ptmoments.fock import ModeCutoff

MODULES = (fock, states, circuits, criteria, gaussian, estimation, noon_tables, reporting)
BAL = 1 / math.sqrt(2)


def with_entry(mat, x, entry=(1, 2)):
    """A copy of ``mat`` with x at ``entry``."""
    mat = mat.copy()
    mat[entry] = x
    return mat


MIXED = np.eye(4) / 4


# (public name, one float slot of it) -> the call with x in that slot
CASES = {
    ("fock.BipartiteDensityOperator", "entry"):
        lambda x: fock.BipartiteDensityOperator(ModeCutoff(2, 2), with_entry(MIXED, x)),
    ("fock.BipartiteDensityOperator", "unchecked"):
        lambda x: fock.BipartiteDensityOperator(ModeCutoff(2, 2), with_entry(MIXED, x), False),
    ("fock.BipartiteDensityOperator", "state_vector"):
        lambda x: fock.BipartiteDensityOperator.from_state_vector([1.0, x, 0, 0],
                                                                  ModeCutoff(2, 2)),
    ("fock.coherent_cutoff", "alphas"): lambda x: fock.coherent_cutoff([1.0, x]),
    ("fock.coherent_cutoff", "tol"): lambda x: fock.coherent_cutoff([1.0], tol=x),
    ("fock.schmidt_probabilities", "coefficients"):
        lambda x: fock.schmidt_probabilities([[1.0, x], [0.0, 0.0]]),
    ("fock.pure_state_pt_moment", "odd"): lambda x: fock.pure_state_pt_moment([0.5, x], 3),
    ("fock.pure_state_pt_moment", "even"): lambda x: fock.pure_state_pt_moment([0.5, x], 2),
    ("states.CatParams", "alpha"): lambda x: states.CatParams(x, 1.0, 0.5),
    ("states.CatParams", "beta"): lambda x: states.CatParams(1.0, x, 0.5),
    ("states.CatParams", "z"): lambda x: states.CatParams(1.0, 1.0, x),
    ("states.cat_separability_radius", "z"): lambda x: states.cat_separability_radius(x),
    ("states.HHGParams", "alpha"): lambda x: states.HHGParams(x, 0.5, 2),
    ("states.HHGParams", "delta_alpha"): lambda x: states.HHGParams(3.0, x, 2),
    ("states.cat_pt_spectrum", "alpha"):
        lambda x: states.cat_pt_spectrum(states.CatParams(x, 1.0, 0.5)),
    ("states.cat_pt_spectrum", "beta"):
        lambda x: states.cat_pt_spectrum(states.CatParams(1.0, x, 0.5, "odd")),
    ("states.cat_pt_spectrum", "z"):
        lambda x: states.cat_pt_spectrum(states.CatParams(1.0, 1.0, x)),
    ("states.hhg_pt_spectrum", "alpha"):
        lambda x: states.hhg_pt_spectrum(states.HHGParams(x, 0.5, 3)),
    ("states.hhg_pt_spectrum", "delta_alpha"):
        lambda x: states.hhg_pt_spectrum(states.HHGParams(3.0, x, 3)),
    ("states.lossy_noon_pt_spectrum", "tau_a"):
        lambda x: states.lossy_noon_pt_spectrum(states.LossyNOONParams(
            states.NOONParams(2, 0.6, 0.8), x, 0.5)),
    ("states.lossy_noon_pt_spectrum", "tau_b"):
        lambda x: states.lossy_noon_pt_spectrum(states.LossyNOONParams(
            states.NOONParams(2, 0.6, 0.8), 0.5, x)),
    ("states.NOONParams", "alpha"): lambda x: states.NOONParams(1, x, BAL),
    ("states.NOONParams", "beta"): lambda x: states.NOONParams(1, BAL, x),
    ("states.LossyNOONParams", "tau_a"):
        lambda x: states.LossyNOONParams(states.NOONParams.balanced(1), x, 0.5),
    ("states.LossyNOONParams", "tau_b"):
        lambda x: states.LossyNOONParams(states.NOONParams.balanced(1), 0.5, x),
    ("states.FockSuperposition", "coefficients"):
        lambda x: states.FockSuperposition(np.array([[1.0, x], [0.0, 0.0]])),
    ("states.coherent_vector", "alpha"): lambda x: states.coherent_vector(x, 5),
    ("states.tmsv_vector", "r"): lambda x: states.tmsv_vector(x, 5),
    ("states.tmsv_density", "r"): lambda x: states.tmsv_density(x, 5),
    ("states.tmsv_cutoff", "r"): lambda x: states.tmsv_cutoff(x),
    ("states.tmsv_cutoff", "tol"): lambda x: states.tmsv_cutoff(0.5, x),
    ("circuits.OutcomeDistribution", "probs"):
        lambda x: circuits.OutcomeDistribution([[0, 0], [0, 1]], [1.0, x]),
    ("circuits.loss_kraus", "tau"): lambda x: circuits.loss_kraus(3, x),
    ("circuits.lossy_channel", "tau"):
        lambda x: circuits.lossy_channel(states.tmsv_density(0.5, 3), x, "a"),
    ("circuits.moment_law", "p2"): lambda x: circuits.moment_law((1.0, x)),
    ("circuits.moment_law", "p3"): lambda x: circuits.moment_law((1.0, 0.5, x)),
    ("criteria.PtMomentVector", "p2"): lambda x: criteria.PtMomentVector((1.0, x, 0.25)),
    ("criteria.CriterionReport", "witness"):
        lambda x: criteria.CriterionReport.from_witness("linear3", x),
    ("criteria.p3_linear", "p2"): lambda x: criteria.p3_linear(x, 0.25),
    ("criteria.p3_linear", "p3"): lambda x: criteria.p3_linear(0.5, x),
    ("criteria.p3_quadratic", "p2"): lambda x: criteria.p3_quadratic(x, 0.25),
    ("criteria.p3_quadratic", "p3"): lambda x: criteria.p3_quadratic(0.5, x),
    ("criteria.p3_optimal", "p2"): lambda x: criteria.p3_optimal(x, 0.25),
    ("criteria.p3_optimal", "p3"): lambda x: criteria.p3_optimal(0.5, x),
    ("criteria.simon_gaussian3", "p2"): lambda x: criteria.simon_gaussian3(x, 0.25),
    ("criteria.simon_gaussian3", "p3"): lambda x: criteria.simon_gaussian3(0.5, x),
    ("criteria.third_order_reports", "p2"): lambda x: criteria.third_order_reports(x, 0.25),
    ("criteria.third_order_reports", "p3"): lambda x: criteria.third_order_reports(0.5, x),
    ("criteria.optimal_threshold", "p2"): lambda x: criteria.optimal_threshold(x),
    ("criteria.gaussian_physicality_bound", "p2"):
        lambda x: criteria.gaussian_physicality_bound(x),
    ("gaussian.CovarianceMatrix", "diagonal"):
        lambda x: gaussian.CovarianceMatrix(with_entry(np.eye(4), x, (0, 0))),
    ("gaussian.CovarianceMatrix", "off_diagonal"):
        lambda x: gaussian.CovarianceMatrix(with_entry(np.eye(4), x, (0, 3))),
    ("gaussian.SymplecticPair", "nu1"): lambda x: gaussian.SymplecticPair(x, 1.0),
    ("gaussian.SymplecticPair", "nu2"): lambda x: gaussian.SymplecticPair(1.0, x),
    ("gaussian.tmsv_thermal", "n_bar"): lambda x: gaussian.tmsv_thermal(x, 0.5),
    ("gaussian.tmsv_thermal", "r"): lambda x: gaussian.tmsv_thermal(0.5, x),
    ("gaussian.tmsv_thermal_pt_pair", "n_bar"): lambda x: gaussian.tmsv_thermal_pt_pair(x, 0.5),
    ("gaussian.tmsv_thermal_pt_pair", "r"): lambda x: gaussian.tmsv_thermal_pt_pair(0.5, x),
    ("estimation.NoiseSpec", "alpha_rel_std"): lambda x: estimation.NoiseSpec(x, 0.05),
    ("estimation.NoiseSpec", "tau_std"): lambda x: estimation.NoiseSpec(0.05, x),
    ("estimation.estimate_pn", "law"):
        lambda x: estimation.estimate_pn([0.5, x], 2, 10, 2, np.random.default_rng(0)),
    ("estimation.witness_estimators", "p2_k"):
        lambda x: estimation.witness_estimators(x, 0.25, 10),
    ("estimation.witness_estimators", "p3_k"):
        lambda x: estimation.witness_estimators(0.5, x, 10),
    ("estimation.witness_variances", "p2"): lambda x: estimation.witness_variances(x, 0.25, 10),
    ("estimation.witness_variances", "p3"): lambda x: estimation.witness_variances(0.5, x, 10),
    ("estimation.witness_variances", "k"): lambda x: estimation.witness_variances(0.5, 0.25, x),
    ("estimation.min_samples", "p2"): lambda x: estimation.min_samples(x, 0.25),
    ("estimation.min_samples", "p3"): lambda x: estimation.min_samples(0.5, x),
    ("estimation.noon1_moments", "alphas"):
        lambda x: estimation.noon1_moments(2, [[x, BAL]], [[0.5, 0.5]]),
    ("estimation.noon1_moments", "taus"):
        lambda x: estimation.noon1_moments(2, [[BAL, BAL]], [[0.5, x]]),
    ("noon_tables.f2_formula", "alpha"): lambda x: noon_tables.f2_formula((0, 0), x, 0.5),
    ("noon_tables.f2_formula", "tau"): lambda x: noon_tables.f2_formula((0, 0), BAL, x),
    ("noon_tables.f3_formula", "alpha"):
        lambda x: noon_tables.f3_formula((0, 0, 0, 0), x, 0.5),
    ("noon_tables.f3_formula", "tau"): lambda x: noon_tables.f3_formula((0, 0, 0, 0), BAL, x),
}

# Public names that take no float of their own, each with the reason.
EXEMPT = {
    "fock.ToleranceProfile": "the package reads only DEFAULT_TOL, never a user-made profile",
    "fock.DEFAULT_TOL": "an instance",
    "fock.ModeCutoff": "integers",
    **dict.fromkeys([f"fock.{name}" for name in (
        "partial_transpose", "spectrum", "pt_moment", "pt_moments", "purity")],
        "a validated operator and integers"),
    **dict.fromkeys(["states.cat_density", "states.cat_pt_moments"], "validated CatParams"),
    **dict.fromkeys(["states.hhg_reduced_density", "states.hhg_pt_moments"],
                    "validated HHGParams"),
    "states.noon_pt_moment": "validated NOONParams",
    **dict.fromkeys(["states.lossy_noon_density", "states.lossy_noon_pt_moments"],
                    "validated LossyNOONParams"),
    "states.qutrit_state": "no argument",
    "circuits.dft": "an integer",
    **dict.fromkeys(["circuits.outcome_distribution", "circuits.value_law",
                     "circuits.cycle_traces"], "validated operators"),
    "circuits.multicopy_expectation": "a validated OutcomeDistribution",
    "circuits.class_values": "integer value classes",
    **dict.fromkeys([f"criteria.{name}" for name in (
        "hankel_matrix", "hankel_test", "newton_elementary", "descartes_test")],
        "a validated PtMomentVector"),
    "gaussian.OMEGA": "a constant",
    **dict.fromkeys([f"gaussian.{name}" for name in (
        "simon_test", "gaussian_pt_moment", "gaussian_pt_moments", "symplectic_p3_criteria")],
        "a validated SymplecticPair"),
    **dict.fromkeys(["estimation.SamplingPlan", "estimation.rng_stream"], "integers"),
    **dict.fromkeys(["estimation.EstimatorResult", "estimation.SimulationPoint"],
                    "result records, built by the package"),
    "estimation.full_simulation": "validated parameters, plan and noise, and integer budgets",
    "estimation.DEFAULT_K_GRID": "a constant",
    **dict.fromkeys(["noon_tables.f2_outcomes", "noon_tables.f3_outcomes",
                     "noon_tables.f3_zero_outcomes"], "no argument"),
    **dict.fromkeys(["reporting.Table", "reporting.write_table", "reporting.format_value"],
                    "data: a non-finite cell is written as nan, inf or -inf"),
    "reporting.read_table": "a path",
}


def test_every_public_name_is_fed_non_finite_floats_or_takes_none():
    public = {f"{mod.__name__.rsplit('.', 1)[1]}.{name}" for mod in MODULES
              for name in mod.__all__}
    fed = {name for name, _ in CASES}
    assert fed.isdisjoint(EXEMPT)
    assert fed | set(EXEMPT) == public


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("case", list(CASES), ids=[f"{name}-{slot}" for name, slot in CASES])
def test_non_finite_float_raises_a_package_error_before_any_warning(case, bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PtmomentsError):
            CASES[case](bad)


@pytest.mark.parametrize("big", [1e300, -1e300], ids=["1e300", "-1e300"])
@pytest.mark.parametrize("case", [c for c in CASES if c[0].startswith("states.")],
                         ids=[f"{name}-{slot}" for name, slot in CASES
                              if name.startswith("states.")])
def test_large_finite_float_in_states_gives_finite_values_or_a_package_error(case, big):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = CASES[case](big)
        except PtmomentsError:
            return
    if isinstance(result, np.ndarray) or np.isscalar(result):
        assert np.isfinite(result).all()


# The squeezing slots of the TMSV constructors, which refuse |r| past the
# largest r at which e^(2r) is a finite float: SQUEEZING calls each at
# n_bar = 0, where that bound is the last r that overflows nothing
SQUEEZING = {
    ("gaussian.tmsv_thermal", "r"): lambda r: gaussian.tmsv_thermal(0.0, r),
    ("gaussian.tmsv_thermal_pt_pair", "r"): lambda r: gaussian.tmsv_thermal_pt_pair(0.0, r),
    ("states.tmsv_vector", "r"): lambda r: states.tmsv_vector(r, 5),
    ("states.tmsv_density", "r"): lambda r: states.tmsv_density(r, 5),
}
R_MAX = math.log(sys.float_info.max) / 2


@pytest.mark.parametrize("big", [1e300, -1e300, 800.0, -800.0, 360.0])
@pytest.mark.parametrize("case", list(SQUEEZING), ids=[name for name, _ in SQUEEZING])
def test_large_squeezing_raises_a_package_error_before_any_warning(case, big):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PtmomentsError):
            CASES[case](big)


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("case", list(SQUEEZING), ids=[name for name, _ in SQUEEZING])
def test_largest_squeezing_is_accepted_without_warning_and_the_next_float_refused(case, sign):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        SQUEEZING[case](sign * R_MAX)
        with pytest.raises(DomainError, match=f"{R_MAX!r}"):
            SQUEEZING[case](sign * math.nextafter(R_MAX, math.inf))


@pytest.mark.parametrize("call", [
    lambda: gaussian.tmsv_thermal_pt_pair(0.5, R_MAX),
    lambda: gaussian.tmsv_thermal(1e3, R_MAX),
    lambda: gaussian.tmsv_thermal_pt_pair(1e3, -354.0),
    lambda: gaussian.tmsv_thermal(1e308, 0.5),
    lambda: gaussian.gaussian_pt_moment(gaussian.tmsv_thermal_pt_pair(0.0, R_MAX), 4),
    lambda: gaussian.gaussian_pt_moment(gaussian.tmsv_thermal_pt_pair(0.0, 354.6), 2),
], ids=["pt_pair-n_bar-0.5", "thermal-n_bar-1e3", "pt_pair-n_bar-1e3-negative-r",
        "thermal-n_bar-1e308", "moment-factor", "moment-sum"])
def test_thermal_squeezing_past_the_float_range_raises_a_package_error_before_any_warning(call):
    # (2 n_bar + 1) e^(2|r|), or a factor of a moment, passes the float range
    # below the n_bar = 0 bound on |r|
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            call()


def test_a_factor_read_as_0_is_kept_only_where_the_moment_is_below_an_ulp():
    # 2 nu2 overflows from r of about 354.54, and p2 of the pure TMSV read 0 there,
    # where it is 1; p_7's factor 2^6 / (7 nu2^6 + ...) reads 0 from r of about 59,
    # where the moment is below 1e-305
    pure = gaussian.tmsv_thermal_pt_pair(0.0, np.array([354.5, 60.0, 177.0]))
    assert gaussian.gaussian_pt_moment(pure, 2).tolist() == [1.0, 1.0, 1.0]
    assert gaussian.gaussian_pt_moment(pure, 7)[1:].tolist() == [0.0, 0.0]
    with pytest.raises(DomainError, match="p_2"):
        gaussian.gaussian_pt_moment(gaussian.tmsv_thermal_pt_pair(0.0, 354.6), 2)


def test_thermal_squeezing_below_the_float_range_keeps_its_bits():
    # fig5's n_bar and a squeezing just below where (2 n_bar + 1) e^(2r) overflows
    n_bar = (math.sqrt(2.0) - 1.0) / 2.0
    r = np.array([0.0, 0.3, 0.6, 354.0])
    pair = gaussian.tmsv_thermal_pt_pair(n_bar, r)
    scale = 2.0 * n_bar + 1.0
    assert pair.nu2.tolist() == [scale * math.exp(2.0 * x) for x in r.tolist()]
