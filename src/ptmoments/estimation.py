"""Finite-statistics layer: sampling the readout circuits, unbiased witness
estimators with their analytic variances, minimum sample sizes, and the full
simulated experiment with noisy copies.

Reproducibility: all randomness flows through counter-based Philox generators
derived from a master seed and integer stream keys.  The simulated experiment
runs one repetition at a time on its own stream, keyed by (k, repetition).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from . import circuits
from .criteria import optimal_threshold
from .errors import DomainError
from .fock import BipartiteDensityOperator, ModeCutoff
from .states import LossyNOONParams, lossy_noon_pt_moments

__all__ = [
    "NoiseEntry",
    "NoiseSpec",
    "SamplingPlan",
    "EstimatorResult",
    "SimulationPoint",
    "rng_stream",
    "sample_pn",
    "estimate_pn",
    "witness_estimators",
    "witness_variances",
    "min_samples",
    "noon1_moments",
    "full_simulation",
    "DEFAULT_K_GRID",
]

DEFAULT_K_GRID = (10, 32, 100, 316, 1000, 3162)


@dataclass(frozen=True)
class NoiseEntry:
    """Gaussian fluctuation of one parameter, clamped to its validity range."""

    name: str
    mean: float
    std: float
    lo: float
    hi: float

    def __post_init__(self):
        if self.std < 0:
            raise DomainError(f"std must be >= 0, got {self.std}")
        if self.mean != 0 and self.std > abs(self.mean) / 10.0:
            warnings.warn(f"noise on {self.name!r} exceeds a tenth of its mean; "
                          "the narrow-fluctuation model may not apply", stacklevel=3)


@dataclass(frozen=True)
class NoiseSpec:
    """Per-parameter fluctuation model for noisy state copies."""

    alpha: NoiseEntry
    tau: NoiseEntry

    @classmethod
    def for_noon(cls, alpha: float, tau: float, alpha_rel_std: float = 0.05,
                 tau_std: float = 0.05) -> "NoiseSpec":
        """Default model of the simulated experiment: relative noise on the
        phase alpha, absolute noise on the transmissivity tau."""
        return cls(NoiseEntry("alpha", alpha, alpha_rel_std * alpha, 0.0, 1.0),
                   NoiseEntry("tau", tau, tau_std, 0.0, 1.0))


@dataclass(frozen=True)
class SamplingPlan:
    """Samples per estimate, outer repetitions, and the master seed."""

    k: int
    repetitions: int
    master_seed: int

    def __post_init__(self):
        if self.k < 2:
            raise DomainError("k must be >= 2 (the quadratic estimator divides by k-1)")
        if self.repetitions < 1:
            raise DomainError("repetitions must be >= 1")


@dataclass(frozen=True)
class EstimatorResult:
    """Mean and spread of a witness or moment estimate over repetitions."""

    mean: float
    variance: float
    std_error: float
    k: int
    repetitions: int


@dataclass(frozen=True)
class SimulationPoint:
    """One sample-budget point of the simulated experiment."""

    k: int
    estimate: EstimatorResult
    analytic_witness: float
    band_low: float
    band_high: float
    clamped_draws: int


def rng_stream(master_seed: int, *key: int) -> np.random.Generator:
    """Philox generator on the stream identified by the integer key tuple."""
    seq = np.random.SeedSequence(master_seed, spawn_key=tuple(int(x) for x in key))
    return np.random.Generator(np.random.Philox(seq))


# ---------------------------------------------------------------------------
# Sampling a fixed outcome distribution
# ---------------------------------------------------------------------------

def _sampled_estimates(dist: circuits.OutcomeDistribution, n: int, k: int,
                       repetitions: int, rng: np.random.Generator) -> np.ndarray:
    """Per-repetition means of k i.i.d. root-of-unity readout values drawn
    from ``dist``; complex array of length ``repetitions``."""
    if n != dist.n_copies:
        raise ValueError(f"distribution is for n={dist.n_copies}, asked n={n}")
    if k < 1 or repetitions < 1:
        raise DomainError(f"need k >= 1 and repetitions >= 1, got k={k}, "
                          f"repetitions={repetitions}")
    _, probs = dist.as_arrays()
    _, vals = circuits.outcome_weights(dist)
    idx = rng.choice(probs.size, size=(repetitions, k), p=probs / probs.sum())
    return vals[idx].mean(axis=1)


def sample_pn(dist: circuits.OutcomeDistribution, n: int, k: int,
              rng: np.random.Generator) -> complex:
    """Average of k i.i.d. root-of-unity readout values drawn from ``dist``.

    The expectation of the returned (complex) estimate is p_n.
    """
    return complex(_sampled_estimates(dist, n, k, 1, rng)[0])


def estimate_pn(dist: circuits.OutcomeDistribution, n: int, k: int, repetitions: int,
                rng: np.random.Generator) -> EstimatorResult:
    """Repeat sample_pn and summarize; variance is the complex sample variance
    of the repetition estimates."""
    return _summarize(_sampled_estimates(dist, n, k, repetitions, rng), k)


def _summarize(estimates: np.ndarray, k: int) -> EstimatorResult:
    reps = estimates.size
    mean = complex(estimates.mean())
    if reps > 1:
        var = float(np.sum(np.abs(estimates - mean) ** 2) / (reps - 1))
        std_err = math.sqrt(var / reps)
    else:
        var = float("nan")
        std_err = float("nan")
    return EstimatorResult(mean=float(mean.real), variance=var, std_error=std_err,
                           k=k, repetitions=reps)


# ---------------------------------------------------------------------------
# Witness estimators and their analytic variances
# ---------------------------------------------------------------------------

def witness_estimators(p2_k: complex, p3_k: complex, k: int) -> tuple[complex, complex]:
    """Unbiased estimators of the linear and quadratic witnesses from
    independent k-sample estimates of p2 and p3.

    The quadratic one subtracts (k p2_k^2 - 1)/(k - 1) rather than p2_k^2,
    which removes the O(1/k) bias of squaring a sample mean.
    """
    if k < 2:
        raise DomainError("quadratic estimator needs k >= 2")
    w_l = p3_k - (3.0 * p2_k - 1.0) / 2.0
    w_q = p3_k - (k * p2_k ** 2 - 1.0) / (k - 1.0)
    return w_l, w_q


def witness_variances(p2: float, p3: float, k: int) -> tuple[float, float]:
    """Analytic variances of the two witness estimators at sample size k."""
    if k < 2:
        raise DomainError("variances are defined for k >= 2")
    var_l = (1.0 - p3 ** 2) / k + 2.25 * (1.0 - p2 ** 2) / k
    var_q = ((1.0 - p3 ** 2) / k
             + 2.0 * (1.0 - p2 ** 2) * (1.0 + (2 * k - 3) * p2 ** 2) / (k * (k - 1)))
    return var_l, var_q


def min_samples(p2: float, p3: float, criterion: str = "quadratic") -> float:
    """Smallest k at which the witness mean plus one standard deviation is
    negative; math.inf when the witness itself is non-negative."""
    if criterion == "quadratic":
        mean = p3 - p2 ** 2
        var = lambda k: witness_variances(p2, p3, k)[1]
    elif criterion == "linear":
        mean = p3 - (3.0 * p2 - 1.0) / 2.0
        var = lambda k: witness_variances(p2, p3, k)[0]
    else:
        raise ValueError(f"criterion must be 'linear' or 'quadratic', got {criterion!r}")
    if mean >= 0:
        return math.inf
    k = 2
    while mean + math.sqrt(var(k)) >= 0:
        k *= 2
        if k > 10 ** 12:
            return math.inf
    lo, hi = max(k // 2, 2), k
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if mean + math.sqrt(var(mid)) < 0:
            hi = mid
        else:
            lo = mid
    if mean + math.sqrt(var(lo)) < 0:
        return lo
    return hi


# ---------------------------------------------------------------------------
# Noisy copies
# ---------------------------------------------------------------------------

def _draw_clamped(rng: np.random.Generator, entry: NoiseEntry, shape) -> tuple[np.ndarray, int]:
    raw = rng.normal(entry.mean, entry.std, size=shape) if entry.std > 0 \
        else np.full(shape, entry.mean)
    clipped = np.clip(raw, entry.lo, entry.hi)
    return clipped, int(np.count_nonzero(clipped != raw))


# ---------------------------------------------------------------------------
# Exact N=1 readout with per-run copy parameters
#
# The readout distribution is linear in each copy's density matrix.  A lossy
# N=1 copy with real alpha, beta and shared transmissivity tau is
#   (1 - tau)|00><00| + tau (alpha^2 - alpha beta)|10><10|
#     + tau (beta^2 - alpha beta)|01><01| + 2 tau alpha beta |+><+|,
# with |+> = (|10> + |01>)/sqrt(2).  So each run's distribution is a linear
# combination of the engine's distributions for the 4^n products of these
# four basis states, with the Kronecker product of the per-copy coefficients
# as weights.  The table of those 4^n distributions is built once with
# circuits.outcome_distribution at a two-level cutoff (d_out = n + 1), and
# keeps only the outcomes some basis product reaches: every other outcome has
# probability zero in every run (6 of 9 are kept at n=2, 31 of 256 at n=3).
# ---------------------------------------------------------------------------

@lru_cache(maxsize=4)
def _noon1_tables(n: int):
    """(4^n, reachable outcomes) table of basis-product distributions, and
    the readout value of every reachable outcome."""
    cutoff = ModeCutoff(2, 2)
    h = 1.0 / math.sqrt(2.0)
    # |00>, |10>, |01>, |+> at basis index i * d_b + j of |i>_A |j>_B
    basis = [BipartiteDensityOperator.from_state_vector(v, cutoff)
             for v in ([1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, h, h, 0])]
    rows = [circuits.outcome_distribution(copies, n).probs.reshape(-1)
            for copies in product(basis, repeat=n)]
    table = np.array(rows)
    reachable = np.flatnonzero(table.any(axis=0))
    table = table[:, reachable]
    values = circuits._readout_values((n + 1,) * (2 * (n - 1))).reshape(-1)[reachable]
    table.setflags(write=False)
    values.setflags(write=False)
    return table, values


def _noon1_distributions(n: int, alphas: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """Exact outcome probabilities, one row per run. alphas/taus: (runs, n)."""
    alphas = np.asarray(alphas, dtype=float)
    taus = np.asarray(taus, dtype=float)
    betas = np.sqrt(np.clip(1.0 - alphas ** 2, 0.0, 1.0))
    ab = alphas * betas
    per_copy = np.stack([1.0 - taus, taus * (alphas ** 2 - ab), taus * (betas ** 2 - ab),
                         2.0 * taus * ab], axis=-1)
    coefs = per_copy[:, 0]
    for c in range(1, n):
        coefs = (coefs[:, :, None] * per_copy[:, c, None, :]).reshape(coefs.shape[0], -1)
    return coefs @ _noon1_tables(n)[0]


def noon1_moments(n: int, alphas, taus) -> np.ndarray:
    """Exact p_n of the readout for runs of n possibly different lossy N=1
    copies; alphas/taus have shape (runs, n).  Complex array of length runs."""
    return _noon1_distributions(n, alphas, taus) @ _noon1_tables(n)[1]


def _sample_values(n: int, alphas: np.ndarray, taus: np.ndarray,
                   uniforms: np.ndarray) -> np.ndarray:
    """One readout value per run, drawn from each run's own distribution."""
    values = _noon1_tables(n)[1]
    probs = _noon1_distributions(n, alphas, taus)
    cum = np.cumsum(probs, axis=1)
    targets = uniforms * cum[:, -1]
    idx = (cum < targets[:, None]).sum(axis=1)
    return values[np.minimum(idx, values.size - 1)]


# ---------------------------------------------------------------------------
# Full simulated experiment
# ---------------------------------------------------------------------------

def _optimal_witness_from_estimates(p2_k: np.ndarray, p3_k: np.ndarray) -> np.ndarray:
    p2_clip = np.clip(p2_k.real, 1e-9, 1.0)
    thr = np.array([optimal_threshold(v) for v in p2_clip])
    return p3_k.real - thr


def full_simulation(params: LossyNOONParams, plan: SamplingPlan,
                    noise: NoiseSpec | None = None, k_values=None) -> list[SimulationPoint]:
    """Simulated experiment on noisy lossy N=1 copies.

    For every sample of both circuits, each copy's alpha and tau are drawn
    afresh from the noise model; per sample-budget k, the optimal witness is
    formed from the two circuit estimates and summarized over the plan's
    repetitions.  Repetition r of budget k draws, on its own stream
    rng_stream(master_seed, k, r), the alphas, taus and uniforms of the n=2
    circuit and then those of the n=3 circuit.  The analytic band is the
    perfect-copy witness plus/minus one standard deviation of the linear
    model.
    """
    if params.noon.N != 1:
        raise DomainError("the simulated experiment is defined for N=1 copies")
    if params.tau_a != params.tau_b:
        raise DomainError("the noise model draws one tau per copy; use tau_a == tau_b")
    if noise is None:
        noise = NoiseSpec.for_noon(abs(params.noon.alpha), params.tau_a)
    if k_values is None:
        k_values = DEFAULT_K_GRID

    p2_exact, p3_exact = lossy_noon_pt_moments(params)
    analytic = p3_exact - optimal_threshold(p2_exact)

    points = []
    for k in k_values:
        if k < 2:
            raise DomainError("k must be >= 2")
        estimates = {2: np.empty(plan.repetitions, dtype=complex),
                     3: np.empty(plan.repetitions, dtype=complex)}
        clamped = 0
        for r in range(plan.repetitions):
            rng = rng_stream(plan.master_seed, k, r)
            for n in (2, 3):
                a, ca = _draw_clamped(rng, noise.alpha, (k, n))
                t, ct = _draw_clamped(rng, noise.tau, (k, n))
                clamped += ca + ct
                estimates[n][r] = _sample_values(n, a, t, rng.random(k)).mean()
        witnesses = _optimal_witness_from_estimates(estimates[2], estimates[3])
        var_l = witness_variances(p2_exact, p3_exact, k)[0]
        result = _summarize(witnesses.astype(complex), k)
        points.append(SimulationPoint(
            k=k, estimate=result, analytic_witness=analytic,
            band_low=analytic - math.sqrt(var_l), band_high=analytic + math.sqrt(var_l),
            clamped_draws=clamped))
    return points
