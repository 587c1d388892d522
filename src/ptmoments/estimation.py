"""Finite-statistics layer: sampling the readout value, unbiased witness
estimators with their analytic variances, minimum sample sizes, and the full
simulated experiment with noisy copies.

Every readout value is drawn from its exact n-class law
(``circuits.value_law``), never from an outcome table: a repetition of k
shots is one multinomial draw of the class counts.  The noisy-copy
experiment draws its counts from the law of identical copies of the
noise-averaged state, which is the law of every shot.

The analytic variances and the minimum sample sizes are elementwise: arrays
of (p2, p3) go through in one call, each element with the bits (and, for the
sample sizes, the Python int or math.inf) of its scalar evaluation.  A
minimum sample size starts from the closed-form root of its variance
inequality and only settles the float boundary, one k at a time.

Reproducibility: all randomness flows through counter-based Philox generators
derived from a master seed and integer stream keys.  The simulated experiment
runs one repetition at a time on its own stream, keyed by (k, repetition).
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from . import circuits
from .criteria import optimal_threshold
from .errors import DomainError, _require_finite
from .states import LossyNOONParams, lossy_noon_pt_moments

__all__ = [
    "NoiseSpec",
    "SamplingPlan",
    "EstimatorResult",
    "SimulationPoint",
    "rng_stream",
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
class NoiseSpec:
    """Gaussian fluctuation of each noisy copy around the simulated state:
    relative on the amplitude |alpha|, absolute on the transmissivity tau."""

    alpha_rel_std: float = 0.05
    tau_std: float = 0.05

    def __post_init__(self):
        for name, std in (("alpha_rel_std", self.alpha_rel_std), ("tau_std", self.tau_std)):
            if not 0.0 <= std < math.inf:
                raise DomainError(f"{name} must be finite and >= 0, got {std}")


@dataclass(frozen=True)
class SamplingPlan:
    """Samples per estimate, outer repetitions, and the master seed.

    ``full_simulation`` reads only ``repetitions`` and ``master_seed``; its
    sample budgets come from its ``k_values``."""

    k: int
    repetitions: int
    master_seed: int

    def __post_init__(self):
        # the quadratic estimator divides by k - 1, and a spread needs two
        for name, least in (("k", 2), ("repetitions", 2), ("master_seed", 0)):
            _count(name, getattr(self, name), least)


@dataclass(frozen=True, slots=True)
class EstimatorResult:
    """Mean and spread of a witness or moment estimate over repetitions."""

    mean: float
    variance: float
    std_error: float
    k: int
    repetitions: int


@dataclass(frozen=True, slots=True)
class SimulationPoint:
    """One sample-budget point of the simulated experiment."""

    k: int
    estimate: EstimatorResult
    analytic_witness: float
    band_low: float
    band_high: float
    clamped_draws: float


def _count(name: str, value, least: int) -> int:
    """``value`` as an int; DomainError unless it is an integer (by
    operator.index, so not a float) of at least ``least``."""
    try:
        value = operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise DomainError(f"{name} must be >= {least}, got {value}")
    return value


def rng_stream(master_seed: int, *key: int) -> np.random.Generator:
    """Philox generator on the stream identified by the integer key tuple."""
    seq = np.random.SeedSequence(master_seed, spawn_key=tuple(int(x) for x in key))
    return np.random.Generator(np.random.Philox(seq))


# ---------------------------------------------------------------------------
# Sampling the readout value from its law
# ---------------------------------------------------------------------------

def _mean_values(counts: np.ndarray, k: int) -> np.ndarray:
    """Mean value of k shots from class counts (last axis); class m is omega_n^m."""
    n = counts.shape[-1]
    return (counts * circuits.class_values(np.arange(n), n)).sum(axis=-1) / k


def _sampled_estimates(law, n: int, k: int, repetitions: int,
                       rng: np.random.Generator) -> np.ndarray:
    """Per-repetition means of k i.i.d. readout values drawn from the n class
    probabilities ``law``, one multinomial draw of the class counts each."""
    law = np.asarray(law, dtype=float)
    if law.shape != (n,):
        raise ValueError(f"law is for n={law.size}, asked n={n}")
    k, repetitions = _count("k", k, 1), _count("repetitions", repetitions, 1)
    return _mean_values(rng.multinomial(k, law / law.sum(), size=repetitions), k)


def estimate_pn(dist, n: int, k: int, repetitions: int,
                rng: np.random.Generator) -> EstimatorResult:
    """Mean and spread over repetitions of the average of k i.i.d. readout
    values drawn from the law of ``dist`` (an OutcomeDistribution, or n class
    probabilities), p_n on average for identical copies; variance is the
    complex sample variance of the repetition estimates."""
    law = dist.value_law() if isinstance(dist, circuits.OutcomeDistribution) else dist
    _require_finite(law=law)
    return _summarize(_sampled_estimates(law, n, k, repetitions, rng), k)


def _summarize(estimates: np.ndarray, k: int) -> EstimatorResult:
    reps = estimates.size
    if reps < 2:
        raise DomainError(f"a spread needs repetitions >= 2, got {reps}")
    mean = complex(estimates.mean())
    var = float(np.sum(np.abs(estimates - mean) ** 2) / (reps - 1))
    std_err = math.sqrt(var / reps)
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
    _require_finite(p2_k=p2_k, p3_k=p3_k)
    w_l = p3_k - (3.0 * p2_k - 1.0) / 2.0
    w_q = p3_k - (k * p2_k ** 2 - 1.0) / (k - 1.0)
    return w_l, w_q


def witness_variances(p2, p3, k):
    """Analytic variances of the two witness estimators at sample size k.

    p3's estimate enters with the paper's bound (1 - p3^2)/k, the variance
    of the complex estimate, and not with the variance
    ((1 + p3)/2 - p3^2)/k of its real part, which the witnesses read.
    One elementwise formula: p2, p3 and k broadcast, and scalars give
    floats.  k(k - 1) is formed in floats, so k may pass the int64 range of
    its square."""
    _require_finite(p2=p2, p3=p3)
    k = np.asarray(k, dtype=float)
    if not ((k >= 2) & (k < math.inf)).all():  # NaN fails too
        raise DomainError(f"variances are defined for finite k >= 2, got {k}")
    p2_sq, p3_sq = np.float_power(p2, 2), np.float_power(p3, 2)
    var_l = (1.0 - p3_sq) / k + 2.25 * (1.0 - p2_sq) / k
    var_q = ((1.0 - p3_sq) / k
             + 2.0 * (1.0 - p2_sq) * (1.0 + (2.0 * k - 3.0) * p2_sq) / (k * (k - 1.0)))
    return (float(var_l), float(var_q)) if var_l.ndim == 0 else (var_l, var_q)


def min_samples(p2, p3, criterion: str = "quadratic"):
    """Smallest k >= 2 at which the witness mean m plus one standard
    deviation is negative; math.inf when m >= 0 or that k is above 1e12.

    Detection means var(k) < m^2: k > A/m^2 for the linear witness, with
    A = (1 - p3^2) + 2.25 (1 - p2^2), and k past the larger root of
    m^2 k^2 - (m^2 + B + 4Cq) k + (B - 2C + 6Cq), q = p2^2, B = 1 - p3^2,
    C = 1 - q, for the quadratic one.  Each element starts at the floor of
    its root, clipped to [2, 2e12], and steps by one with the float test
    until it is the smallest k that passes.  Scalars give an int (or
    math.inf), arrays an object array of them.  Needs 0 < p2 <= 1 and
    |p3| <= 1, where no variance is negative.
    """
    p2, p3 = np.broadcast_arrays(np.asarray(p2, dtype=float), np.asarray(p3, dtype=float))
    if not ((p2 > 0) & (p2 <= 1) & (np.abs(p3) <= 1)).all():  # NaN fails too
        raise DomainError(f"min_samples needs 0 < p2 <= 1 and |p3| <= 1, got p2={p2}, p3={p3}")
    shape = p2.shape
    p2, p3 = p2.ravel(), p3.ravel()
    if criterion == "quadratic":
        mean, which = p3 - np.float_power(p2, 2), 1
    elif criterion == "linear":
        mean, which = p3 - (3.0 * p2 - 1.0) / 2.0, 0
    else:
        raise ValueError(f"criterion must be 'linear' or 'quadratic', got {criterion!r}")

    def passes(k, i):
        return mean[i] + np.sqrt(witness_variances(p2[i], p3[i], k)[which]) < 0

    i = np.flatnonzero(mean < 0)
    m2, q, b = mean[i] ** 2, np.float_power(p2[i], 2), 1.0 - np.float_power(p3[i], 2)
    c = 1.0 - q
    with np.errstate(divide="ignore", over="ignore"):  # m^2 may underflow to 0
        if which:
            lin_coef = m2 + b + 4.0 * c * q
            # never negative: it is (m^2 - Y)^2 + X^2 - Y^2 with X = B + 4Cq >= Y =
            # B - 4C + 8Cq, and (m^2 - Y)^2 >= Y^2 if Y < 0; the clip takes off rounding
            disc = np.maximum(lin_coef ** 2 - 4.0 * m2 * (b - 2.0 * c + 6.0 * c * q), 0.0)
            bound = (lin_coef + np.sqrt(disc)) / (2.0 * m2)
        else:
            bound = (b + 2.25 * c) / m2
    k = np.full(mean.shape, 2, dtype=np.int64)
    k[i] = np.clip(np.floor(bound), 2, 2e12)
    down = i[k[i] > 2]
    while down.size:
        down = down[passes(k[down] - 1, down)]
        k[down] -= 1
        down = down[k[down] > 2]
    up = i
    while up.size:
        up = up[~passes(k[up], up)]
        k[up] += 1
        up = up[k[up] <= 10 ** 12]
    k_star = k.astype(object)
    k_star[(mean >= 0) | (k > 10 ** 12)] = math.inf
    k_star = k_star.reshape(shape)
    return k_star.item() if k_star.ndim == 0 else k_star


# ---------------------------------------------------------------------------
# Noisy copies
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def _gauss_legendre(m: int = 16, panels: int = 8) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [0, 1] of ``panels`` equal m-point Gauss-Legendre
    panels, by Newton's method on the Legendre recurrence: elementwise, with
    no LAPACK call (numpy's leggauss, an eigenvalue solve, adds about 0.9 MB
    to a process's peak RSS the first time it runs)."""
    x = np.cos(np.pi * (np.arange(m) + 0.75) / (m + 0.5))
    for _ in range(8):
        p0, p1 = np.ones(m), x
        for j in range(2, m + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        slope = m * (x * p1 - p0) / (x * x - 1.0)
        x = x - p1 / slope
    nodes = (np.arange(panels)[:, None] + 0.5 * (x + 1.0)) / panels
    return nodes.ravel(), np.tile(1.0 / ((1.0 - x * x) * slope ** 2 * panels), panels)


def _clamped_moments(mean: float, std: float) -> tuple[float, float, float, float]:
    """P(clamped), E[x], E[x^2] and E[x sqrt(1 - x^2)] of a normal draw x
    around ``mean`` clamped to [0, 1] (a zero std draws ``mean``): closed
    forms in erf, the clamp masses exact, and for the last, zero on both
    clamps, the composite Gauss-Legendre rule in theta = arcsin x (free of
    the root's endpoint singularity) within 10 std of the mean."""
    if std == 0:
        x = min(max(mean, 0.0), 1.0)
        return 0.0, x, x * x, x * math.sqrt(1.0 - x * x)
    lo, hi = -mean / std, (1.0 - mean) / std  # the clamps, standardized
    root2, gauss = math.sqrt(2.0), math.sqrt(2.0 * math.pi)
    below, above = 0.5 * math.erfc(-lo / root2), 0.5 * math.erfc(hi / root2)
    inside = 1.0 - below - above
    pdf_lo, pdf_hi = math.exp(-0.5 * lo * lo) / gauss, math.exp(-0.5 * hi * hi) / gauss
    first = above + mean * inside - std * (pdf_hi - pdf_lo)
    second = (above + (mean ** 2 + std ** 2) * inside - 2.0 * mean * std * (pdf_hi - pdf_lo)
              - std ** 2 * (hi * pdf_hi - lo * pdf_lo))
    # theta = centre + d: sin(theta) - mean is formed from d, exact at a small std
    centre = math.asin(min(max(mean, 0.0), 1.0))
    start, stop = (math.asin(min(max(mean + s * 10.0 * std, 0.0), 1.0)) for s in (-1, 1))
    nodes, weights = _gauss_legendre()
    d = (start - centre) + (stop - start) * nodes
    z = 2.0 * np.cos(centre + 0.5 * d) * np.sin(0.5 * d) / std
    integrand = np.sin(centre + d) * np.cos(centre + d) ** 2 * np.exp(-0.5 * z * z) / (std * gauss)
    third = (stop - start) * float(np.sum(weights * integrand))
    return below + above, first, second, third


# ---------------------------------------------------------------------------
# Exact N=1 readout with per-run copy parameters
#
# A lossy N=1 copy with real alpha, beta and shared transmissivity tau is
#   (1 - tau)|00><00| + tau (alpha^2 - alpha beta)|10><10|
#     + tau (beta^2 - alpha beta)|01><01| + 2 tau alpha beta |+><+|,
# with |+> = (|10> + |01>)/sqrt(2).  The mean readout value t of n copies
# (the cycle trace t_(n-1) of circuits.value_law) is linear in each copy: the
# (4,)*n tensor of the basis products' t, one batched cycle trace of the stacked
# basis partial transposes, contracted with each copy's coefficients.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=4)
def _noon1_terms(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices (one row each) and values of the nonzero entries of the
    (4,)*n tensor of mean values of the n-fold products of the basis states
    |00>, |10>, |01>, |+>: sums of products of entries 0, 1/2 and 1, so exact."""
    # |v><v| / <v|v> at basis index i * d_b + j of |i>_A |j>_B, partially transposed
    v = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 1, 1, 0]])
    pts = (v[:, :, None] * v[:, None, :] / (v * v).sum(1)[:, None, None]).reshape(
        4, 2, 2, 2, 2).transpose(0, 1, 4, 3, 2).reshape(4, 4, 4)
    tensor = circuits._cycle_traces([pts.reshape((1,) * c + (4,) + (1,) * (n - 1 - c) + (4, 4))
                                     for c in range(n)])[-1]
    index = np.argwhere(tensor)
    weights = tensor[tuple(index.T)]
    for arr in (index, weights):
        arr.setflags(write=False)
    return index, weights


def _noon1_contract(n: int, coefs: np.ndarray) -> np.ndarray:
    """t of each run from its first n copies' coefficients (copies, 4, runs),
    summed term by term, so a run's bits do not depend on the other runs."""
    index, weights = _noon1_terms(n)
    terms = weights[:, None] * coefs[0, index[:, 0]]
    for c in range(1, n):
        terms *= coefs[c, index[:, c]]
    return reduce(np.add, terms)


def noon1_moments(n: int, alphas, taus) -> np.ndarray:
    """Exact p_n of the readout for runs of n possibly different lossy N=1
    copies; alphas/taus have shape (runs, n).  Real array of length runs."""
    alphas = np.ascontiguousarray(np.transpose(alphas), dtype=float)
    taus = np.ascontiguousarray(np.transpose(taus), dtype=float)
    _require_finite(alphas=alphas, taus=taus)
    betas = np.sqrt(np.clip(1.0 - alphas ** 2, 0.0, 1.0))
    ab = alphas * betas
    coefs = np.stack([1.0 - taus, taus * (alphas ** 2 - ab), taus * (betas ** 2 - ab),
                      2.0 * taus * ab], axis=1)  # (n, 4, runs)
    return _noon1_contract(n, coefs)


def _averaged_copy(alpha, alpha_std, tau, tau_std) -> tuple[float, float, float]:
    """p_2 and p_3 of the noise-averaged copy, the contraction of the expected
    coefficients (alpha and tau are independent), and P(alpha or tau clamped)."""
    clamped_a, _, a2, ab = _clamped_moments(alpha, alpha_std)
    clamped_t, t1, _, _ = _clamped_moments(tau, tau_std)
    coefs = np.array([1.0 - t1, t1 * (a2 - ab), t1 * (1.0 - a2 - ab), 2.0 * t1 * ab])
    t2, t3 = (float(_noon1_contract(n, np.broadcast_to(coefs[:, None], (n, 4, 1)))[0])
              for n in (2, 3))
    return t2, t3, clamped_a + clamped_t


# ---------------------------------------------------------------------------
# Full simulated experiment
# ---------------------------------------------------------------------------

def _optimal_witness_from_estimates(p2_k: np.ndarray, p3_k: np.ndarray) -> np.ndarray:
    return p3_k.real - optimal_threshold(np.clip(p2_k.real, 1e-9, 1.0))


@lru_cache(maxsize=64)
def _analytic_band(params: LossyNOONParams, k: int) -> tuple[float, float, float]:
    """The perfect-copy optimal witness, and it minus and plus one standard
    deviation of the linear model at k; cached, so the points of repeated
    runs share these floats (perfbench's experiment keeps every point)."""
    p2, p3 = lossy_noon_pt_moments(params)
    witness, std = p3 - optimal_threshold(p2), math.sqrt(witness_variances(p2, p3, k)[0])
    return witness, witness - std, witness + std


def full_simulation(params: LossyNOONParams, plan: SamplingPlan,
                    noise: NoiseSpec | None = None, k_values=None) -> list[SimulationPoint]:
    """Simulated experiment on noisy lossy N=1 copies.

    Each copy of each shot has its alpha and tau drawn around the state's
    own |alpha| and tau with the noise model's spreads (NoiseSpec() by
    default) and clamped to [0, 1]; a spread above a tenth of its mean warns
    that the narrow-fluctuation model may not apply.  The draws are
    independent and a shot's law is linear in each copy, so every shot has
    the law of identical copies of the noise-averaged state: its p_n is the
    contraction of the expected coefficients.  Repetition r of budget k
    draws, on the stream rng_stream(master_seed, k, r), the class counts of
    the n=2 and then the n=3 circuit, one multinomial each, and forms the
    optimal witness.  ``clamped_draws`` is the mean number of clamped draws
    of the per-shot model; the analytic band is the perfect-copy witness
    plus/minus one standard deviation of the linear model.
    """
    if params.noon.N != 1:
        raise DomainError("the simulated experiment is defined for N=1 copies")
    if params.tau_a != params.tau_b:
        raise DomainError("the noise model draws one tau per copy; use tau_a == tau_b")
    if noise is None:
        noise = NoiseSpec()
    alpha = abs(params.noon.alpha)
    spread = {"alpha": (alpha, noise.alpha_rel_std * alpha), "tau": (params.tau_a, noise.tau_std)}
    for name, (mean, std) in spread.items():
        if mean != 0 and std > mean / 10.0:
            warnings.warn(f"noise on {name!r} exceeds a tenth of its mean; "
                          "the narrow-fluctuation model may not apply", stacklevel=2)
    if k_values is None:
        k_values = DEFAULT_K_GRID

    t2, t3, clamped = _averaged_copy(*spread["alpha"], *spread["tau"])
    laws = {2: circuits.moment_law((1.0, t2)), 3: circuits.moment_law((1.0, t2, t3))}

    points = []
    for k in k_values:
        k = _count("k", k, 2)
        streams = (rng_stream(plan.master_seed, k, r) for r in range(plan.repetitions))
        estimates = np.array([[_sampled_estimates(laws[n], n, k, 1, rng)[0] for n in (2, 3)]
                              for rng in streams])
        witnesses = _optimal_witness_from_estimates(estimates[:, 0], estimates[:, 1])
        points.append(SimulationPoint(k, _summarize(witnesses.astype(complex), k),
                                      *_analytic_band(params, k),
                                      plan.repetitions * k * (2 + 3) * clamped))
    return points
