"""Finite-statistics layer: sampling the readout circuits, unbiased witness
estimators with their analytic variances, minimum sample sizes, and the full
simulated experiment with noisy copies.

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
import warnings
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from . import circuits
from .criteria import _require_finite, optimal_threshold
from .errors import DomainError
from .fock import BipartiteDensityOperator, ModeCutoff
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
        if self.k < 2:
            raise DomainError("k must be >= 2 (the quadratic estimator divides by k-1)")
        if self.repetitions < 2:
            raise DomainError("repetitions must be >= 2 (the spread needs two)")


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
    probs = dist.probs
    idx = rng.choice(probs.size, size=(repetitions, k), p=probs / probs.sum())
    return dist.values[idx].mean(axis=1)


def estimate_pn(dist: circuits.OutcomeDistribution, n: int, k: int, repetitions: int,
                rng: np.random.Generator) -> EstimatorResult:
    """Mean and spread over repetitions of the average of k i.i.d.
    root-of-unity readout values drawn from ``dist``, whose expectation is
    p_n; variance is the complex sample variance of the repetition
    estimates."""
    return _summarize(_sampled_estimates(dist, n, k, repetitions, rng), k)


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
    w_l = p3_k - (3.0 * p2_k - 1.0) / 2.0
    w_q = p3_k - (k * p2_k ** 2 - 1.0) / (k - 1.0)
    return w_l, w_q


def witness_variances(p2, p3, k):
    """Analytic variances of the two witness estimators at sample size k.

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
    if var_l.ndim == 0:
        return float(var_l), float(var_q)
    return var_l, var_q


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

def _draw_clamped(rng: np.random.Generator, mean: float, std: float,
                  shape) -> tuple[np.ndarray, int]:
    """Gaussian draws around mean clamped to [0, 1], and how many were
    clamped; a zero std draws nothing from rng."""
    raw = rng.normal(mean, std, size=shape) if std > 0 else np.full(shape, mean)
    clipped = np.clip(raw, 0.0, 1.0)
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
# circuits.outcome_distribution, on the union of their supports: the outcome
# rows some basis product reaches, in lexicographic order (6 rows at n=2, 31
# at n=3).  Every other outcome has probability zero in every run.
#
# The coefficients are laid out run-major, (4^n, runs) with the runs
# contiguous, and the table product table.T @ coefs is taken in column blocks
# of at most _SHOT_BLOCK runs, each of which BLAS runs on the calling thread.
# Each block is used up before the next is made (sampled, or multiplied into
# the readout values), so no (outcomes, runs) array is built: with it, one
# n=3 call at k=1000 freed about 1 MB, which glibc's malloc could hand back
# to the system at its trim threshold and fault in again on the next call.
# ---------------------------------------------------------------------------

# Runs per block of the table product.  An n=3 block is 31 x 64 x 128 =
# 253,952 multiply-adds, at or below OpenBLAS's single-thread cutoff of
# 65,536 x 4 = 262,144, so no second thread is woken (and left spinning) for
# a fraction of a millisecond of work, and a block's operands fit in L2.  The
# runs are split into equal blocks: a block one run wide, unless the call
# is, would go to gemv, whose sums round differently from gemm's.
_SHOT_BLOCK = 128


@lru_cache(maxsize=4)
def _noon1_tables(n: int):
    """The reachable outcome rows, the (4^n, reachable outcomes) table of
    basis-product distributions, its cumulative sums along the outcomes, and
    the readout value of every reachable outcome."""
    cutoff = ModeCutoff(2, 2)
    h = 1.0 / math.sqrt(2.0)
    # |00>, |10>, |01>, |+> at basis index i * d_b + j of |i>_A |j>_B
    basis = [BipartiteDensityOperator.from_state_vector(v, cutoff)
             for v in ([1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, h, h, 0])]
    dists = [circuits.outcome_distribution(copies, n) for copies in product(basis, repeat=n)]
    reachable, first, where = np.unique(np.concatenate([d.cells for d in dists]), axis=0,
                                        return_index=True, return_inverse=True)
    table = np.zeros((len(dists), reachable.shape[0]))
    # numpy 2.0.0 returns the inverse as a column
    table[np.repeat(np.arange(len(dists)), [d.probs.size for d in dists]),
          where.reshape(-1)] = np.concatenate([d.probs for d in dists])
    cumtable = np.cumsum(table, axis=1)
    values = np.concatenate([d.values for d in dists])[first]
    for arr in (reachable, table, cumtable, values):
        arr.setflags(write=False)
    return reachable, table, cumtable, values


def _noon1_coefficients(alphas, taus) -> np.ndarray:
    """Kronecker product of the per-copy basis coefficients, one column per
    run: shape (4^n, runs), runs contiguous.  alphas/taus: (runs, n)."""
    alphas = np.ascontiguousarray(np.transpose(alphas), dtype=float)
    taus = np.ascontiguousarray(np.transpose(taus), dtype=float)
    betas = np.sqrt(np.clip(1.0 - alphas ** 2, 0.0, 1.0))
    ab = alphas * betas
    per_copy = np.stack([1.0 - taus, taus * (alphas ** 2 - ab), taus * (betas ** 2 - ab),
                         2.0 * taus * ab], axis=1)
    coefs = per_copy[0]
    for c in per_copy[1:]:
        coefs = (coefs[:, None, :] * c[None, :, :]).reshape(-1, coefs.shape[1])
    return coefs


def _table_blocks(table: np.ndarray, coefs: np.ndarray):
    """The table product table.T @ coefs one block of runs at a time: yields
    (block slice, its (outcomes, block runs) product) over equal blocks of at
    most _SHOT_BLOCK runs."""
    runs = coefs.shape[1]
    blocks = -(-runs // _SHOT_BLOCK)
    edges = [runs * i // blocks for i in range(blocks + 1)]
    for start, stop in zip(edges[:-1], edges[1:]):
        yield slice(start, stop), table.T @ coefs[:, start:stop]


def noon1_moments(n: int, alphas, taus) -> np.ndarray:
    """Exact p_n of the readout for runs of n possibly different lossy N=1
    copies; alphas/taus have shape (runs, n).  Complex array of length runs:
    each run's outcome probabilities, the table times its coefficients,
    against the readout values, block by block."""
    _, table, _, values = _noon1_tables(n)
    coefs = _noon1_coefficients(alphas, taus)
    out = np.empty(coefs.shape[1], dtype=complex)
    for block, probs in _table_blocks(table, coefs):
        out[block] = np.ascontiguousarray(probs.T) @ values
    return out


def _sample_values(n: int, alphas: np.ndarray, taus: np.ndarray,
                   uniforms: np.ndarray) -> np.ndarray:
    """One readout value per run, drawn from each run's own distribution: the
    run's cumulative column is the cumulative table times its coefficients,
    read block by block."""
    _, _, cumtable, values = _noon1_tables(n)
    coefs = _noon1_coefficients(alphas, taus)
    idx = np.empty(coefs.shape[1], dtype=np.intp)
    for block, cum in _table_blocks(cumtable, coefs):
        idx[block] = (cum < uniforms[block] * cum[-1]).sum(axis=0)
    return values[np.minimum(idx, values.size - 1)]


# ---------------------------------------------------------------------------
# Full simulated experiment
# ---------------------------------------------------------------------------

def _optimal_witness_from_estimates(p2_k: np.ndarray, p3_k: np.ndarray) -> np.ndarray:
    return p3_k.real - optimal_threshold(np.clip(p2_k.real, 1e-9, 1.0))


def full_simulation(params: LossyNOONParams, plan: SamplingPlan,
                    noise: NoiseSpec | None = None, k_values=None) -> list[SimulationPoint]:
    """Simulated experiment on noisy lossy N=1 copies.

    For every sample of both circuits, each copy's alpha and tau are drawn
    afresh around the state's own |alpha| and tau, with the noise model's
    spreads (NoiseSpec() by default), and clamped to [0, 1]; a spread above
    a tenth of its mean warns that the narrow-fluctuation model may not
    apply.  Per sample-budget k, the optimal witness is
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
        noise = NoiseSpec()
    alpha = abs(params.noon.alpha)
    spread = {"alpha": (alpha, noise.alpha_rel_std * alpha), "tau": (params.tau_a, noise.tau_std)}
    for name, (mean, std) in spread.items():
        if mean != 0 and std > mean / 10.0:
            warnings.warn(f"noise on {name!r} exceeds a tenth of its mean; "
                          "the narrow-fluctuation model may not apply", stacklevel=2)
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
                a, ca = _draw_clamped(rng, *spread["alpha"], (k, n))
                t, ct = _draw_clamped(rng, *spread["tau"], (k, n))
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
