"""State families: dephased cats, depleted-driver/harmonic pairs, NOON states
with and without loss, finite Fock superpositions, and two-mode squeezed
vacua.

Each family provides a truncated-Fock density operator (for the dense oracle)
and, where available, closed-form values of the low-order PT-moments.  The
closed forms act as ground truth; the truncated operators are renormalized to
unit trace after the cutoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import CutoffTooSmallError, DomainError
from .fock import (
    DEFAULT_TOL,
    BipartiteDensityOperator,
    ModeCutoff,
    coherent_cutoff,
    pure_state_pt_moment,
    schmidt_probabilities,
)

__all__ = [
    "CatParams",
    "cat_density",
    "cat_pt_moments",
    "cat_separability_radius",
    "HHGParams",
    "hhg_reduced_density",
    "hhg_pt_moments",
    "NOONParams",
    "noon_pt_moment",
    "LossyNOONParams",
    "lossy_noon_density",
    "lossy_noon_pt_moments",
    "FockSuperposition",
    "qutrit_state",
    "coherent_vector",
    "tmsv_vector",
    "tmsv_density",
    "tmsv_cutoff",
]


def coherent_vector(alpha: complex, d: int) -> np.ndarray:
    """Truncated coherent-state amplitudes (not renormalized)."""
    if not np.isfinite(alpha):
        raise DomainError(f"alpha must be finite, got {alpha}")
    n = np.arange(d)
    log_fact = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, d)))))
    amps = np.exp(-abs(alpha) ** 2 / 2 - log_fact / 2) * np.power(complex(alpha), n)
    return amps.astype(complex)


# ---------------------------------------------------------------------------
# Dephased cat states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CatParams:
    """Two-mode cat state: superposition of |alpha, beta> and |-alpha, -beta>
    with off-diagonal terms damped by the dephasing parameter z."""

    alpha: complex
    beta: complex
    z: float
    parity: str = "even"

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and np.isfinite(self.beta)):
            raise DomainError(f"alpha and beta must be finite, got {self.alpha}, {self.beta}")
        if not 0.0 <= self.z <= 1.0:
            raise DomainError(f"z must lie in [0, 1], got {self.z}")
        if self.parity not in ("even", "odd"):
            raise DomainError(f"parity must be 'even' or 'odd', got {self.parity!r}")
        if self.alpha == 0 and self.beta == 0 and self.z <= 0.0:
            raise DomainError("centered cat needs z > 0 to be well defined")

    @property
    def sign(self) -> float:
        return 1.0 if self.parity == "even" else -1.0


def cat_density(p: CatParams, cutoff: ModeCutoff | None = None) -> BipartiteDensityOperator:
    """Four-term coherent mixture, truncated and renormalized to unit trace."""
    if cutoff is None:
        cutoff = ModeCutoff(coherent_cutoff([p.alpha]), coherent_cutoff([p.beta]))
    for amp, d, side in ((p.alpha, cutoff.d_a, "A"), (p.beta, cutoff.d_b, "B")):
        tail = 1.0 - np.sum(np.abs(coherent_vector(amp, d)) ** 2)
        if tail > DEFAULT_TOL.trunc:
            raise CutoffTooSmallError(f"coherent tail {tail:.2e} on {side} "
                                      f"exceeds {DEFAULT_TOL.trunc:.1e}")
    plus = np.kron(coherent_vector(p.alpha, cutoff.d_a), coherent_vector(p.beta, cutoff.d_b))
    minus = np.kron(coherent_vector(-p.alpha, cutoff.d_a), coherent_vector(-p.beta, cutoff.d_b))
    mat = (np.outer(plus, plus.conj()) + np.outer(minus, minus.conj())
           + p.sign * (1.0 - p.z) * (np.outer(plus, minus.conj()) + np.outer(minus, plus.conj())))
    mat /= np.trace(mat).real
    return BipartiteDensityOperator._adopt(cutoff, mat)


def cat_pt_moments(p: CatParams) -> tuple[float, float]:
    """Closed-form (p2, p3) of the dephased cat state."""
    s = p.sign
    r2 = abs(p.alpha) ** 2 + abs(p.beta) ** 2
    e2 = np.exp(-2.0 * r2)
    e4 = np.exp(-4.0 * r2)
    e6 = np.exp(-6.0 * r2)
    omz = 1.0 - p.z
    c = 2.0 * (1.0 + s * omz * e2)
    p2 = 2.0 / c ** 2 * ((1.0 + omz ** 2) * (1.0 + e4) + s * 4.0 * omz * e2)
    p3 = 2.0 / c ** 3 * (
        1.0 + 3.0 * e4
        + s * 3.0 * omz * e2 * (2.0 + np.exp(-4.0 * abs(p.alpha) ** 2)
                                + np.exp(-4.0 * abs(p.beta) ** 2))
        + 3.0 * omz ** 2 * e4 * (2.0 + np.exp(4.0 * abs(p.alpha) ** 2)
                                 + np.exp(4.0 * abs(p.beta) ** 2))
        + s * omz ** 3 * e6 * (1.0 + 3.0 * np.exp(4.0 * r2))
    )
    return float(p2), float(p3)


def cat_separability_radius(z: float) -> float:
    """Radius of the separable disk of the odd cat in the (|alpha|, |beta|)
    plane: sqrt(-ln(1-z)/2).  Zero at z = 0, inf at z = 1."""
    if not 0.0 <= z <= 1.0:
        raise DomainError(f"z must lie in [0, 1], got {z}")
    if z == 0.0:
        return 0.0
    if z == 1.0:
        return float("inf")
    return float(np.sqrt(-0.5 * np.log(1.0 - z)))


# ---------------------------------------------------------------------------
# Depleted driving field entangled with one harmonic mode
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HHGParams:
    """Driving-field mode depleted by delta_alpha, entangled with one of the
    N-1 equally displaced harmonic modes (N = total number of modes).

    N = 1 is accepted for convenience and mapped to the smallest bipartite
    member of the family, the pure two-mode state (identical to N = 2).
    """

    alpha: float
    delta_alpha: float
    N: int

    def __post_init__(self):
        if self.N < 1:
            raise DomainError(f"N must be >= 1, got {self.N}")
        if not np.isfinite(self.alpha):
            raise DomainError(f"alpha must be finite, got {self.alpha}")
        if not 0.0 <= self.delta_alpha < np.inf:
            raise DomainError(f"delta_alpha must be finite and >= 0, got {self.delta_alpha}")


def _hhg_scalars(p: HHGParams) -> tuple[float, float, float, float]:
    """(chi, t, s, C): harmonic displacement, cross and diagonal coefficients
    of the reduced state, and the normalization constant.

    With c = <alpha|alpha - da> <0|chi>^(N-1) the reduced two-mode state is
    (|v><v| - t (|v><w| + |w><v|) + s |w><w|) / C where v = |alpha - da, chi>,
    w = |alpha, 0>, t = c <0|chi>^(N-2), s = c^2 and C = 1 - c^2.
    """
    n_tot = max(p.N, 2)
    chi2 = 4.0 * p.delta_alpha ** 2 / (n_tot ** 2 + 2 * n_tot - 3)
    da2 = p.delta_alpha ** 2
    c = np.exp(-da2 / 2.0 - (n_tot - 1) * chi2 / 2.0)
    t = np.exp(-da2 / 2.0 - (2 * n_tot - 3) * chi2 / 2.0)
    s = c ** 2
    return float(np.sqrt(chi2)), float(t), float(s), float(1.0 - s)


def hhg_reduced_density(p: HHGParams, cutoff: ModeCutoff | None = None) -> BipartiteDensityOperator:
    """Reduced state of the driving mode and one harmonic mode, truncated and
    renormalized."""
    if p.delta_alpha == 0:
        raise DomainError("delta_alpha = 0 leaves an undefined (zero-norm) state")
    chi, t, s, c_norm = _hhg_scalars(p)
    if cutoff is None:
        cutoff = ModeCutoff(coherent_cutoff([p.alpha, p.alpha - p.delta_alpha]),
                            coherent_cutoff([chi]))
    v = np.kron(coherent_vector(p.alpha - p.delta_alpha, cutoff.d_a),
                coherent_vector(chi, cutoff.d_b))
    w = np.kron(coherent_vector(p.alpha, cutoff.d_a),
                coherent_vector(0.0, cutoff.d_b))
    mat = (np.outer(v, v.conj()) - t * (np.outer(v, w.conj()) + np.outer(w, v.conj()))
           + s * np.outer(w, w.conj()))
    mat /= np.trace(mat).real
    return BipartiteDensityOperator._adopt(cutoff, mat)


def hhg_pt_moments(p: HHGParams) -> tuple[float, float]:
    """Closed-form (p2, p3) of the reduced driver/harmonic state."""
    if p.delta_alpha == 0:
        raise DomainError("delta_alpha = 0 leaves an undefined (zero-norm) state")
    chi, _, s, c_norm = _hhg_scalars(p)
    onemc = s  # 1 - C
    da2 = p.delta_alpha ** 2
    chi2 = chi ** 2
    g2 = np.exp(-(da2 + chi2))
    p2 = (1.0 - 2.0 * onemc * (2.0 - g2) + onemc ** 2 * (2.0 / g2 - 1.0)) / c_norm ** 2
    p3 = (1.0 - 3.0 * onemc * (2.0 - g2)
          + 3.0 * onemc ** 2 * (2.0 + g2 + np.exp(da2) - 2.0 * np.exp(-da2)
                                + np.exp(chi2) - 2.0 * np.exp(-chi2))
          - onemc ** 3 * (1.0 + 6.0 / g2 - 3.0 * np.exp(da2) - 3.0 * np.exp(chi2))) / c_norm ** 3
    return float(p2), float(p3)


# ---------------------------------------------------------------------------
# NOON states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NOONParams:
    """alpha |N, 0> + beta |0, N> with |alpha|^2 + |beta|^2 = 1."""

    N: int
    alpha: complex
    beta: complex

    def __post_init__(self):
        if self.N < 1:
            raise DomainError(f"N must be >= 1, got {self.N}")
        norm = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if not abs(norm - 1.0) <= 1e-12:  # a NaN amplitude fails this too
            raise DomainError(f"|alpha|^2 + |beta|^2 = {norm} must be 1")

    @classmethod
    def balanced(cls, N: int) -> "NOONParams":
        a = 1.0 / np.sqrt(2.0)
        return cls(N, a, a)


def noon_pt_moment(p: NOONParams, n: int) -> float:
    """|alpha|^(2n) + |beta|^(2n) for odd n, (|alpha|^n + |beta|^n)^2 for even
    n; independent of N."""
    if n < 1:
        raise DomainError(f"moment order must be >= 1, got {n}")
    return pure_state_pt_moment([abs(p.alpha) ** 2, abs(p.beta) ** 2], n)


@dataclass(frozen=True)
class LossyNOONParams:
    """NOON state sent through pure-loss channels of transmissivity tau_a and
    tau_b on the two modes."""

    noon: NOONParams
    tau_a: float
    tau_b: float

    def __post_init__(self):
        for tau in (self.tau_a, self.tau_b):
            if not 0.0 <= tau <= 1.0:
                raise DomainError(f"transmissivity must lie in [0, 1], got {tau}")

    @classmethod
    def balanced(cls, N: int, tau: float) -> "LossyNOONParams":
        return cls(NOONParams.balanced(N), tau, tau)


def lossy_noon_density(p: LossyNOONParams,
                       cutoff: ModeCutoff | None = None) -> BipartiteDensityOperator:
    """Binomial photon-loss mixture plus the damped |N,0><0,N| coherence."""
    N = p.noon.N
    if cutoff is None:
        cutoff = ModeCutoff(N + 2, N + 2)  # one guard level for ladder ops
    if cutoff.d_a <= N or cutoff.d_b <= N:
        raise DomainError(f"cutoff must exceed N={N}")
    d_a, d_b = cutoff.d_a, cutoff.d_b
    mat = np.zeros((cutoff.dim, cutoff.dim), dtype=complex)

    def idx(i, j):
        return i * d_b + j

    a2, b2 = abs(p.noon.alpha) ** 2, abs(p.noon.beta) ** 2
    for k in range(N + 1):
        mat[idx(N - k, 0), idx(N - k, 0)] += a2 * comb(N, k) * p.tau_a ** (N - k) * (1 - p.tau_a) ** k
        mat[idx(0, N - k), idx(0, N - k)] += b2 * comb(N, k) * p.tau_b ** (N - k) * (1 - p.tau_b) ** k
    damp = np.sqrt(p.tau_a * p.tau_b) ** N
    mat[idx(N, 0), idx(0, N)] += damp * p.noon.alpha * np.conj(p.noon.beta)
    mat[idx(0, N), idx(N, 0)] += damp * np.conj(p.noon.alpha) * p.noon.beta
    return BipartiteDensityOperator._adopt(cutoff, mat)


def lossy_noon_pt_moments(p: LossyNOONParams) -> tuple[float, float]:
    """Closed-form (p2, p3) of the lossy NOON state (identical copies)."""
    N = p.noon.N
    a2, b2 = abs(p.noon.alpha) ** 2, abs(p.noon.beta) ** 2
    ta, tb = p.tau_a, p.tau_b
    s2a = sum(comb(N, k) ** 2 * ta ** (2 * (N - k)) * (1 - ta) ** (2 * k) for k in range(N + 1))
    s2b = sum(comb(N, k) ** 2 * tb ** (2 * (N - k)) * (1 - tb) ** (2 * k) for k in range(N + 1))
    p2 = (a2 ** 2 * s2a
          + 2.0 * a2 * b2 * (ta ** N * tb ** N + (1 - ta) ** N * (1 - tb) ** N)
          + b2 ** 2 * s2b)
    s3a = sum(comb(N, k) ** 3 * ta ** (3 * (N - k)) * (1 - ta) ** (3 * k) for k in range(N + 1))
    s3b = sum(comb(N, k) ** 3 * tb ** (3 * (N - k)) * (1 - tb) ** (3 * k) for k in range(N + 1))
    p3 = (a2 ** 3 * s3a
          + 3.0 * a2 * b2 * (a2 * ta ** N * tb ** N * (1 - ta) ** N
                             + b2 * ta ** N * tb ** N * (1 - tb) ** N
                             + a2 * (1 - ta) ** (2 * N) * (1 - tb) ** N
                             + b2 * (1 - ta) ** N * (1 - tb) ** (2 * N))
          + b2 ** 3 * s3b)
    return float(p2), float(p3)


# ---------------------------------------------------------------------------
# Finite Fock superpositions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FockSuperposition:
    """Pure state sum_jj' c_jj' |j, j'> given by its coefficient matrix."""

    coefficients: np.ndarray

    def __post_init__(self):
        c = np.array(self.coefficients, dtype=complex)
        if c.ndim != 2:
            raise ValueError("coefficient matrix must be two-dimensional")
        norm = np.sum(np.abs(c) ** 2)
        if abs(norm - 1.0) > 1e-12:
            raise DomainError(f"coefficients must be normalized, got sum |c|^2 = {norm}")
        c.setflags(write=False)
        object.__setattr__(self, "coefficients", c)

    @property
    def cutoff(self) -> ModeCutoff:
        return ModeCutoff(*self.coefficients.shape)

    def state_vector(self) -> np.ndarray:
        return self.coefficients.reshape(-1)

    def density_operator(self) -> BipartiteDensityOperator:
        return BipartiteDensityOperator.from_state_vector(self.state_vector(), self.cutoff)

    def schmidt_probabilities(self) -> np.ndarray:
        return schmidt_probabilities(self.coefficients, self.cutoff)

    def pt_moment(self, n: int) -> float:
        return pure_state_pt_moment(self.schmidt_probabilities(), n)


def qutrit_state() -> FockSuperposition:
    """The photonic qutrit (sqrt(2) |0,0> + |2,0> + |0,2>) / 2."""
    c = np.zeros((3, 3), dtype=complex)
    c[0, 0] = np.sqrt(2.0) / 2.0
    c[2, 0] = 0.5
    c[0, 2] = 0.5
    return FockSuperposition(c)


# ---------------------------------------------------------------------------
# Two-mode squeezed vacuum
# ---------------------------------------------------------------------------

def tmsv_cutoff(r: float, tol: float = DEFAULT_TOL.trunc) -> int:
    """Smallest dimension d >= 2 with geometric tail tanh(r)^(2d) below tol.

    d starts from the closed form ceil(ln tol / (2 ln tanh r)); the float
    comparison of the tail with tol then settles the boundary."""
    t = np.tanh(abs(r))
    if not (t < 1.0 and 0.0 < tol < math.inf):  # t is NaN, or tanh(r) rounded to 1
        raise DomainError(f"need tanh(|r|) < 1 and 0 < tol < inf, got r={r}, tol={tol}")
    if t == 0.0:
        return 2
    d = max(math.ceil(math.log(tol) / (2.0 * math.log(t))), 2)
    while d > 2 and t ** (2 * (d - 1)) < tol:
        d -= 1
    while t ** (2 * d) >= tol:
        d += 1
    return d


def tmsv_vector(r: float, d: int) -> np.ndarray:
    """Truncated two-mode squeezed vacuum, sech(r) sum (-tanh r)^m |m, m>,
    renormalized; shape (d, d)."""
    m = np.arange(d)
    diag = (-np.tanh(r)) ** m / np.cosh(r)
    vec = np.zeros((d, d), dtype=complex)
    vec[m, m] = diag
    return vec / np.linalg.norm(vec)


def tmsv_density(r: float, d: int) -> BipartiteDensityOperator:
    cutoff = ModeCutoff(d, d)  # refuses an oversized matrix before the vector is made
    return BipartiteDensityOperator.from_state_vector(tmsv_vector(r, d), cutoff)
