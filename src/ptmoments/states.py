"""State families: dephased cats, depleted-driver/harmonic pairs, NOON states
with and without loss, finite Fock superpositions, and two-mode squeezed
vacua.

Each family provides a truncated-Fock density operator (for the dense oracle)
and, where available, closed-form values of the low-order PT-moments.  The
closed forms act as ground truth; the truncated operators are renormalized to
unit trace after the cutoff.

The closed forms are elementwise: ``cat_pt_moments`` (alpha, beta, z),
``hhg_pt_moments`` (alpha, delta_alpha, N), ``noon_pt_moment`` (N, alpha,
beta) and ``lossy_noon_pt_moments`` (N, tau_a, tau_b) take parameters that
may be arrays, which broadcast, and give arrays of their shape; scalars give
floats.  Powers go through np.float_power, which calls the C library's pow as
float ** does, so every element has the bits of its scalar evaluation.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cache
from math import comb

import numpy as np

from .errors import CutoffTooSmallError, DomainError, _require_finite
from .fock import (
    DEFAULT_TOL,
    BipartiteDensityOperator,
    ModeCutoff,
    coherent_cutoff,
    pure_state_pt_moment,
    schmidt_probabilities,
)
from .gaussian import _R_MAX

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


# Natural log of the largest finite float: |alpha|^(d-1) overflows beyond it.
_LOG_FLOAT_MAX = math.log(sys.float_info.max)
# Largest |alpha|^2 + |beta|^2 at which 3 e^(4 r^2), the cat p3's largest factor, is finite.
_CAT_R2_MAX = (_LOG_FLOAT_MAX - math.log(3.0)) / 4.0


def coherent_vector(alpha: complex, d: int) -> np.ndarray:
    """Truncated coherent-state amplitudes (not renormalized).

    The amplitudes are computed as alpha^n times a factor, so a cutoff at
    which |alpha|^(d-1) passes the float range raises DomainError."""
    _require_finite(alpha=alpha)
    if abs(alpha) > 1.0 and (d - 1) * math.log(abs(alpha)) > _LOG_FLOAT_MAX:
        raise DomainError(f"coherent amplitudes overflow: |alpha|^(d-1) passes the float "
                          f"range at alpha={alpha}, d={d}")
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
        _require_finite(alpha=self.alpha, beta=self.beta)
        z = np.asarray(self.z)
        if not ((z >= 0.0) & (z <= 1.0)).all():  # NaN fails too
            raise DomainError(f"z must lie in [0, 1], got {self.z}")
        if self.parity not in ("even", "odd"):
            raise DomainError(f"parity must be 'even' or 'odd', got {self.parity!r}")
        if (np.equal(self.alpha, 0) & np.equal(self.beta, 0) & (z <= 0.0)).any():
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


def _elementwise(*values) -> tuple:
    """The values as floats when they are zero-dimensional, else unchanged."""
    return tuple(float(v) for v in values) if np.ndim(values[0]) == 0 else values


def cat_pt_moments(p: CatParams) -> tuple:
    """Closed-form (p2, p3) of the dephased cat state."""
    s = p.sign
    with np.errstate(over="ignore"):  # refused below
        a2, b2 = np.float_power(np.abs(p.alpha), 2), np.float_power(np.abs(p.beta), 2)
    r2 = a2 + b2
    if not (r2 <= _CAT_R2_MAX).all():
        raise DomainError(f"cat closed forms need |alpha|^2 + |beta|^2 <= {_CAT_R2_MAX!r}, "
                          f"got {r2}")
    e2 = np.exp(-2.0 * r2)
    e4 = np.exp(-4.0 * r2)
    e6 = np.exp(-6.0 * r2)
    omz = 1.0 - np.asarray(p.z, dtype=float)
    c = 2.0 * (1.0 + s * omz * e2)
    p2 = 2.0 / np.float_power(c, 2) * ((1.0 + np.float_power(omz, 2)) * (1.0 + e4)
                                       + s * 4.0 * omz * e2)
    p3 = 2.0 / np.float_power(c, 3) * (
        1.0 + 3.0 * e4
        + s * 3.0 * omz * e2 * (2.0 + np.exp(-4.0 * a2) + np.exp(-4.0 * b2))
        + 3.0 * np.float_power(omz, 2) * e4 * (2.0 + np.exp(4.0 * a2) + np.exp(4.0 * b2))
        + s * np.float_power(omz, 3) * e6 * (1.0 + 3.0 * np.exp(4.0 * r2))
    )
    return _elementwise(p2, p3)


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
        if (np.asarray(self.N) < 1).any():
            raise DomainError(f"N must be >= 1, got {self.N}")
        _require_finite(alpha=self.alpha)
        da = np.asarray(self.delta_alpha)
        if not ((da >= 0.0) & (da < np.inf)).all():  # NaN fails too
            raise DomainError(f"delta_alpha must be finite and >= 0, got {self.delta_alpha}")


def _hhg_squares(p: HHGParams) -> tuple:
    """(max(N, 2), delta_alpha^2, chi^2) elementwise, chi the harmonic displacement;
    refuses squares outside the normal float range, delta_alpha = 0 included."""
    n_tot = np.maximum(p.N, 2)
    with np.errstate(over="ignore"):  # refused below
        da2 = np.float_power(p.delta_alpha, 2)
        chi2 = 4.0 * da2 / (n_tot ** 2 + 2 * n_tot - 3)
    if not all(((x >= sys.float_info.min) & (x <= sys.float_info.max)).all() for x in (da2, chi2)):
        raise DomainError(f"delta_alpha = {p.delta_alpha} at N = {p.N} puts delta_alpha^2 or "
                          f"chi^2 outside the normal float range (0 is a zero-norm state)")
    return n_tot, da2, chi2


def hhg_reduced_density(p: HHGParams, cutoff: ModeCutoff | None = None) -> BipartiteDensityOperator:
    """Reduced state of the driving mode and one harmonic mode, truncated and
    renormalized: |v><v| - t (|v><w| + |w><v|) + c^2 |w><w| with
    v = |alpha - da, chi>, w = |alpha, 0>, c = <alpha|alpha - da> <0|chi>^(N-1)
    and t = c <0|chi>^(N-2)."""
    n_tot, da2, chi2 = _hhg_squares(p)
    chi, t = np.sqrt(chi2), np.exp(-da2 / 2.0 - (2 * n_tot - 3) * chi2 / 2.0)
    s = np.float_power(np.exp(-da2 / 2.0 - (n_tot - 1) * chi2 / 2.0), 2)
    if cutoff is None:
        cutoff = ModeCutoff(coherent_cutoff([p.alpha, p.alpha - p.delta_alpha]),
                            coherent_cutoff([chi]))
    v = np.kron(coherent_vector(p.alpha - p.delta_alpha, cutoff.d_a),
                coherent_vector(chi, cutoff.d_b))
    w = np.kron(coherent_vector(p.alpha, cutoff.d_a), coherent_vector(0.0, cutoff.d_b))
    mat = (np.outer(v, v.conj()) - t * (np.outer(v, w.conj()) + np.outer(w, v.conj()))
           + s * np.outer(w, w.conj()))
    mat /= np.trace(mat).real
    return BipartiteDensityOperator._adopt(cutoff, mat)


def hhg_pt_moments(p: HHGParams) -> tuple:
    """Closed-form (p2, p3) of the reduced driver/harmonic state.

    On the orthonormalised bases {|alpha>, |alpha - da>perp} of the driver and
    {|0>, |chi>perp} of the harmonic the state is the rank-two
    (u u^T + sigma e1 e1^T) / (|u|^2 + sigma), with a = e^(-da^2/2), b = e^(-chi^2/2),
    A = sqrt(1 - a^2), B = sqrt(1 - b^2), g = 1 - e^(-(N-2) chi^2),
    u = (a b g, a B, A b, A B) and sigma = a^2 b^(2N-2) g.  Each 1 - e^(-x) is
    an expm1, and u and sigma are scaled by an exact power of two, so nothing
    cancels or underflows at small delta_alpha; p2 is exactly 1 for N <= 2."""
    n_tot, da2, chi2 = _hhg_squares(p)
    a, b = np.exp(-da2 / 2.0), np.exp(-chi2 / 2.0)
    big_a, big_b = np.sqrt(-np.expm1(-da2)), np.sqrt(-np.expm1(-chi2))
    g = -np.expm1(-(n_tot - 2) * chi2)
    u = (a * b * g, a * big_b, big_a * b, big_a * big_b)
    e = np.frexp(sum(u))[1]  # scales the largest u near 1: no square of it underflows
    u1, u2, u3, u4 = (np.ldexp(x, -e) for x in u)
    sigma = np.ldexp(a * a * np.float_power(b, 2 * n_tot - 2) * g, -2 * e)
    w1, total = u1 * u1, u1 * u1 + u2 * u2 + u3 * u3 + u4 * u4
    d2 = np.float_power(u2 * u3 * np.float_power(b, 2 * n_tot - 4), 2)  # |det| of u as 2 x 2
    tr = total + sigma
    p2 = (total * total + 2.0 * sigma * w1 + sigma * sigma) / (tr * tr)
    p3 = (np.float_power(total, 3) - 3.0 * total * d2 + 3.0 * sigma * (w1 + u2 * u2)
          * (w1 + u3 * u3) + 3.0 * sigma * sigma * w1 + np.float_power(sigma, 3)
          ) / np.float_power(tr, 3)
    return _elementwise(p2, p3)


# ---------------------------------------------------------------------------
# NOON states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NOONParams:
    """alpha |N, 0> + beta |0, N> with |alpha|^2 + |beta|^2 = 1.

    N, alpha and beta may be arrays (alpha and beta for ``noon_pt_moment``)."""

    N: int
    alpha: complex
    beta: complex

    def __post_init__(self):
        if (np.asarray(self.N) < 1).any():
            raise DomainError(f"N must be >= 1, got {self.N}")
        norm = np.abs(self.alpha) ** 2 + np.abs(self.beta) ** 2
        if not (np.abs(norm - 1.0) <= 1e-12).all():  # a NaN amplitude fails this too
            raise DomainError(f"|alpha|^2 + |beta|^2 = {norm} must be 1")

    @classmethod
    def balanced(cls, N: int) -> "NOONParams":
        a = 1.0 / np.sqrt(2.0)
        return cls(N, a, a)


def noon_pt_moment(p: NOONParams, n: int):
    """|alpha|^(2n) + |beta|^(2n) for odd n, (|alpha|^n + |beta|^n)^2 for even
    n; independent of N."""
    if n < 1:
        raise DomainError(f"moment order must be >= 1, got {n}")
    lam = np.broadcast_arrays(*(np.float_power(np.abs(x), 2) for x in (p.alpha, p.beta)))
    return pure_state_pt_moment(np.stack(lam), n)


@dataclass(frozen=True)
class LossyNOONParams:
    """NOON state sent through pure-loss channels of transmissivity tau_a and
    tau_b on the two modes.  The transmissivities may be arrays for
    ``lossy_noon_pt_moments``; every element must lie in [0, 1]."""

    noon: NOONParams
    tau_a: float
    tau_b: float

    def __post_init__(self):
        for tau in (self.tau_a, self.tau_b):
            tau_arr = np.asarray(tau)
            if not ((tau_arr >= 0.0) & (tau_arr <= 1.0)).all():  # NaN fails too
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


@cache
def _binomial_powers(n_max: int, p: int) -> np.ndarray:
    """float(C(n, k)^p) indexed [k, n], rounded once from the exact integer; read-only."""
    table = np.array([[float(comb(n, k) ** p) for n in range(n_max + 1)] for k in range(n_max + 1)])
    table.setflags(write=False)
    return table


def _loss_sums(N: np.ndarray, tau: np.ndarray) -> tuple:
    """(S_2, S_3) with S_p = sum_k C(N, k)^p tau^(p (N - k)) (1 - tau)^(p k),
    tau with one more leading axis than N; a term with k > N is zero.  The
    terms stack on a leading k axis, which np.add.reduce sums in increasing k."""
    n_max = int(N.max(initial=0))
    if n_max > 345:  # C(346, 173)^3 passes the float range
        raise DomainError(f"lossy NOON moments need N <= 345, got N = {n_max}")
    k = np.arange(n_max + 1).reshape((-1,) + (1,) * tau.ndim)
    kept = np.maximum(N - k, 0)
    return tuple(np.add.reduce(_binomial_powers(n_max, p)[:, N][:, None]
                               * np.float_power(tau, p * kept) * np.float_power(1 - tau, p * k),
                               axis=0) for p in (2, 3))


def lossy_noon_pt_moments(p: LossyNOONParams):
    """Closed-form (p2, p3) of the lossy NOON state (identical copies)."""
    N, ta, tb = np.broadcast_arrays(np.asarray(p.noon.N), np.asarray(p.tau_a, dtype=float),
                                    np.asarray(p.tau_b, dtype=float))
    a2, b2 = abs(p.noon.alpha) ** 2, abs(p.noon.beta) ** 2
    (s2a, s2b), (s3a, s3b) = _loss_sums(N, np.stack([ta, tb]))
    ta_n, tb_n = np.float_power(ta, N), np.float_power(tb, N)
    la_n, lb_n = np.float_power(1 - ta, N), np.float_power(1 - tb, N)
    p2 = a2 ** 2 * s2a + 2.0 * a2 * b2 * (ta_n * tb_n + la_n * lb_n) + b2 ** 2 * s2b
    p3 = (a2 ** 3 * s3a
          + 3.0 * a2 * b2 * (a2 * ta_n * tb_n * la_n
                             + b2 * ta_n * tb_n * lb_n
                             + a2 * np.float_power(1 - ta, 2 * N) * lb_n
                             + b2 * la_n * np.float_power(1 - tb, 2 * N))
          + b2 ** 3 * s3b)
    return _elementwise(p2, p3)


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
        if not abs(norm - 1.0) <= 1e-12:  # NaN fails too
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
        return schmidt_probabilities(self.coefficients)

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
    if not abs(r) <= _R_MAX:  # NaN fails too
        raise DomainError(f"|r| must be at most {_R_MAX!r}, got {r}")
    m = np.arange(d)
    diag = (-np.tanh(r)) ** m / np.cosh(r)
    vec = np.zeros((d, d), dtype=complex)
    vec[m, m] = diag
    return vec / np.linalg.norm(vec)


def tmsv_density(r: float, d: int) -> BipartiteDensityOperator:
    cutoff = ModeCutoff(d, d)  # refuses an oversized matrix before the vector is made
    return BipartiteDensityOperator.from_state_vector(tmsv_vector(r, d), cutoff)
