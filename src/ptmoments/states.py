"""State families: dephased cats, depleted-driver/harmonic pairs, NOON states
with and without loss, finite Fock superpositions, and two-mode squeezed
vacua.

Each family provides a truncated-Fock density operator (for the dense oracle)
and, where available, its spectrum and its partial transpose's in closed
form, each divided by its own sum (``cat_spectra``, ``hhg_spectra``,
``lossy_noon_spectra``).  ``family_pt_moments`` reads p_n as power sums of
the PT spectrum, except p2 = Tr[rho^2] from the state's own, so a pure
state's p2 is exactly 1; the ``*_pt_moments`` give its (p2, p3).  A lossy
cat is again a cat (``CatParams.after_loss``).

The closed forms are elementwise: parameters may be arrays, which broadcast,
and give arrays of their shape (a spectrum on one more, last axis); scalars
give floats.  Powers go through np.float_power, which calls the C library's
pow as float ** does, or repeated products, and sums add in index order, so
every element has the bits of its scalar evaluation.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
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
    "cat_spectra",
    "cat_pt_moments",
    "cat_separability_radius",
    "HHGParams",
    "hhg_reduced_density",
    "hhg_spectra",
    "hhg_pt_moments",
    "NOONParams",
    "LossyNOONParams",
    "lossy_noon_density",
    "lossy_noon_spectra",
    "family_pt_moments",
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
# Largest NOON N at which 2^-N, the leading loss weight's tau^k (1 - tau)^(N - k)
# at tau = 1/2, is a normal float (C(N, k) overflows from N = 1030).
_NOON_N_MAX = 1022


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

    def after_loss(self, tau: float) -> "CatParams":
        """The cat after pure loss of transmissivity tau on both modes, again a
        cat: loss maps |a><b| to <b|a>^(1 - tau) |sqrt(tau) a><sqrt(tau) b|, so
        the amplitudes scale by sqrt(tau) and 1 - z by
        e^(-2 (1 - tau)(|alpha|^2 + |beta|^2))."""
        if not 0.0 <= tau <= 1.0:  # NaN fails too
            raise DomainError(f"transmissivity must lie in [0, 1], got {tau}")
        if tau == 1.0:  # no loss
            return self
        with np.errstate(over="ignore"):  # an infinite exponent damps the coherence to 0
            a2, b2 = (np.float_power(np.abs(x) * math.sqrt(2.0 * (1.0 - tau)), 2)
                      for x in (self.alpha, self.beta))
        z = self.z - (1.0 - np.asarray(self.z, dtype=float)) * np.expm1(-a2 - b2)
        root = math.sqrt(tau)
        return CatParams(root * self.alpha, root * self.beta, z, self.parity)


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


def _power_sums(spectrum, n_max: int) -> np.ndarray:
    """p_1 .. p_n_max of the spectra on the last axis, order first.  Each adds
    its terms in index order, w^n as w^(n-1) w, so an element's bits do not
    depend on the batch around it, and zero padding keeps them."""
    terms = np.moveaxis(np.asarray(spectrum, dtype=float), -1, 0)
    power, sums = terms, [functools.reduce(np.add, terms)]
    for _ in range(n_max - 1):
        power = power * terms
        sums.append(functools.reduce(np.add, power))
    return np.array(sums)


def _unit_trace(spectrum: np.ndarray) -> np.ndarray:
    """The spectra on the last axis divided in place by their own sums."""
    return np.divide(spectrum, _power_sums(spectrum, 1)[0][..., None], out=spectrum)


def _symmetric_2x2_eigenvalues(p, r, q, det) -> tuple:
    """Eigenvalues of [[p, q], [q, r]], p, r >= 0, of determinant det: the larger
    (p + r)/2 + hypot((p - r)/2, q), and det over it, which does not cancel."""
    top = (p + r) / 2.0 + np.hypot((p - r) / 2.0, q)
    return top, np.divide(det, top, out=np.zeros(np.shape(top)), where=top > 0.0)


def cat_spectra(p: CatParams) -> tuple:
    """Spectra of the dephased cat (..., 2) and of its partial transpose (..., 4).

    In each mode's even/odd basis, |alpha> = c_e |e> + c_o |o>, c_o^2 =
    -expm1(-2|alpha|^2)/2, and the state is (1 + x)|P><P| + (1 - x)|M><M|,
    x = s(1 - z), P = A|ee> + B|oo>, M = C|eo> + D|oe> (A = c_e^a c_e^b,
    B = c_o^a c_o^b, C = c_e^a c_o^b, D = c_o^a c_e^b, so CD = AB).  Its
    partial transpose is [[(1+x) A^2, (1-x) AB], [., (1+x) B^2]] (determinant
    4x (AB)^2) plus [[(1-x) C^2, (1+x) AB], [., (1-x) D^2]] (-4x (AB)^2),
    whose traces (1 + x)|P|^2 and (1 - x)|M|^2 are the state's weights."""
    x = p.sign * (1.0 - np.asarray(p.z, dtype=float))
    with np.errstate(over="ignore"):  # |alpha|^2 = inf reads as the limit c_e^2 = c_o^2 = 1/2
        r2_a, r2_b = (np.float_power(np.abs(amp), 2) for amp in (p.alpha, p.beta))
    (e_a, o_a), (e_b, o_b) = ((0.5 + 0.5 * np.exp(-2.0 * r2), -0.5 * np.expm1(-2.0 * r2))
                              for r2 in (r2_a, r2_b))
    ab = np.sqrt(e_a * o_b) * np.sqrt(o_a * e_b)
    det = 4.0 * x * ab * ab
    blocks = (((1 + x) * e_a * e_b, (1 + x) * o_a * o_b, (1 - x) * ab, det),
              ((1 - x) * e_a * o_b, (1 - x) * o_a * e_b, (1 + x) * ab, -det))
    state = [top + bottom for top, bottom, _, _ in blocks]
    pt = [w for block in blocks for w in _symmetric_2x2_eigenvalues(*block)]
    return tuple(_unit_trace(np.stack(np.broadcast_arrays(*w), axis=-1)) for w in (state, pt))


def cat_pt_moments(p: CatParams) -> tuple:
    """(p2, p3) of the dephased cat state (``family_pt_moments``)."""
    return _elementwise(*family_pt_moments(p, 3)[1:])


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


def _hhg_rank_two(p: HHGParams) -> tuple:
    """((u1, u2, u3, u4), sigma) of the reduced driver/harmonic state.

    On the orthonormalised bases {|alpha>, |alpha - da>perp} of the driver and
    {|0>, |chi>perp} of the harmonic the state is the rank-two
    (u u^T + sigma e1 e1^T) / (|u|^2 + sigma), with a = e^(-da^2/2), b = e^(-chi^2/2),
    A = sqrt(1 - a^2), B = sqrt(1 - b^2), g = 1 - e^(-(N-2) chi^2),
    u = (a b g, a B, A b, A B) and sigma = a^2 b^(2N-2) g.  Each 1 - e^(-x)
    is an expm1, and u and sigma are scaled by an exact power of two, so
    nothing cancels or underflows at small delta_alpha."""
    n_tot, da2, chi2 = _hhg_squares(p)
    a, b = np.exp(-da2 / 2.0), np.exp(-chi2 / 2.0)
    big_a, big_b = np.sqrt(-np.expm1(-da2)), np.sqrt(-np.expm1(-chi2))
    g = -np.expm1(-(n_tot - 2) * chi2)
    u = (a * b * g, a * big_b, big_a * b, big_a * big_b)
    e = np.frexp(sum(u))[1]  # scales the largest u near 1: no square of it underflows
    u = tuple(np.ldexp(x, -e) for x in u)
    sigma = np.ldexp(a * a * np.float_power(b, 2 * n_tot - 2) * g, -2 * e)
    return u, sigma


def hhg_spectra(p: HHGParams) -> tuple:
    """Spectra of the reduced driver/harmonic state (..., 2) and of its partial
    transpose (..., 4), from its rank-two form: the Gram eigenvalues of u and
    sqrt(sigma) e1, (1, 0) exactly where u1 = sigma = 0 (N <= 2), and one
    eigvalsh of the partial transpose."""
    u, sigma = _hhg_rank_two(p)
    rest = u[1] * u[1] + u[2] * u[2] + u[3] * u[3]
    state = _symmetric_2x2_eigenvalues(u[0] * u[0] + rest, sigma, np.sqrt(sigma) * u[0],
                                       sigma * rest)
    u = np.stack(np.broadcast_arrays(*u), axis=-1)
    m = u[..., :, None] * u[..., None, :]
    m[..., 0, 0] += sigma
    # entry ((i, j), (k, l)) of the partial transpose is entry ((i, l), (k, j))
    m = m.reshape(m.shape[:-2] + (2, 2, 2, 2)).swapaxes(-3, -1).reshape(m.shape)
    return _unit_trace(np.stack(np.broadcast_arrays(*state), axis=-1)), _unit_trace(
        np.linalg.eigvalsh(m))


def hhg_pt_moments(p: HHGParams) -> tuple:
    """(p2, p3) of the reduced driver/harmonic state (``family_pt_moments``)."""
    return _elementwise(*family_pt_moments(p, 3)[1:])


# ---------------------------------------------------------------------------
# NOON states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NOONParams:
    """alpha |N, 0> + beta |0, N> with |alpha|^2 + |beta|^2 = 1.

    N, alpha and beta may be arrays (alpha and beta for ``lossy_noon_spectra``)."""

    N: int
    alpha: complex
    beta: complex

    def __post_init__(self):
        if (np.asarray(self.N) < 1).any():
            raise DomainError(f"N must be >= 1, got {self.N}")
        with np.errstate(over="ignore"):  # an infinite norm is refused below
            norm = np.abs(self.alpha) ** 2 + np.abs(self.beta) ** 2
        if not (np.abs(norm - 1.0) <= 1e-12).all():  # a NaN amplitude fails this too
            raise DomainError(f"|alpha|^2 + |beta|^2 = {norm} must be 1")

    @classmethod
    def balanced(cls, N: int) -> "NOONParams":
        a = 1.0 / np.sqrt(2.0)
        return cls(N, a, a)


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
    mat = np.zeros((cutoff.dim, cutoff.dim), dtype=complex)  # |i, j> at index i d_b + j
    a2, b2 = abs(p.noon.alpha) ** 2, abs(p.noon.beta) ** 2
    for k in range(N + 1):
        i, j = (N - k) * cutoff.d_b, N - k  # |N - k, 0> and |0, N - k>
        mat[i, i] += a2 * comb(N, k) * p.tau_a ** (N - k) * (1 - p.tau_a) ** k
        mat[j, j] += b2 * comb(N, k) * p.tau_b ** (N - k) * (1 - p.tau_b) ** k
    damp = np.sqrt(p.tau_a * p.tau_b) ** N
    mat[N * cutoff.d_b, N] += damp * p.noon.alpha * np.conj(p.noon.beta)
    mat[N, N * cutoff.d_b] += damp * np.conj(p.noon.alpha) * p.noon.beta
    return BipartiteDensityOperator._adopt(cutoff, mat)


def lossy_noon_spectra(p: LossyNOONParams) -> tuple:
    """Spectra of the lossy NOON state and of its partial transpose, shape
    (..., 2n + 2), n the batch's largest N.  Where neither tau lies strictly
    between 0 and 1 they do not depend on N, and N reads as 1; elsewhere N
    above 1022 is refused (2^-N, the leading loss weight's power product,
    leaves the normal float range).

    The PT spectrum: the eigenvalues of the coherence [[d, c], [c, 0]] between
    |0, 0> and |N, N>, d = |alpha|^2 (1 - tau_a)^N + |beta|^2 (1 - tau_b)^N and
    c = |alpha beta| (tau_a tau_b)^(N/2), so that the pair cancels first in
    the trace; then the loss branches |k, 0> and |0, k>, k = 1 .. n, of weights
    |alpha|^2 C(N, k) tau_a^k (1 - tau_a)^(N-k) and the like on B, zero past N,
    with C(N, k) the exact integer rounded once.  The state's: d, the pure part
    (the k = N branches, which the coherence joins) and the other branches."""
    noon = p.noon
    N, ta, tb, a2, b2 = np.broadcast_arrays(
        np.asarray(noon.N), np.asarray(p.tau_a, dtype=float), np.asarray(p.tau_b, dtype=float),
        *(np.float_power(np.abs(amp), 2) for amp in (noon.alpha, noon.beta)))
    lossy = ((ta > 0.0) & (ta < 1.0)) | ((tb > 0.0) & (tb < 1.0))
    if (lossy & (N > _NOON_N_MAX)).any():
        raise DomainError(f"lossy NOON spectra with tau strictly between 0 and 1 need "
                          f"N <= {_NOON_N_MAX}, got N = {N[lossy].max()}")
    N = np.where(lossy, N, 1)
    n = int(N.max(initial=0))
    k = np.arange(1, n + 1)
    values, where = np.unique(N, return_inverse=True)
    binomials = np.array([[float(comb(m, j)) for j in k.tolist()] for m in values.tolist()])
    binomials = binomials.reshape(len(values), n)[where.reshape(N.shape)]
    lost = np.maximum(N[..., None] - k, 0)
    d = a2 * np.float_power(1.0 - ta, N) + b2 * np.float_power(1.0 - tb, N)
    c = np.abs(noon.alpha) * np.abs(noon.beta) * np.float_power(ta * tb, N / 2.0)
    coherence = _symmetric_2x2_eigenvalues(d, np.zeros(d.shape), c, -c * c)
    pt = np.concatenate([np.stack(coherence, axis=-1), *(
        w[..., None] * binomials * np.float_power(t[..., None], k)
        * np.float_power(1.0 - t[..., None], lost) for w, t in ((a2, ta), (b2, tb)))], axis=-1)
    del binomials, lost  # before the state's spectrum is alive
    state = pt.copy()  # the branches; d and the pure part (the k = N branches' sum) first
    state[..., 0], state[..., 1] = d, a2 * np.float_power(ta, N) + b2 * np.float_power(tb, N)
    np.put_along_axis(state, np.stack([N + 1, N + 1 + n], axis=-1), 0.0, axis=-1)
    return _unit_trace(state), _unit_trace(pt)


def lossy_noon_pt_moments(p: LossyNOONParams):
    """(p2, p3) of the lossy NOON state (``family_pt_moments``)."""
    return _elementwise(*family_pt_moments(p, 3)[1:])


def family_pt_moments(params, n_max: int) -> np.ndarray:
    """p_1 .. p_n_max (n_max >= 2), order first, of a CatParams, HHGParams or
    LossyNOONParams state: power sums of its PT spectrum, except p2 = Tr[rho^2],
    that of its own spectrum, exactly 1 for a pure state (one weight)."""
    state, pt = {CatParams: cat_spectra, HHGParams: hhg_spectra,
                 LossyNOONParams: lossy_noon_spectra}[type(params)](params)
    purity = _power_sums(state, 2)[1]
    del state  # before the PT power sums' temporaries
    moments = _power_sums(pt, n_max)
    moments[1] = purity
    return moments


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
        with np.errstate(over="ignore"):  # an infinite norm is refused below
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
