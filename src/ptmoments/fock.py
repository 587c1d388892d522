"""Truncated two-mode Fock-space density operators.

This module is the numeric workhorse: dense bipartite density operators on a
truncated Fock basis, the partial transpose, spectra, trace moments of the
partial transpose, and normally ordered mode-operator moments.  Everything
else in the package (closed-form state families, Gaussian formulas, circuit
simulations) is cross-checked against these dense computations.

Spectra (the positivity check on construction and ``spectrum``, which backs
``pt_moments``) are computed block by block over the connected components of
the matrix's exact nonzero pattern.  No entry is dropped, so this is exact.
The partial transposes of the paper's families split this way: the two-mode
squeezed vacuum conserves N_A + N_B after the partial transpose, cat states
conserve parity.

Basis convention: the two-mode basis state |i>_A |j>_B is stored at row/column
index ``i * d_b + j`` for level cutoffs ``d_a`` and ``d_b``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse, special
from scipy.sparse.csgraph import connected_components

from .errors import CutoffError, HermiticityError, StateValidationError

__all__ = [
    "ToleranceProfile",
    "DEFAULT_TOL",
    "ModeCutoff",
    "BipartiteDensityOperator",
    "Spectrum",
    "partial_transpose",
    "spectrum",
    "pt_moment",
    "pt_moments",
    "purity",
    "mode_moment",
    "schmidt_probabilities",
    "pure_state_pt_moment",
    "coherent_cutoff",
]


@dataclass(frozen=True)
class ToleranceProfile:
    """Numerical tolerances used by validation and truncation checks.

    ``herm``/``trace``/``imag`` bound hermiticity, normalization and imaginary
    residues, ``psd`` bounds how negative an eigenvalue of a physical state may
    be, and ``trunc`` bounds the probability mass a Fock truncation may drop.
    """

    herm: float = 1e-9
    trace: float = 1e-9
    imag: float = 1e-9
    psd: float = 1e-8
    trunc: float = 1e-6


DEFAULT_TOL = ToleranceProfile()


@dataclass(frozen=True)
class ModeCutoff:
    """Number of Fock levels kept per mode (levels 0 .. d-1)."""

    d_a: int
    d_b: int

    def __post_init__(self):
        if self.d_a < 1 or self.d_b < 1:
            raise ValueError(f"cutoffs must be >= 1, got {self.d_a}, {self.d_b}")

    @property
    def dim(self) -> int:
        return self.d_a * self.d_b


class BipartiteDensityOperator:
    """Dense density operator of a two-mode state on a truncated Fock basis.

    Validates finiteness, hermiticity, unit trace and (optionally) positivity
    on construction; the stored matrix is made read-only so instances can be
    shared freely.  Partial transposes carry ``check_psd=False`` since their
    spectrum is allowed to be negative.
    """

    def __init__(self, cutoff: ModeCutoff, matrix, tol: ToleranceProfile = DEFAULT_TOL,
                 check_psd: bool = True):
        mat = np.array(matrix, dtype=complex)
        dim = cutoff.dim
        if mat.shape != (dim, dim):
            raise ValueError(f"matrix shape {mat.shape} does not match cutoff dim {dim}")
        _require_finite(mat)
        herm_residue = np.abs(mat - mat.conj().T).max()
        if herm_residue > tol.herm:
            raise HermiticityError(f"hermiticity residue {herm_residue:.3e} > {tol.herm:.1e}")
        tr = np.trace(mat)
        if abs(tr - 1.0) > tol.trace:
            raise StateValidationError(f"trace {tr} deviates from 1 beyond {tol.trace:.1e}")
        if check_psd:
            lam_min = _block_eigvalsh(0.5 * (mat + mat.conj().T))[0]
            if lam_min < -tol.psd:
                raise StateValidationError(f"minimum eigenvalue {lam_min:.3e} < -{tol.psd:.1e}")
        mat.setflags(write=False)
        self.cutoff = cutoff
        self.matrix = mat
        self.tol = tol

    @classmethod
    def from_state_vector(cls, vec, cutoff: ModeCutoff,
                          tol: ToleranceProfile = DEFAULT_TOL) -> "BipartiteDensityOperator":
        """Projector onto a pure state given as a flat vector or (d_a, d_b) array."""
        v = np.asarray(vec, dtype=complex).reshape(-1)
        if v.size != cutoff.dim:
            raise ValueError(f"vector size {v.size} does not match cutoff dim {cutoff.dim}")
        norm = np.linalg.norm(v)
        if norm == 0:
            raise ValueError("zero vector")
        v = v / norm
        # a projector is positive by construction; skip the eigenvalue check
        return cls(cutoff, np.outer(v, v.conj()), tol=tol, check_psd=False)

    @property
    def d_a(self) -> int:
        return self.cutoff.d_a

    @property
    def d_b(self) -> int:
        return self.cutoff.d_b

    def as_tensor(self) -> np.ndarray:
        """View of the matrix with separate bra/ket mode indices (i, j, k, l)."""
        return self.matrix.reshape(self.d_a, self.d_b, self.d_a, self.d_b)

    def level_populations(self, side: str) -> np.ndarray:
        """Marginal Fock-level populations of one mode ("a" or "b")."""
        t = self.as_tensor()
        if side == "a":
            return np.einsum("ijij->i", t).real
        if side == "b":
            return np.einsum("ijij->j", t).real
        raise ValueError(f"side must be 'a' or 'b', got {side!r}")


@dataclass(frozen=True)
class Spectrum:
    """Real eigenvalues in descending order."""

    eigenvalues: tuple

    @property
    def values(self) -> np.ndarray:
        return np.asarray(self.eigenvalues)

    def moment(self, n: int) -> float:
        return float(np.sum(self.values ** n))


def _require_finite(mat: np.ndarray) -> None:
    # NaN compares false against every tolerance, so it would pass the
    # hermiticity and trace checks and surface as a NaN moment.
    if not np.isfinite(mat).all():
        raise StateValidationError("matrix has non-finite entries")


def _block_eigvalsh(mat: np.ndarray) -> np.ndarray:
    """Eigenvalues of a hermitian matrix, ascending, computed per block.

    The blocks are the connected components of the exact nonzero pattern
    taken as an undirected graph, so every entry the dense ``eigvalsh``
    reads lies inside one block and the two spectra agree in exact
    arithmetic.  Components of equal size are stacked and share one batched
    ``eigvalsh`` call.
    """
    pattern = mat != 0
    pattern |= pattern.T
    # CSR built by hand, and strong components instead of directed=False:
    # scipy's dense-to-sparse conversion and the transposed copy that
    # directed=False makes would triple this step on an unstructured matrix.
    # On a symmetric pattern the strongly connected components are the
    # undirected ones.
    cols = np.flatnonzero(pattern) % len(mat)
    indptr = np.zeros(len(mat) + 1, dtype=np.intp)
    np.cumsum(np.count_nonzero(pattern, axis=1), out=indptr[1:])
    graph = sparse.csr_array((np.ones(cols.size), cols, indptr), shape=pattern.shape)
    _, labels = connected_components(graph, connection="strong")
    sizes = np.bincount(labels)
    # nodes grouped by component size, then by component, ascending within
    order = np.lexsort((labels, sizes[labels]))
    counts = np.bincount(sizes)
    vals = []
    start = 0
    for size in np.flatnonzero(counts):
        stop = start + counts[size] * size
        idx = order[start:stop].reshape(-1, size)
        vals.append(np.linalg.eigvalsh(mat[idx[:, :, None], idx[:, None, :]]).ravel())
        start = stop
    return np.sort(np.concatenate(vals))


def partial_transpose(rho: BipartiteDensityOperator) -> BipartiteDensityOperator:
    """Transpose the second mode only: <i,j|out|k,l> = <i,l|rho|k,j>."""
    t = rho.as_tensor()
    out = t.transpose(0, 3, 2, 1).reshape(rho.cutoff.dim, rho.cutoff.dim)
    return BipartiteDensityOperator(rho.cutoff, out, tol=rho.tol, check_psd=False)


def spectrum(op, tol: ToleranceProfile = DEFAULT_TOL) -> Spectrum:
    """Eigenvalues of a hermitian operator, sorted descending.

    Accepts a BipartiteDensityOperator or a plain square array.
    """
    mat = op.matrix if isinstance(op, BipartiteDensityOperator) else np.asarray(op, dtype=complex)
    _require_finite(mat)
    residue = np.abs(mat - mat.conj().T).max()
    if residue > tol.herm:
        raise HermiticityError(f"hermiticity residue {residue:.3e} > {tol.herm:.1e}")
    vals = _block_eigvalsh(mat)[::-1]
    return Spectrum(tuple(float(v) for v in vals))


def pt_moments(rho: BipartiteDensityOperator, n_max: int) -> np.ndarray:
    """Trace moments of the partial transpose, orders 1 .. n_max.

    Computed from the spectrum of the partially transposed operator, so every
    returned moment is exactly real.  Non-hermitian input (the only
    source of an imaginary trace residue) raises through ``spectrum``.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    w = spectrum(partial_transpose(rho), tol=rho.tol).values
    return np.array([np.sum(w ** n) for n in range(1, n_max + 1)])


def pt_moment(rho: BipartiteDensityOperator, n: int) -> float:
    """Trace of the n-th power of the partial transpose."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return float(pt_moments(rho, n)[n - 1])


def purity(rho: BipartiteDensityOperator) -> float:
    """Tr(rho^2); for hermitian rho this is the sum of |rho_ij|^2."""
    return float(np.sum(np.abs(rho.matrix) ** 2))


def _ladder(d: int) -> np.ndarray:
    a = np.zeros((d, d))
    n = np.arange(1, d)
    a[n - 1, n] = np.sqrt(n)
    return a


def mode_moment(rho: BipartiteDensityOperator, i: int, j: int, k: int, l: int) -> complex:
    """Normally ordered moment Tr(rho a+^i a^j b+^k b^l).

    Exact on the truncated basis provided the state has an empty guard level
    at the top of each mode that gets net-raised (i > j on A, k > l on B);
    otherwise amplitude raised past the cutoff would be silently dropped and
    CutoffError is raised instead.
    """
    for idx in (i, j, k, l):
        if idx < 0:
            raise ValueError("ladder exponents must be non-negative")
    trunc = rho.tol.trunc
    if i > j and rho.level_populations("a")[-1] > trunc:
        raise CutoffError("net raising on mode A with occupied top level; increase d_a")
    if k > l and rho.level_populations("b")[-1] > trunc:
        raise CutoffError("net raising on mode B with occupied top level; increase d_b")
    a = _ladder(rho.d_a)
    b = _ladder(rho.d_b)
    op_a = np.linalg.matrix_power(a.T, i) @ np.linalg.matrix_power(a, j)
    op_b = np.linalg.matrix_power(b.T, k) @ np.linalg.matrix_power(b, l)
    return complex(np.einsum("ijkl,ki,lj->", rho.as_tensor(), op_a, op_b))


def schmidt_probabilities(vec, cutoff: ModeCutoff, floor: float = 1e-15) -> np.ndarray:
    """Schmidt probabilities of a pure bipartite state, descending.

    ``vec`` may be flat of length d_a*d_b or already shaped (d_a, d_b).
    """
    m = np.asarray(vec, dtype=complex).reshape(cutoff.d_a, cutoff.d_b)
    s = np.linalg.svd(m, compute_uv=False)
    lam = s ** 2
    lam = lam / lam.sum()
    return lam[lam > floor]


def pure_state_pt_moment(schmidt_probs, n: int) -> float:
    """PT-moment of a pure state from its Schmidt probabilities.

    Sum of lambda^n for odd n, the square of the sum of lambda^(n/2) for
    even n.
    """
    lam = np.asarray(schmidt_probs, dtype=float)
    if n % 2 == 1:
        return float(np.sum(lam ** n))
    return float(np.sum(lam ** (n // 2)) ** 2)


def coherent_cutoff(alphas, tol: float = DEFAULT_TOL.trunc, guard: int = 1) -> int:
    """Smallest Fock dimension whose Poisson tail is below ``tol`` for every
    displacement in ``alphas``, plus ``guard`` empty levels on top."""
    mean = max((abs(a) ** 2 for a in np.atleast_1d(alphas)), default=0.0)
    d = 1
    while special.pdtrc(d - 1, mean) >= tol:
        d += 1
    return d + guard
