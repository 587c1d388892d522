"""Truncated two-mode Fock-space density operators.

This module is the numeric workhorse: dense bipartite density operators on a
truncated Fock basis, the partial transpose, spectra, trace moments of the
partial transpose, and normally ordered mode-operator moments.  Everything
else in the package (closed-form state families, Gaussian formulas, circuit
simulations) is cross-checked against these dense computations.

A matrix is validated once, when its ``BipartiteDensityOperator`` is built,
against the one tolerance set ``DEFAULT_TOL``; ``spectrum`` and ``pt_moments``
take an operator and trust that check.  Only ``coherent_cutoff`` takes a
tolerance argument, its tail bound, which defaults to ``DEFAULT_TOL.trunc``.

Spectra (``spectrum`` and ``pt_moments``) are computed block by block over
the connected components of the matrix's exact nonzero pattern.  No entry is
dropped, so this is exact.  The partial transposes of the paper's families
split this way: the two-mode squeezed vacuum conserves N_A + N_B after the
partial transpose, cat states conserve parity.  The components are labelled
in numpy: each node is hooked onto the smallest node of its row, then the
entries that still join two trees hook root onto root until none does.
Positivity on construction is one pass: a Cholesky certificate of
0.5 * (rho + rho^H) + psd * I per block, and ``eigvalsh`` of a failing block
alone, without the shift, to name the rejection by its minimum.

Memory: an operator stores one copy of its matrix.  The constructor copies a
caller's array once; the package's own builders hand over the matrix they
have just made, without that copy.  The constructor reads the matrix once
for finiteness and hermiticity, and the labelling its boolean pattern (1/16
of its size), in row chunks of a fixed byte budget (``_CHUNK_BYTES``); the
labelling keeps per-node pointers and the entries that join two trees.  The
positivity check symmetrises and shifts each block in place.  ``pt_moments``
permutes the boolean pattern and gathers each block of the partial transpose
straight from ``rho``'s entries.  Beyond the stored copy and the pattern,
only the blocks and their Cholesky factors can take more than a fraction of
the matrix's size: an unstructured matrix is one block.

Basis convention: the two-mode basis state |i>_A |j>_B is stored at row/column
index ``i * d_b + j`` for level cutoffs ``d_a`` and ``d_b``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, CutoffError, DomainError, HermiticityError, StateValidationError

__all__ = [
    "ToleranceProfile",
    "DEFAULT_TOL",
    "ModeCutoff",
    "BipartiteDensityOperator",
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
    The package uses one instance, ``DEFAULT_TOL``: the checks read it
    directly, and every provenance header records it.
    """

    herm: float = 1e-9
    trace: float = 1e-9
    imag: float = 1e-9
    psd: float = 1e-8
    trunc: float = 1e-6


DEFAULT_TOL = ToleranceProfile()

# Byte budget of one row chunk of the constructor's checks, which hold a few
# chunks at a time whatever the matrix size.
_CHUNK_BYTES = 1 << 20

# Largest dense complex matrix a cutoff may ask for.  Every dense builder
# makes its cutoff before it allocates, so an oversized request fails before
# any memory is taken.
_DENSE_BYTES = 1 << 30


@dataclass(frozen=True)
class ModeCutoff:
    """Number of Fock levels kept per mode (levels 0 .. d-1).  A cutoff whose
    dense (dim x dim) complex matrix would exceed _DENSE_BYTES raises
    BudgetError."""

    d_a: int
    d_b: int

    def __post_init__(self):
        if self.d_a < 1 or self.d_b < 1:
            raise ValueError(f"cutoffs must be >= 1, got {self.d_a}, {self.d_b}")
        nbytes = (int(self.d_a) * int(self.d_b)) ** 2 * np.dtype(complex).itemsize
        if nbytes > _DENSE_BYTES:
            raise BudgetError(f"cutoff ({self.d_a}, {self.d_b}) needs a dense "
                              f"{nbytes / 2 ** 30:.3g} GiB matrix, above the "
                              f"{_DENSE_BYTES / 2 ** 30:.3g} GiB bound")

    @property
    def dim(self) -> int:
        return self.d_a * self.d_b


class BipartiteDensityOperator:
    """Dense density operator of a two-mode state on a truncated Fock basis.

    Validates finiteness, hermiticity, unit trace and (optionally) positivity
    on construction, the module's only check of a matrix; the stored matrix is
    read-only so instances can be shared freely.  The constructor stores a
    copy, so the caller's array stays writeable and unchanged.  Partial
    transposes carry ``check_psd=False`` since their spectrum is allowed to be
    negative.
    """

    def __init__(self, cutoff: ModeCutoff, matrix, check_psd: bool = True):
        self._init(cutoff, np.array(matrix, dtype=complex), check_psd)

    @classmethod
    def _adopt(cls, cutoff: ModeCutoff, mat: np.ndarray,
               check_psd: bool = True) -> "BipartiteDensityOperator":
        """Validate and keep a matrix that an in-package builder has just
        made and holds no other reference to, without the constructor's copy."""
        op = cls.__new__(cls)
        op._init(cutoff, np.asarray(mat, dtype=complex), check_psd)
        return op

    def _init(self, cutoff: ModeCutoff, mat: np.ndarray, check_psd: bool):
        dim = cutoff.dim
        if mat.shape != (dim, dim):
            raise ValueError(f"matrix shape {mat.shape} does not match cutoff dim {dim}")
        herm_residue = _hermiticity_residue(mat)
        if herm_residue > DEFAULT_TOL.herm:
            raise HermiticityError(f"hermiticity residue {herm_residue:.3e} "
                                   f"> {DEFAULT_TOL.herm:.1e}")
        tr = np.trace(mat)
        if abs(tr - 1.0) > DEFAULT_TOL.trace:
            raise StateValidationError(f"trace {tr} deviates from 1 beyond {DEFAULT_TOL.trace:.1e}")
        if check_psd and (lam_min := _uncertified_minimum(mat)) < -DEFAULT_TOL.psd:
            raise StateValidationError(f"minimum eigenvalue {lam_min:.3e} "
                                       f"< -{DEFAULT_TOL.psd:.1e}")
        mat.setflags(write=False)
        self.cutoff = cutoff
        self.matrix = mat

    @classmethod
    def from_state_vector(cls, vec, cutoff: ModeCutoff) -> "BipartiteDensityOperator":
        """Projector onto a pure state given as a flat vector or (d_a, d_b) array."""
        v = np.asarray(vec, dtype=complex).reshape(-1)
        if v.size != cutoff.dim:
            raise ValueError(f"vector size {v.size} does not match cutoff dim {cutoff.dim}")
        norm = np.linalg.norm(v)
        if norm == 0:
            raise ValueError("zero vector")
        v = v / norm
        # a projector is positive by construction; skip the eigenvalue check
        return cls._adopt(cutoff, np.outer(v, v.conj()), check_psd=False)

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


def _row_chunks(dim: int, width: int | None = None) -> list[slice]:
    """Row slices of dim rows of ``width`` (default dim) complex entries, within _CHUNK_BYTES."""
    rows = max(1, _CHUNK_BYTES // (16 * (width or dim)))
    return [slice(start, start + rows) for start in range(0, dim, rows)]


def _hermiticity_residue(mat: np.ndarray) -> float:
    """max |mat - mat^H| from one read, each row chunk against the column slab
    below its first row; raises on NaN or inf, which pass every tolerance."""
    chunks = _row_chunks(len(mat))
    with np.errstate(invalid="ignore", over="ignore"):
        # chunk maxima in an array: Python's max() would drop a NaN
        res = np.array([np.abs(mat[r, r.start:] - mat[r.start:, r].conj().T).max() for r in chunks])
    # a non-finite entry makes its residue non-finite; so does an overflow
    if not (np.isfinite(res).all() or all(np.isfinite(mat[r]).all() for r in chunks)):
        raise StateValidationError("matrix has non-finite entries")
    return res.max()


def _uncertified_minimum(mat: np.ndarray) -> float:
    """Smallest eigenvalue of the blocks of 0.5 * (mat + mat^H) that fail their
    certificate, inf if none does.  A Cholesky factor of block + psd * I proves
    lambda_min >= -psd up to ~n * eps * |mat| (Higham 1990)."""
    lam_min = math.inf
    for idx in _block_groups(mat != 0):
        blocks = _principal(mat, idx)
        count, size = idx.shape
        for r in _row_chunks(size, count * size):
            lower = blocks[:, r, :r.stop]  # holds the lower triangle, which both solvers read
            lower += blocks[:, :r.stop, r].conj().swapaxes(1, 2)
            lower *= 0.5
        diagonal = blocks.reshape(count, -1)[:, ::size + 1]
        unshifted = diagonal.copy()
        diagonal += DEFAULT_TOL.psd
        try:
            np.linalg.cholesky(blocks)
        except np.linalg.LinAlgError:
            diagonal[...] = unshifted  # exactly: subtracting the shift could round
            lam_min = min(lam_min, np.linalg.eigvalsh(blocks).min())
    return lam_min


def _principal(mat: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Stacked principal submatrices of ``mat``, one per row of ``idx``."""
    return mat[idx[:, :, None], idx[:, None, :]]


def _roots(parent: np.ndarray) -> np.ndarray:
    """Flatten a forest of parent pointers: each node points to its root."""
    while True:
        up = parent[parent]
        if np.array_equal(up, parent):
            return parent
        parent = up


def _component_labels(pattern: np.ndarray) -> np.ndarray:
    """Connected-component label of each node of a square boolean pattern,
    taken as an undirected graph and read only; components are numbered by
    their smallest node, the root of their tree (every pointer runs from a
    node to a smaller one)."""
    n = len(pattern)
    nodes = np.arange(n)
    first = pattern.argmax(axis=1)
    parent = _roots(np.where(pattern[nodes, first], np.minimum(first, nodes), nodes))
    ra, rb = [], []
    for rows in _row_chunks(n):
        block = pattern[rows]
        if np.count_nonzero(block) * 16 > block.size:
            # dense rows: drop the entries inside one tree before indexing
            block = block & (parent[rows, None] != parent)
        flat = np.flatnonzero(block)
        a, b = parent[flat // n + rows.start], parent[flat % n]
        cross = a != b
        ra.append(a[cross])
        rb.append(b[cross])
    ra, rb = np.concatenate(ra), np.concatenate(rb)
    while ra.size:
        # an edge joining two trees hooks the larger root onto the smaller
        np.minimum.at(parent, ra, rb)
        np.minimum.at(parent, rb, ra)
        parent = _roots(parent)
        ra, rb = parent[ra], parent[rb]
        cross = ra != rb
        ra, rb = ra[cross], rb[cross]
    return (np.cumsum(parent == nodes) - 1)[parent]


def _block_groups(pattern: np.ndarray):
    """Yields, per component size ascending, the (count, size) index array of
    the pattern's undirected connected components, nodes ascending per row."""
    labels = _component_labels(pattern)
    size_of = np.bincount(labels)[labels]
    # nodes grouped by component size, then by component, ascending within
    order = np.lexsort((labels, size_of))
    for group in np.split(order, np.flatnonzero(np.diff(size_of[order])) + 1):
        yield group.reshape(-1, size_of[group[0]])


def _block_eigvalsh(pattern: np.ndarray, gather) -> np.ndarray:
    """Eigenvalues of a hermitian matrix, ascending, computed per block.

    ``pattern`` is the matrix's exact nonzero pattern as a boolean array;
    ``gather(idx)`` returns the matrix's principal submatrices over the rows
    of the index array ``idx``, stacked.  The blocks are the connected
    components of the pattern taken as an undirected graph, so every entry
    the dense ``eigvalsh`` reads lies inside one block and the two spectra
    agree in exact arithmetic.  Components of equal size are stacked and
    share one batched ``eigvalsh`` call.
    """
    vals = [np.linalg.eigvalsh(gather(idx)).ravel() for idx in _block_groups(pattern)]
    return np.sort(np.concatenate(vals))


def partial_transpose(rho: BipartiteDensityOperator) -> BipartiteDensityOperator:
    """Transpose the second mode only: <i,j|out|k,l> = <i,l|rho|k,j>."""
    return BipartiteDensityOperator._adopt(
        rho.cutoff, rho.as_tensor().transpose(0, 3, 2, 1).reshape(rho.matrix.shape),
        check_psd=False)


def spectrum(op: BipartiteDensityOperator) -> np.ndarray:
    """Eigenvalues of a validated operator as a contiguous float array,
    sorted descending."""
    vals = _block_eigvalsh(op.matrix != 0, lambda idx: _principal(op.matrix, idx))
    return np.ascontiguousarray(vals[::-1])


def pt_moments(rho: BipartiteDensityOperator, n_max: int) -> np.ndarray:
    """Trace moments of the partial transpose, orders 1 .. n_max.

    Power sums of the partially transposed matrix's spectrum, so every moment
    is exactly real.  That matrix permutes the entries of the validated
    ``rho``, keeping their finiteness, hermiticity residue and trace; it is
    never built: its pattern is the permuted boolean tensor, and each block
    is gathered straight from ``rho``'s entries."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    t = rho.as_tensor()
    d_b = rho.d_b

    def pt_blocks(idx):
        r, c = idx[:, :, None], idx[:, None, :]
        return t[r // d_b, c % d_b, c // d_b, r % d_b]

    pattern = (t != 0).transpose(0, 3, 2, 1).reshape(rho.matrix.shape)
    w = np.ascontiguousarray(_block_eigvalsh(pattern, pt_blocks)[::-1])
    return np.array([np.sum(w ** n) for n in range(1, n_max + 1)])


def pt_moment(rho: BipartiteDensityOperator, n: int) -> float:
    """Trace of the n-th power of the partial transpose."""
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
    if i > j and rho.level_populations("a")[-1] > DEFAULT_TOL.trunc:
        raise CutoffError("net raising on mode A with occupied top level; increase d_a")
    if k > l and rho.level_populations("b")[-1] > DEFAULT_TOL.trunc:
        raise CutoffError("net raising on mode B with occupied top level; increase d_b")
    a = _ladder(rho.d_a)
    b = _ladder(rho.d_b)
    op_a = np.linalg.matrix_power(a.T, i) @ np.linalg.matrix_power(a, j)
    op_b = np.linalg.matrix_power(b.T, k) @ np.linalg.matrix_power(b, l)
    return complex(np.einsum("ijkl,ki,lj->", rho.as_tensor(), op_a, op_b))


def schmidt_probabilities(vec, cutoff: ModeCutoff) -> np.ndarray:
    """Schmidt probabilities of a pure bipartite state, descending, without
    those at or below 1e-15 (float noise of the SVD).

    ``vec`` may be flat of length d_a*d_b or already shaped (d_a, d_b).
    """
    m = np.asarray(vec, dtype=complex).reshape(cutoff.d_a, cutoff.d_b)
    s = np.linalg.svd(m, compute_uv=False)
    lam = s ** 2
    lam = lam / lam.sum()
    return lam[lam > 1e-15]


def pure_state_pt_moment(schmidt_probs, n: int) -> float:
    """PT-moment of a pure state from its Schmidt probabilities.

    Sum of lambda^n for odd n, the square of the sum of lambda^(n/2) for
    even n.
    """
    lam = np.asarray(schmidt_probs, dtype=float)
    if n % 2 == 1:
        return float(np.sum(lam ** n))
    return float(np.sum(lam ** (n // 2)) ** 2)


def _poisson_tail(k: int, mean: float) -> float:
    """P(X > k) for X ~ Poisson(mean), summed from the term j = k + 1 up.
    Below the mode it is 1 - P(X <= k), with the head summed from j = k
    down: there the first term of the upward sum underflows to 0 once the
    mean is large, and that sum would stop at once."""
    upward = k + 1 >= mean
    j = k + 1 if upward else k
    total = 0.0
    term = math.exp(j * math.log(mean) - mean - math.lgamma(j + 1)) if mean else 0.0
    # the terms fall away from the mode: stop at the first one that no longer
    # changes the sum (the term below j = 0 is 0)
    while total + term != total:
        total += term
        if upward:
            j += 1
            term *= mean / j
        else:
            term *= j / mean
            j -= 1
    return total if upward else 1.0 - total


def coherent_cutoff(alphas, tol: float = DEFAULT_TOL.trunc, guard: int = 1) -> int:
    """Smallest Fock dimension d whose Poisson tail P(n >= d), summed term by
    term, is below ``tol`` for every displacement in ``alphas``, plus
    ``guard`` empty levels on top."""
    alphas = np.atleast_1d(alphas)
    mean = max((abs(a) ** 2 for a in alphas), default=0.0)
    if not (np.isfinite(alphas).all() and math.isfinite(mean)):
        raise DomainError(f"displacements must be finite, got {alphas}")
    d = 1
    while _poisson_tail(d - 1, mean) >= tol:
        d += 1
    return d + guard
