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
entries that still join two trees hook root onto root until none does.  The
constructor takes each block's hermiticity residue in one pass; a Cholesky
certificate of 0.5 * (rho + rho^H) + psd * I per block proves positivity,
and ``eigvalsh`` of a failing block alone, unshifted, names the rejection.

Memory: an operator stores one copy of its matrix and its nonzero pattern as
bits (1/128 of its size); a caller's array is copied once, the package's own
builders hand theirs over.  The constructor packs the matrix's boolean
pattern (1/16), then reads blocks in row chunks of ``_CHUNK_BYTES``: with the
positivity check the pattern's labelled blocks, each symmetrised and shifted
in place once gathered; without it, unlabelled, one block on the support (the
rows and columns that hold a nonzero).  ``spectrum`` and ``pt_moments``
unpack the bits; ``pt_moments`` permutes them and gathers the partial
transpose's blocks straight from ``rho``.  Beyond the stored copy and the
pattern, only the blocks and their Cholesky factors (an unstructured matrix
is one block) can exceed a fraction of the matrix's size.

Basis convention: the two-mode basis state |i>_A |j>_B is stored at row/column
index ``i * d_b + j`` for level cutoffs ``d_a`` and ``d_b``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (BudgetError, DomainError, HermiticityError, StateValidationError,
                     _require_finite)

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

# Byte budget of one row chunk of the constructor's checks, which hold a few at a time.
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
        if mat.shape != (cutoff.dim, cutoff.dim):
            raise ValueError(f"matrix shape {mat.shape} does not match cutoff dim {cutoff.dim}")
        with np.errstate(invalid="ignore", over="ignore"):
            tr = np.trace(mat)  # a bad trace outranks positivity: its matrix is never factored
        pattern = mat != 0
        res, lam_min = _block_checks(mat, pattern, check_psd and abs(tr - 1) <= DEFAULT_TOL.trace)
        if res > DEFAULT_TOL.herm:
            raise HermiticityError(f"hermiticity residue {res:.3e} > {DEFAULT_TOL.herm:.1e}")
        if abs(tr - 1.0) > DEFAULT_TOL.trace:
            raise StateValidationError(f"trace {tr} deviates from 1 beyond {DEFAULT_TOL.trace:.1e}")
        if not lam_min >= -DEFAULT_TOL.psd:  # NaN too: an overflowing symmetrised block
            raise StateValidationError(f"minimum eigenvalue {lam_min:.3e} < -{DEFAULT_TOL.psd:.1e}")
        mat.setflags(write=False)
        self.cutoff, self.matrix = cutoff, mat
        self._bits = np.packbits(pattern, axis=1)

    @classmethod
    def from_state_vector(cls, vec, cutoff: ModeCutoff) -> "BipartiteDensityOperator":
        """Projector onto a pure state given as a flat vector or (d_a, d_b) array."""
        v = np.asarray(vec, dtype=complex).reshape(-1)
        if v.size != cutoff.dim:
            raise ValueError(f"vector size {v.size} does not match cutoff dim {cutoff.dim}")
        norm = np.linalg.norm(v)
        if not 0 < norm < np.inf:  # NaN fails too
            raise DomainError(f"state vector norm must be positive and finite, got {norm}")
        v = v / norm
        # a projector is positive by construction; skip the eigenvalue check
        return cls._adopt(cutoff, np.outer(v, v.conj()), check_psd=False)

    @property
    def d_a(self) -> int:
        return self.cutoff.d_a

    @property
    def d_b(self) -> int:
        return self.cutoff.d_b

    def _pattern(self) -> np.ndarray:  # matrix != 0, from the stored bits
        return np.unpackbits(self._bits, axis=1, count=self.cutoff.dim).view(bool)

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


def _block_checks(mat: np.ndarray, pattern: np.ndarray, check_psd: bool):
    """(max|mat - mat^H|, least eigenvalue of the blocks of 0.5 * (mat + mat^H)
    failing a Cholesky certificate of block + psd * I, which proves lambda_min
    >= -psd up to ~n * eps * |mat| (Higham 1990), inf if none does) over the
    blocks of ``pattern``, where each nonzero, NaN and inf too, meets its transposed
    partner; unchecked, the one block is the support, the rows and columns that hold
    one (none in a zero matrix), and the pattern is not labelled.  Raises on NaN or inf."""
    residue, lam_min = 0.0, math.inf
    support = None if check_psd else np.flatnonzero(pattern.any(axis=0) | pattern.any(axis=1))
    with np.errstate(invalid="ignore", over="ignore"):
        for idx in _block_groups(pattern) if check_psd else [support[None]][:support.size]:
            count, size = idx.shape
            blocks = _principal(mat, idx) if check_psd else None
            for r in _row_chunks(size, 2 * count * size):  # half chunks: ~4 are held
                if blocks is None:  # row chunks from mat, for the residue alone
                    lower = mat[idx[:, r, None], idx[:, None, :r.stop]]
                    upper = mat[idx[:, :r.stop, None], idx[:, None, r]]
                else:  # the lower triangle, which both solvers read
                    lower, upper = blocks[:, r, :r.stop], blocks[:, :r.stop, r]
                upper = upper.conj().swapaxes(1, 2)
                residue = np.maximum(residue, np.abs(lower - upper).max())  # keeps a NaN
                if blocks is not None:
                    lower += upper
                    lower *= 0.5
            del lower, upper  # the last chunk's copy, before the factorisation
            if blocks is not None and residue <= DEFAULT_TOL.herm:
                diagonal = blocks.reshape(count, -1)[:, ::size + 1]
                unshifted = diagonal.copy()
                diagonal += DEFAULT_TOL.psd
                try:
                    if not np.isfinite(np.linalg.cholesky(blocks).diagonal(0, 1, 2)).all():
                        raise np.linalg.LinAlgError  # a NaN that the solver let through
                except np.linalg.LinAlgError:  # NaN for an overflowing block: LAPACK may raise
                    diagonal[...] = unshifted  # exactly: subtracting the shift could round
                    lam_min = (np.minimum(lam_min, np.linalg.eigvalsh(blocks).min())
                               if np.isfinite(blocks).all() else math.nan)
    # a non-finite entry makes the residue non-finite; so does an overflow
    if not (np.isfinite(residue) or np.isfinite(mat).all()):
        raise StateValidationError("matrix has non-finite entries")
    return residue, lam_min


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
    """Ascending eigenvalues of the hermitian matrix with boolean nonzero
    ``pattern``, one batched ``eigvalsh`` per component size of its stacked
    principal blocks ``gather(idx)`` over the rows of ``idx``: every entry the
    dense ``eigvalsh`` reads lies in one block, so the two spectra agree."""
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
    vals = _block_eigvalsh(op._pattern(), lambda idx: _principal(op.matrix, idx))
    return np.ascontiguousarray(vals[::-1])


def pt_moments(rho: BipartiteDensityOperator, n_max: int) -> np.ndarray:
    """Trace moments of the partial transpose, orders 1 .. n_max.

    Power sums of the partially transposed matrix's spectrum, so every moment
    is exactly real.  That matrix permutes the entries of the validated
    ``rho``, keeping their finiteness, hermiticity residue and trace; it is
    never built: its pattern is ``rho``'s bits permuted, and each block is
    gathered straight from ``rho``'s entries."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    t = rho.as_tensor()
    d_b = rho.d_b

    def pt_blocks(idx):
        r, c = idx[:, :, None], idx[:, None, :]
        return t[r // d_b, c % d_b, c // d_b, r % d_b]

    pattern = rho._pattern().reshape(t.shape).transpose(0, 3, 2, 1).reshape(rho.matrix.shape)
    w = np.ascontiguousarray(_block_eigvalsh(pattern, pt_blocks)[::-1])
    return np.array([np.sum(w ** n) for n in range(1, n_max + 1)])


def pt_moment(rho: BipartiteDensityOperator, n: int) -> float:
    """Trace of the n-th power of the partial transpose."""
    return float(pt_moments(rho, n)[n - 1])


def purity(rho: BipartiteDensityOperator) -> float:
    """Tr(rho^2); for hermitian rho this is the sum of |rho_ij|^2."""
    return float(np.sum(np.abs(rho.matrix) ** 2))


def schmidt_probabilities(coefficients) -> np.ndarray:
    """Schmidt probabilities of the pure bipartite state with the (d_a, d_b)
    coefficient matrix ``coefficients``, descending, without those at or
    below 1e-15 (float noise of the SVD).  Only that matrix is decomposed,
    so no cutoff and no dense bound apply."""
    _require_finite(coefficients=coefficients)
    s = np.linalg.svd(np.asarray(coefficients, dtype=complex), compute_uv=False)
    lam = s ** 2
    lam = lam / lam.sum()
    return lam[lam > 1e-15]


def pure_state_pt_moment(schmidt_probs, n: int):
    """PT-moment of a pure state from its Schmidt probabilities.

    Sum of lambda^n for odd n, the square of the sum of lambda^(n/2) for
    even n.  The sum runs over axis 0: a stack of shape (k, *batch) gives an
    array of the batch's shape, one vector a float.
    """
    lam = np.asarray(schmidt_probs, dtype=float)
    _require_finite(schmidt_probs=lam)
    if n % 2 == 1:
        m = np.sum(lam ** n, axis=0)
    else:
        m = np.float_power(np.sum(lam ** (n // 2), axis=0), 2)
    return float(m) if m.ndim == 0 else m


def coherent_cutoff(alphas, tol: float = DEFAULT_TOL.trunc, guard: int = 1) -> int:
    """Smallest Fock dimension d whose Poisson tail P(n >= d), summed upward
    from n = d, is below ``tol``, in (0, 1/2), for every displacement in
    ``alphas``, plus ``guard`` empty levels on top.  The search starts at
    d = max(floor(mean), 1): the Poisson median is at least mean - ln 2, so
    the tail there is at least 1/2, and its first term cannot underflow."""
    alphas = np.atleast_1d(alphas)
    mean = max((abs(a) ** 2 for a in alphas), default=0.0)
    if not (np.isfinite(alphas).all() and math.isfinite(mean)):
        raise DomainError(f"displacements must be finite, got {alphas}")
    if not 0.0 < tol < 0.5:  # NaN fails too
        raise DomainError(f"tol must lie in (0, 1/2), got {tol}")
    d = max(math.floor(mean), 1)
    while True:
        tail, j = 0.0, d
        term = math.exp(j * math.log(mean) - mean - math.lgamma(j + 1)) if mean else 0.0
        # the terms fall past the mode: stop at the first one that no longer
        # changes the sum
        while tail + term != tail:
            tail += term
            j += 1
            term *= mean / j
        if tail < tol:
            return d + guard
        d += 1
