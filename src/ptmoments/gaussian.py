"""Symplectic covariance-matrix formalism for two-mode Gaussian states.

Covariance matrices are real symmetric 4x4 in the quadrature ordering
(X1, P1, X2, P2), normalized so the vacuum is the identity.  The partial
transpose acts as a sign flip of the second momentum, separability of a
Gaussian state is equivalent to both symplectic eigenvalues of the partially
transposed covariance matrix being >= 1, and all PT-moments follow from those
two eigenvalues in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .criteria import CriterionReport
from .errors import DomainError, SymmetryError

__all__ = [
    "OMEGA",
    "CovarianceMatrix",
    "SymplecticPair",
    "pt_covariance",
    "symplectic_eigenvalues",
    "simon_test",
    "gaussian_pt_moment",
    "gaussian_pt_moments",
    "symplectic_p3_criteria",
    "tmsv_thermal",
    "tmsv_thermal_pt_pair",
]

# Symplectic metric for (X1, P1, X2, P2).
OMEGA = np.kron(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))

_PT_FLIP = np.diag([1.0, 1.0, 1.0, -1.0])

# Bound on the symmetry residue of a covariance matrix, the relative pairing
# mismatch of the eigenvalues of i Omega gamma, and how negative an eigenvalue
# of gamma + i Omega may be for a physical state.
_COV_TOL = 1e-9


@dataclass(frozen=True)
class CovarianceMatrix:
    """Real symmetric 4x4 covariance matrix, vacuum = identity.

    Symmetry is enforced on construction.  Physicality (gamma + i Omega >= 0)
    holds for covariance matrices of states but intentionally not for their
    partial transposes, so it is exposed as a query instead of an invariant.
    """

    gamma: np.ndarray

    def __post_init__(self):
        g = np.array(self.gamma, dtype=float)
        if g.shape != (4, 4):
            raise ValueError(f"expected 4x4 matrix, got {g.shape}")
        residue = np.abs(g - g.T).max()
        if residue > _COV_TOL:
            raise SymmetryError(f"symmetry residue {residue:.3e} > {_COV_TOL:.1e}")
        g.setflags(write=False)
        object.__setattr__(self, "gamma", g)

    def is_physical(self) -> bool:
        """Whether gamma + i Omega >= 0 within tolerance."""
        vals = np.linalg.eigvalsh(self.gamma.astype(complex) + 1j * OMEGA)
        return bool(vals.min() >= -_COV_TOL)


@dataclass(frozen=True)
class SymplecticPair:
    """The two symplectic eigenvalues, stored ascending.

    Their product equals sqrt(det gamma) and is >= 1 for any (partially
    transposed or not) covariance matrix descending from a physical state.
    """

    nu1: float
    nu2: float

    def __post_init__(self):
        lo, hi = sorted((float(self.nu1), float(self.nu2)))
        if lo < 0:
            raise DomainError(f"symplectic eigenvalues must be >= 0, got {lo}")
        object.__setattr__(self, "nu1", lo)
        object.__setattr__(self, "nu2", hi)


def pt_covariance(cov: CovarianceMatrix) -> CovarianceMatrix:
    """Partial transpose in phase space: P2 -> -P2."""
    return CovarianceMatrix(_PT_FLIP @ cov.gamma @ _PT_FLIP)


def symplectic_eigenvalues(cov: CovarianceMatrix) -> SymplecticPair:
    """Williamson eigenvalues: moduli of the eigenvalues of i Omega gamma.

    The four eigenvalues come in +/- pairs; the two distinct moduli are
    returned ascending.  Mismatched pairing beyond ``_COV_TOL`` (relative)
    indicates a non-symmetric input and raises.
    """
    vals = np.sort(np.abs(np.linalg.eigvals(1j * OMEGA @ cov.gamma)))
    scale = max(vals[-1], 1.0)
    if abs(vals[0] - vals[1]) > _COV_TOL * scale or abs(vals[2] - vals[3]) > _COV_TOL * scale:
        raise SymmetryError(f"eigenvalues of i*Omega*gamma do not pair up: {vals}")
    return SymplecticPair(float(vals[0]), float(vals[2]))


def simon_test(pair: SymplecticPair) -> CriterionReport:
    """Gaussian separability condition: both PT symplectic eigenvalues >= 1."""
    return CriterionReport.from_witness("simon", min(pair.nu1, pair.nu2) - 1.0,
                                        threshold=1.0, gaussian_only=True)


def gaussian_pt_moment(pair: SymplecticPair, n: int) -> float:
    """n-th PT-moment of a Gaussian state from its PT symplectic eigenvalues:
    product over j of 2^n / ((nu_j + 1)^n - (nu_j - 1)^n).  n = 1 returns 1."""
    if n < 1:
        raise DomainError(f"moment order must be >= 1, got {n}")
    if n == 1:
        return 1.0
    out = 1.0
    for nu in (pair.nu1, pair.nu2):
        out *= 2.0 ** n / ((nu + 1.0) ** n - (nu - 1.0) ** n)
    return out


def gaussian_pt_moments(pair: SymplecticPair, n_max: int) -> np.ndarray:
    """PT-moments p_1 .. p_n_max."""
    return np.array([gaussian_pt_moment(pair, n) for n in range(1, n_max + 1)])


def symplectic_p3_criteria(pair: SymplecticPair) -> tuple[CriterionReport, CriterionReport]:
    """Linear and quadratic third-order tests written directly in the
    symplectic eigenvalues; sign-equivalent to the generic tests evaluated on
    the closed-form moments."""
    v1, v2 = pair.nu1, pair.nu2
    quad = 7.0 * v1 ** 2 * v2 ** 2 - 3.0 * (v1 ** 2 + v2 ** 2) - 1.0
    lin = (v1 ** 2 + 3.0 * v1 ** 2 * v2 ** 2 + v2 ** 2) * (v1 * v2 - 3.0) + 11.0 * v1 * v2 - 1.0
    return (CriterionReport.from_witness("linear3_symplectic", lin),
            CriterionReport.from_witness("quadratic3_symplectic", quad))


def tmsv_thermal(n_bar: float, r: float) -> CovarianceMatrix:
    """Two-mode squeezed state built from two thermal modes of mean occupation
    n_bar, squeezed with parameter r."""
    if n_bar < 0:
        raise DomainError(f"n_bar must be >= 0, got {n_bar}")
    scale = 2.0 * n_bar + 1.0
    ch, sh = np.cosh(2.0 * r), np.sinh(2.0 * r)
    z = np.diag([1.0, -1.0])
    gamma = scale * np.block([[ch * np.eye(2), sh * z], [sh * z, ch * np.eye(2)]])
    return CovarianceMatrix(gamma)


def tmsv_thermal_pt_pair(n_bar: float, r: float) -> SymplecticPair:
    """PT symplectic eigenvalues of the squeezed thermal family:
    (2 n_bar + 1) e^(-2r) and (2 n_bar + 1) e^(2r)."""
    if n_bar < 0:
        raise DomainError(f"n_bar must be >= 0, got {n_bar}")
    scale = 2.0 * n_bar + 1.0
    return SymplecticPair(scale * np.exp(-2.0 * r), scale * np.exp(2.0 * r))
