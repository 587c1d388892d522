"""Symplectic covariance-matrix formalism for two-mode Gaussian states.

Covariance matrices are real symmetric 4x4 in the quadrature ordering
(X1, P1, X2, P2), normalized so the vacuum is the identity.  The partial
transpose acts as a sign flip of the second momentum, separability of a
Gaussian state is equivalent to both symplectic eigenvalues of the partially
transposed covariance matrix being >= 1, and all PT-moments follow from those
two eigenvalues in closed form.

The closed forms are elementwise: a ``SymplecticPair`` may hold arrays of
eigenvalues, and ``gaussian_pt_moment(s)``, ``simon_test``,
``symplectic_p3_criteria`` and ``tmsv_thermal_pt_pair`` then give arrays (or
reports of arrays) of their shape; scalars still give floats.  Powers go
through np.float_power, as in ``criteria``, so each element has the bits of
its scalar evaluation.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from math import comb

import numpy as np

from .criteria import CriterionReport
from .errors import DomainError, SymmetryError, _require_finite

__all__ = [
    "OMEGA",
    "CovarianceMatrix",
    "SymplecticPair",
    "simon_test",
    "gaussian_pt_moment",
    "gaussian_pt_moments",
    "symplectic_p3_criteria",
    "tmsv_thermal",
    "tmsv_thermal_pt_pair",
]

# Symplectic metric for (X1, P1, X2, P2).
OMEGA = np.kron(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))

# Largest |r| at which e^(2|r|), the larger PT symplectic eigenvalue of the
# squeezed vacuum, is a finite float; the TMSV constructors refuse beyond it
# before any arithmetic, so no overflow warning precedes the refusal.
_R_MAX = math.log(sys.float_info.max) / 2.0

# Bound on the symmetry residue of a covariance matrix, and how negative an
# eigenvalue of gamma + i Omega may be for a physical state.
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
        _require_finite(gamma=g)
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
    """The two symplectic eigenvalues, stored ascending: floats, or two arrays
    (broadcast together) sorted element by element.

    Their product equals sqrt(det gamma) and is >= 1 for any (partially
    transposed or not) covariance matrix descending from a physical state.
    """

    nu1: float
    nu2: float

    def __post_init__(self):
        nus = np.broadcast_arrays(np.asarray(self.nu1, dtype=float),
                                  np.asarray(self.nu2, dtype=float))
        _require_finite(nu1=nus[0], nu2=nus[1])
        lo, hi = np.minimum(*nus), np.maximum(*nus)
        if (lo <= 0).any():
            raise DomainError(f"symplectic eigenvalues must be > 0, got {lo}")
        if lo.ndim == 0:
            lo, hi = float(lo), float(hi)
        object.__setattr__(self, "nu1", lo)
        object.__setattr__(self, "nu2", hi)


def simon_test(pair: SymplecticPair) -> CriterionReport:
    """Gaussian separability condition: both PT symplectic eigenvalues >= 1."""
    return CriterionReport.from_witness("simon", pair.nu1 - 1.0, threshold=1.0,
                                        gaussian_only=True)


def gaussian_pt_moment(pair: SymplecticPair, n: int):
    """n-th PT-moment of a Gaussian state from its PT symplectic eigenvalues:
    product over j of 2^n / ((nu_j + 1)^n - (nu_j - 1)^n).

    The difference is summed as its odd binomial terms,
    2 sum_(k odd) C(n, k) nu^(n-k), which are all positive, so each factor
    is 2^(n-1) / sum_(k odd) C(n, k) nu^(n-k): nothing cancels at small or
    large nu.  n = 1 gives 1."""
    if n < 1:
        raise DomainError(f"moment order must be >= 1, got {n}")
    # past r of about 59, nu2^6 = inf gives p_7 a factor of 0, as the true moment underflows
    with np.errstate(over="ignore"):
        t1, t2 = (2.0 ** (n - 1) / sum(comb(n, k) * np.float_power(nu, n - k)
                                       for k in range(1, n + 1, 2))
                  for nu in (pair.nu1, pair.nu2))
    return float(t1 * t2) if np.ndim(t1) == 0 else t1 * t2


def gaussian_pt_moments(pair: SymplecticPair, n_max: int) -> np.ndarray:
    """PT-moments p_1 .. p_n_max, order first: shape (n_max, *pair's shape)."""
    return np.array([gaussian_pt_moment(pair, n) for n in range(1, n_max + 1)])


def symplectic_p3_criteria(pair: SymplecticPair) -> tuple[CriterionReport, CriterionReport]:
    """Linear and quadratic third-order tests written directly in the
    symplectic eigenvalues; sign-equivalent to the generic tests evaluated on
    the closed-form moments."""
    v1, v2 = pair.nu1, pair.nu2
    with np.errstate(over="ignore", invalid="ignore"):  # past r ~ 177 inf * 0: NaN, refused
        s1, s2 = np.float_power(v1, 2), np.float_power(v2, 2)
        quad = 7.0 * s1 * s2 - 3.0 * (s1 + s2) - 1.0
        lin = (s1 + 3.0 * s1 * s2 + s2) * (v1 * v2 - 3.0) + 11.0 * v1 * v2 - 1.0
    return (CriterionReport.from_witness("linear3_symplectic", lin),
            CriterionReport.from_witness("quadratic3_symplectic", quad))


def tmsv_thermal(n_bar: float, r: float) -> CovarianceMatrix:
    """Two-mode squeezed state built from two thermal modes of mean occupation
    n_bar, squeezed with parameter r."""
    # checked before the block, where an infinite entry times zero warns
    if not (0.0 <= n_bar < math.inf and abs(r) <= _R_MAX):
        raise DomainError(f"need finite n_bar >= 0 and |r| <= {_R_MAX!r}, got {n_bar}, {r}")
    scale = 2.0 * n_bar + 1.0
    ch, sh = np.cosh(2.0 * r), np.sinh(2.0 * r)
    z = np.diag([1.0, -1.0])
    gamma = scale * np.block([[ch * np.eye(2), sh * z], [sh * z, ch * np.eye(2)]])
    return CovarianceMatrix(gamma)


def tmsv_thermal_pt_pair(n_bar: float, r: float) -> SymplecticPair:
    """PT symplectic eigenvalues of the squeezed thermal family:
    (2 n_bar + 1) e^(-2r) and (2 n_bar + 1) e^(2r)."""
    if (np.asarray(n_bar) < 0).any():
        raise DomainError(f"n_bar must be >= 0, got {n_bar}")
    if (np.abs(r) > _R_MAX).any():  # NaN passes on to SymplecticPair's check
        raise DomainError(f"|r| must be at most {_R_MAX!r}, got {r}")
    scale = 2.0 * n_bar + 1.0
    return SymplecticPair(scale * np.exp(-2.0 * r), scale * np.exp(2.0 * r))
