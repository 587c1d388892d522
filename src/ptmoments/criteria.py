"""Separability tests built from moments of the partially transposed state.

Two infinite hierarchies (Hankel-matrix positivity and non-negativity of the
elementary symmetric polynomials obtained through Newton's identities) plus
the three third-order tests that only need the purity p2 and the third moment
p3: linear, quadratic, and the optimal bound.  A negative witness flags
entanglement in every report.

Every test is elementwise: array moments (a ``PtMomentVector`` of one array
per order, checked element by element) give reports of arrays, and scalars
give floats and bools.  Powers go through np.float_power, which calls the C
library's pow as float ** does (np.power's SIMD loop can differ from it in
the last bit), so each element has the bits of its scalar evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, OrderError, _require_finite

__all__ = [
    "PtMomentVector",
    "CriterionReport",
    "hankel_matrix",
    "hankel_test",
    "newton_elementary",
    "descartes_test",
    "p3_linear",
    "p3_quadratic",
    "optimal_threshold",
    "p3_optimal",
    "simon_gaussian3",
    "gaussian_physicality_bound",
    "third_order_reports",
]

# Guards the floor in the optimal threshold against 1/p2 landing a hair under
# an integer through rounding.
_FLOOR_NUDGE = 1e-12

# Below this purity optimal_threshold reads p2^2, within 0.15 p2 of it: there 1 - a*u
# cancels (to no correct bit near p2 = 2e-24) and a*(a+1) overflows below 7e-155.
_SMALL_PURITY = 1e-15

# How far above 1 a purity may round on a pure state (the closed-form p2 of a
# two-mode squeezed vacuum lands 1 ulp above); such a p2 is read as 1.
_PURITY_SLACK = 4 * np.finfo(float).eps


@dataclass(frozen=True)
class PtMomentVector:
    """Ordered PT-moments p_1 .. p_n of a single state, or of a batch of
    states when each p_k is an array (all of one shape)."""

    moments: tuple

    def __post_init__(self):
        if len(self.moments) < 1:
            raise OrderError("need at least p_1")
        ms = self.values
        _require_finite(moments=ms)
        if (np.abs(ms[0] - 1.0) > 1e-9).any():
            raise ValueError(f"p_1 = {ms[0]} must be 1")
        for k in range(2, len(ms) + 1):
            if (np.abs(ms[k - 1]) > np.float_power(ms[1], k / 2) + 1e-9).any():
                raise ValueError(f"|p_{k}| exceeds p_2^({k}/2)")

    @classmethod
    def of(cls, *moments: float) -> "PtMomentVector":
        return cls(tuple(float(m) for m in moments))

    @property
    def values(self) -> np.ndarray:
        """The moments as one array, order first: shape (n, *batch)."""
        return np.asarray(self.moments, dtype=float)

    @property
    def order(self) -> int:
        return len(self.moments)

    def p(self, k: int) -> float:
        """k-th moment, 1-based."""
        if not 1 <= k <= self.order:
            raise OrderError(f"no moment p_{k} among p_1 .. p_{self.order}")
        return self.moments[k - 1]


@dataclass(frozen=True)
class CriterionReport:
    """Outcome of one separability test; witness < 0 flags entanglement.

    A test run on arrays reports arrays: witness is a float array, detected
    a bool array of its shape, and threshold a float or an array."""

    criterion_id: str
    witness: float
    threshold: float
    detected: bool
    gaussian_only: bool = False

    @classmethod
    def from_witness(cls, criterion_id: str, witness, threshold=0.0,
                     gaussian_only: bool = False) -> "CriterionReport":
        witness = np.asarray(witness, dtype=float)
        _require_finite(witness=witness)
        if witness.ndim == 0:
            witness, threshold = float(witness), float(threshold)
        return cls(criterion_id, witness, threshold, detected=witness < 0,
                   gaussian_only=gaussian_only)


def hankel_matrix(p: PtMomentVector, n: int) -> np.ndarray:
    """Symmetric Hankel matrix of order m = (n+1)/2 with entry (r, c) =
    p_{r+c+1}; a batch of moments gives a stack of shape (*batch, m, m)."""
    if n < 1 or n % 2 == 0:
        raise OrderError(f"Hankel test needs odd n, got {n}")
    if p.order < n:
        raise OrderError(f"need moments up to p_{n}, have {p.order}")
    m = (n + 1) // 2
    return np.moveaxis(p.values[np.add.outer(np.arange(m), np.arange(m))], (0, 1), (-2, -1))


def hankel_test(p: PtMomentVector, n: int) -> CriterionReport:
    """Separable states have a positive semidefinite Hankel matrix; the witness
    is its minimum eigenvalue, one eigvalsh over a batch's stacked matrices."""
    return CriterionReport.from_witness(f"hankel{n}",
                                        np.linalg.eigvalsh(hankel_matrix(p, n))[..., 0])


def newton_elementary(p: PtMomentVector) -> np.ndarray:
    """Elementary symmetric polynomials e_0 .. e_n of the PT spectrum,
    recovered from the moments through n*e_n = sum_j (-1)^(j-1) e_(n-j) p_j."""
    ms = p.values
    e = np.empty((len(ms) + 1, *ms.shape[1:]))
    e[0] = 1.0
    for n in range(1, len(ms) + 1):
        e[n] = sum((-1) ** (j - 1) * e[n - j] * ms[j - 1] for j in range(1, n + 1)) / n
    return e


def descartes_test(p: PtMomentVector, n: int) -> CriterionReport:
    """Separable states have all e_k >= 0; the witness is min(e_1 .. e_n)."""
    if n < 1 or p.order < n:
        raise OrderError(f"need moments up to p_{n}, have {p.order}")
    e = newton_elementary(PtMomentVector(p.moments[:n]))
    return CriterionReport.from_witness(f"newton{n}", e[1:].min(axis=0))


def p3_linear(p2: float, p3: float) -> CriterionReport:
    _require_finite(p2=p2, p3=p3)
    return CriterionReport.from_witness("linear3", p3 - (3.0 * p2 - 1.0) / 2.0,
                                        threshold=(3.0 * p2 - 1.0) / 2.0)


def p3_quadratic(p2: float, p3: float) -> CriterionReport:
    _require_finite(p2=p2, p3=p3)
    thr = np.float_power(p2, 2)
    return CriterionReport.from_witness("quadratic3", p3 - thr, threshold=thr)


def _purity(p2) -> np.ndarray:
    """p2 as an array, every element checked to lie in (0, 1]; up to
    _PURITY_SLACK above 1 is taken as rounding and read as 1."""
    p2 = np.asarray(p2, dtype=float)
    if not ((p2 > 0.0) & (p2 <= 1.0 + _PURITY_SLACK)).all():
        raise DomainError(f"p2 must lie in (0, 1], got {p2}")
    return np.minimum(p2, 1.0)


def optimal_threshold(p2):
    """Smallest p3 compatible with a separable state of purity p2.

    Minimizes the third power sum over non-negative spectra with unit trace
    and fixed second power sum: with a = floor(1/p2) the minimizer has a
    equal weights u and one remainder 1 - a*u.  Reduces to the linear bound
    (3 p2 - 1)/2 on 1/2 < p2 <= 1, and rounds to p2^2 below p2 = 1e-15.
    """
    p2 = _purity(p2)
    big = p2 >= _SMALL_PURITY
    thr = np.where(big, 0.0, p2 * p2)
    a = np.maximum(np.floor(1.0 / p2[big] + _FLOOR_NUDGE), 1.0)
    u = (a + np.sqrt(np.maximum(a * (p2[big] * (a + 1) - 1.0), 0.0))) / (a * (a + 1))
    thr[big] = a * np.float_power(u, 3) + np.float_power(1.0 - a * u, 3)
    return float(thr) if thr.ndim == 0 else thr


def p3_optimal(p2: float, p3: float) -> CriterionReport:
    _require_finite(p3=p3)
    thr = optimal_threshold(p2)
    return CriterionReport.from_witness("optimal3", p3 - thr, threshold=thr)


def simon_gaussian3(p2: float, p3: float) -> CriterionReport:
    """Third-order form of the Gaussian separability condition p3 >= 4 p2^2 / (3 + p2^2).

    Necessary and sufficient for Gaussian states only; the report is marked
    gaussian_only accordingly.
    """
    _require_finite(p3=p3)
    sq = np.float_power(_purity(p2), 2)
    thr = 4.0 * sq / (3.0 + sq)
    return CriterionReport.from_witness("simon_gaussian3", p3 - thr, threshold=thr,
                                        gaussian_only=True)


def gaussian_physicality_bound(p2):
    """Largest p3 any Gaussian state of purity p2 can attain: (4 p2 / (3 + p2))^2."""
    p2 = _purity(p2)
    bound = np.float_power(4.0 * p2 / (3.0 + p2), 2)
    return float(bound) if bound.ndim == 0 else bound


def third_order_reports(p2: float, p3: float) -> list[CriterionReport]:
    """Linear, quadratic and optimal tests for one (p2, p3) pair."""
    return [p3_linear(p2, p3), p3_quadratic(p2, p3), p3_optimal(p2, p3)]
