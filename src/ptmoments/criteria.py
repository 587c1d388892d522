"""Separability tests built from moments of the partially transposed state.

Two infinite hierarchies (Hankel-matrix positivity and non-negativity of the
elementary symmetric polynomials obtained through Newton's identities) plus
the three third-order tests that only need the purity p2 and the third moment
p3: linear, quadratic, and the optimal bound.  A negative witness flags
entanglement in every report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, OrderError

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


@dataclass(frozen=True)
class PtMomentVector:
    """Ordered PT-moments p_1 .. p_n of a single state."""

    moments: tuple

    def __post_init__(self):
        ms = self.values
        if ms.size < 1:
            raise OrderError("need at least p_1")
        if not np.isfinite(ms).all():
            raise DomainError(f"moments must be finite, got {self.moments}")
        if abs(ms[0] - 1.0) > 1e-9:
            raise ValueError(f"p_1 = {ms[0]} must be 1")
        if ms.size >= 2:
            p2 = ms[1]
            for k in range(2, ms.size + 1):
                if abs(ms[k - 1]) > p2 ** (k / 2) + 1e-9:
                    raise ValueError(f"|p_{k}| exceeds p_2^({k}/2)")

    @classmethod
    def of(cls, *moments: float) -> "PtMomentVector":
        return cls(tuple(float(m) for m in moments))

    @property
    def values(self) -> np.ndarray:
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
    """Outcome of one separability test; witness < 0 flags entanglement."""

    criterion_id: str
    witness: float
    threshold: float
    detected: bool
    gaussian_only: bool = False

    @classmethod
    def from_witness(cls, criterion_id: str, witness: float, threshold: float = 0.0,
                     gaussian_only: bool = False) -> "CriterionReport":
        return cls(criterion_id, float(witness), float(threshold),
                   detected=bool(witness < 0), gaussian_only=gaussian_only)


def _require_finite(**values: float) -> None:
    # NaN fails every comparison, so an unchecked NaN witness reads as a verdict
    for name, v in values.items():
        if not math.isfinite(v):
            raise DomainError(f"{name} must be finite, got {v}")


def _require_odd_order(p: PtMomentVector, n: int) -> None:
    if n < 1 or n % 2 == 0:
        raise OrderError(f"Hankel test needs odd n, got {n}")
    if p.order < n:
        raise OrderError(f"need moments up to p_{n}, have {p.order}")


def hankel_matrix(p: PtMomentVector, n: int) -> np.ndarray:
    """Symmetric Hankel matrix of order (n+1)/2 with entry (r, c) = p_{r+c+1}."""
    _require_odd_order(p, n)
    m = (n + 1) // 2
    return np.array([[p.p(r + c + 1) for c in range(m)] for r in range(m)])


def hankel_test(p: PtMomentVector, n: int) -> CriterionReport:
    """Separable states have a positive semidefinite Hankel matrix; the witness
    is its minimum eigenvalue."""
    w = float(np.linalg.eigvalsh(hankel_matrix(p, n))[0])
    return CriterionReport.from_witness(f"hankel{n}", w)


def newton_elementary(p: PtMomentVector) -> np.ndarray:
    """Elementary symmetric polynomials e_0 .. e_n of the PT spectrum,
    recovered from the moments through n*e_n = sum_j (-1)^(j-1) e_(n-j) p_j."""
    ms = p.values
    e = np.empty(ms.size + 1)
    e[0] = 1.0
    for n in range(1, ms.size + 1):
        acc = 0.0
        for j in range(1, n + 1):
            acc += (-1) ** (j - 1) * e[n - j] * ms[j - 1]
        e[n] = acc / n
    return e


def descartes_test(p: PtMomentVector, n: int) -> CriterionReport:
    """Separable states have all e_k >= 0; the witness is min(e_1 .. e_n)."""
    if n < 1 or p.order < n:
        raise OrderError(f"need moments up to p_{n}, have {p.order}")
    e = newton_elementary(PtMomentVector(p.moments[:n]))
    return CriterionReport.from_witness(f"newton{n}", float(e[1:].min()))


def p3_linear(p2: float, p3: float) -> CriterionReport:
    _require_finite(p2=p2, p3=p3)
    return CriterionReport.from_witness("linear3", p3 - (3.0 * p2 - 1.0) / 2.0,
                                        threshold=(3.0 * p2 - 1.0) / 2.0)


def p3_quadratic(p2: float, p3: float) -> CriterionReport:
    _require_finite(p2=p2, p3=p3)
    return CriterionReport.from_witness("quadratic3", p3 - p2 ** 2, threshold=p2 ** 2)


def optimal_threshold(p2: float) -> float:
    """Smallest p3 compatible with a separable state of purity p2.

    Minimizes the third power sum over non-negative spectra with unit trace
    and fixed second power sum: with a = floor(1/p2) the minimizer has a
    equal weights u and one remainder 1 - a*u.  Reduces to the linear bound
    (3 p2 - 1)/2 on 1/2 < p2 <= 1.
    """
    if not 0.0 < p2 <= 1.0:
        raise DomainError(f"p2 must lie in (0, 1], got {p2}")
    a = max(int(math.floor(1.0 / p2 + _FLOOR_NUDGE)), 1)
    radicand = max(a * (p2 * (a + 1) - 1.0), 0.0)
    u = (a + math.sqrt(radicand)) / (a * (a + 1))
    return a * u ** 3 + (1.0 - a * u) ** 3


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
    if not 0.0 < p2 <= 1.0:
        raise DomainError(f"p2 must lie in (0, 1], got {p2}")
    thr = 4.0 * p2 ** 2 / (3.0 + p2 ** 2)
    return CriterionReport.from_witness("simon_gaussian3", p3 - thr, threshold=thr,
                                        gaussian_only=True)


def gaussian_physicality_bound(p2: float) -> float:
    """Largest p3 any Gaussian state of purity p2 can attain: (4 p2 / (3 + p2))^2."""
    if not 0.0 < p2 <= 1.0:
        raise DomainError(f"p2 must lie in (0, 1], got {p2}")
    return (4.0 * p2 / (3.0 + p2)) ** 2


def third_order_reports(p2: float, p3: float) -> list[CriterionReport]:
    """Linear, quadratic and optimal tests for one (p2, p3) pair."""
    return [p3_linear(p2, p3), p3_quadratic(p2, p3), p3_optimal(p2, p3)]
