"""Exception types shared across the package, and the finiteness check that
raises one."""

import numpy as np


class PtmomentsError(Exception):
    """Base class of the package's exception types."""


class ToleranceError(PtmomentsError):
    """A numerical residue exceeded its configured tolerance."""


class HermiticityError(ToleranceError):
    """Matrix is not hermitian within tolerance."""


class SymmetryError(ToleranceError):
    """Matrix is not symmetric within tolerance."""


class StateValidationError(ToleranceError):
    """Density operator has non-finite entries or violates trace normalization
    or positivity."""


class CutoffError(PtmomentsError):
    """A Fock-space truncation would discard non-negligible amplitude."""


class CutoffTooSmallError(CutoffError):
    """Requested cutoff leaves more tail mass than the truncation tolerance."""


class OrderError(PtmomentsError, ValueError):
    """Moment vector too short or of the wrong parity for the requested test."""


class DomainError(PtmomentsError, ValueError):
    """Parameter outside the domain on which a formula is defined."""


class BudgetError(PtmomentsError):
    """An exact computation would exceed its fixed cost budget."""


def _require_finite(**values) -> None:
    """DomainError unless every element of each value is finite: NaN fails every
    comparison, so an unchecked NaN witness reads as a verdict."""
    for name, v in values.items():
        if not np.isfinite(v).all():
            raise DomainError(f"{name} must be finite, got {v}")


def _require_unit_disk(**values) -> None:
    """DomainError unless every element of each value has modulus at most 1 + 1e-9."""
    for name, v in values.items():
        if not (np.abs(v) <= 1.0 + 1e-9).all():  # NaN fails too
            raise DomainError(f"{name} must have modulus at most 1, got {v}")
