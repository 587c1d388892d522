"""Closed-form output distributions of the two readout circuits fed with
identical lossy single-photon NOON copies (transmissivity tau, phase alpha).

These are the reference values the circuit simulator is checked against.
Outcomes follow the package convention: (N2A, N2B) for the two-copy circuit
and (N2A, N3A, N2B, N3B) for the three-copy circuit.
"""

from __future__ import annotations

from .errors import _require_finite

__all__ = ["f2_formula", "f2_outcomes", "f3_formula", "f3_outcomes", "f3_zero_outcomes"]


def f2_outcomes() -> list:
    return [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]


def f2_formula(outcome, alpha: complex, tau: float) -> float:
    """Probability of (N2A, N2B) after the two-copy readout."""
    _require_finite(alpha=alpha, tau=tau)
    a2 = abs(alpha) ** 2
    b2 = 1.0 - a2
    table = {
        (0, 0): 1.0 - tau / 2.0 * (2.0 - tau),
        (1, 0): tau * (1.0 - tau) * a2,
        (0, 1): tau * (1.0 - tau) * b2,
        (1, 1): tau ** 2 * a2 * b2,
        (2, 0): tau ** 2 / 2.0 * a2 ** 2,
        (0, 2): tau ** 2 / 2.0 * b2 ** 2,
    }
    return table.get(tuple(outcome), 0.0)


def _k(n2a, n2b, n3a, n3b):
    # package outcome order is (N2A, N3A, N2B, N3B)
    return (n2a, n3a, n2b, n3b)


def f3_zero_outcomes() -> list:
    """Physical three-photon outcomes whose probability vanishes identically."""
    return [_k(1, 0, 2, 0), _k(2, 0, 1, 0), _k(0, 1, 0, 2), _k(0, 2, 0, 1),
            _k(0, 1, 2, 0), _k(0, 2, 1, 0), _k(1, 0, 0, 2), _k(2, 0, 0, 1),
            _k(0, 1, 1, 1), _k(1, 0, 1, 1), _k(1, 1, 0, 1), _k(1, 1, 1, 0)]


def _f3_table(alpha: complex, t: float) -> dict:
    _require_finite(alpha=alpha, tau=t)
    a2 = abs(alpha) ** 2
    b2 = 1.0 - a2
    single_a = a2 * (1 - t) * t * (3 - 2 * t) / 3.0
    single_b = b2 * (1 - t) * t * (3 - 2 * t) / 3.0
    table = {
        _k(0, 0, 0, 0): 1.0 - t * (18.0 + t * (-15.0 + 4.0 * t)) / 9.0,
        _k(1, 0, 0, 0): single_a, _k(0, 0, 1, 0): single_a,
        _k(0, 1, 0, 0): single_b, _k(0, 0, 0, 1): single_b,
        _k(1, 1, 0, 0): 4.0 * a2 * b2 * (1 - t) * t ** 2 / 3.0,
        _k(0, 0, 1, 1): 4.0 * a2 * b2 * (1 - t) * t ** 2 / 3.0,
        _k(1, 0, 0, 1): a2 * b2 * t ** 2 / 3.0,
        _k(0, 1, 1, 0): a2 * b2 * t ** 2 / 3.0,
        _k(1, 0, 1, 0): a2 ** 2 * t ** 2 / 3.0,
        _k(0, 1, 0, 1): b2 ** 2 * t ** 2 / 3.0,
        _k(2, 0, 0, 0): 2.0 * a2 ** 2 * (1 - t) * t ** 2 / 3.0,
        _k(0, 0, 2, 0): 2.0 * a2 ** 2 * (1 - t) * t ** 2 / 3.0,
        _k(0, 2, 0, 0): 2.0 * b2 ** 2 * (1 - t) * t ** 2 / 3.0,
        _k(0, 0, 0, 2): 2.0 * b2 ** 2 * (1 - t) * t ** 2 / 3.0,
        _k(1, 2, 0, 0): 2.0 * a2 * b2 ** 2 * t ** 3 / 3.0,
        _k(0, 0, 1, 2): 2.0 * a2 * b2 ** 2 * t ** 3 / 3.0,
        _k(2, 1, 0, 0): 2.0 * a2 ** 2 * b2 * t ** 3 / 3.0,
        _k(0, 0, 2, 1): 2.0 * a2 ** 2 * b2 * t ** 3 / 3.0,
        _k(3, 0, 0, 0): 2.0 * a2 ** 3 * t ** 3 / 9.0,
        _k(0, 0, 3, 0): 2.0 * a2 ** 3 * t ** 3 / 9.0,
        _k(0, 3, 0, 0): 2.0 * b2 ** 3 * t ** 3 / 9.0,
        _k(0, 0, 0, 3): 2.0 * b2 ** 3 * t ** 3 / 9.0,
    }
    for key in f3_zero_outcomes():
        table[key] = 0.0
    return table


def f3_outcomes() -> list:
    return sorted(_f3_table(0.5, 0.5))


def f3_formula(outcome, alpha: complex, tau: float) -> float:
    """Probability of (N2A, N3A, N2B, N3B) after the three-copy readout."""
    return _f3_table(alpha, tau).get(tuple(outcome), 0.0)
