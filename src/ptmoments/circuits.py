"""Multicopy linear-optics readout of PT-moments.

Passive interferometers act on amplitude tensors over a truncated multimode
Fock basis.  ``apply_passive`` executes an n-mode unitary as a Givens
sequence of exact two-mode couplings and single-mode phases; it serves
general unitaries and is the differential reference for the readout engine.
Applying the n-mode discrete Fourier transform to the n copies held by each
party and counting photons on output modes 2..n yields an outcome
distribution whose root-of-unity expectation is the n-th PT-moment.
``outcome_distribution`` evolves through that DFT one photon-number sector
at a time, with the sector blocks of the DFT built once per (n, cutoff) and
cached, and refuses a readout over a fixed cost budget with BudgetError.

Mode-operator convention: a unitary U acts as a_j -> sum_k U_jk a_k, so a
single photon in mode j scatters into column j of U.

Both parties run the same DFT here.  An equivalent scheme would have the
second party run the inverse interferometer and read the uninverted phase
weights; only the same-DFT variant is implemented.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import comb, prod, sqrt

import numpy as np

from .errors import (BudgetError, CutoffError, DomainError, StateValidationError,
                     ToleranceError)
from .fock import DEFAULT_TOL, BipartiteDensityOperator

__all__ = [
    "PassiveUnitary",
    "CircuitElement",
    "OutcomeDistribution",
    "dft",
    "beam_splitter_matrix",
    "decompose_f3",
    "elements_to_matrix",
    "elements_to_json",
    "elements_from_json",
    "apply_two_mode",
    "apply_phase",
    "apply_element",
    "apply_passive",
    "loss_kraus",
    "lossy_channel",
    "outcome_distribution",
    "multicopy_expectation",
    "outcome_weights",
]

# Largest entry of U^dagger U - 1 accepted as unitary, and the relative norm
# change a two-mode coupling, or the norm share the photon-number sectors
# miss, may show before it is taken as cutoff overflow.
_UNITARITY_TOL = 1e-10
_COUPLING_NORM_TOL = 1e-9


@dataclass(frozen=True)
class PassiveUnitary:
    """n x n unitary acting on the mode annihilation operators."""

    matrix: np.ndarray

    def __post_init__(self):
        u = np.array(self.matrix, dtype=complex)
        if u.ndim != 2 or u.shape[0] != u.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {u.shape}")
        residue = np.abs(u.conj().T @ u - np.eye(u.shape[0])).max()
        if residue > _UNITARITY_TOL:
            raise ToleranceError(f"unitarity residue {residue:.3e} > {_UNITARITY_TOL:.1e}")
        u.setflags(write=False)
        object.__setattr__(self, "matrix", u)

    @property
    def n_modes(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class CircuitElement:
    """One passive element: a beam splitter of transmissivity tau on a mode
    pair, or a phase shift exp(-i phi) on a single mode.  Modes are 1-based to
    match circuit diagrams."""

    kind: str
    modes: tuple
    parameter: float

    def __post_init__(self):
        if self.kind == "beam_splitter":
            if len(self.modes) != 2:
                raise ValueError("beam splitter needs two modes")
            if not 0.0 <= self.parameter <= 1.0:
                raise DomainError(f"transmissivity must lie in [0, 1], got {self.parameter}")
        elif self.kind == "phase":
            if len(self.modes) != 1:
                raise ValueError("phase shift acts on one mode")
            if not 0.0 <= self.parameter < 2.0 * np.pi:
                raise DomainError(f"phase must lie in [0, 2 pi), got {self.parameter}")
        else:
            raise ValueError(f"unknown element kind {self.kind!r}")
        object.__setattr__(self, "modes", tuple(int(m) for m in self.modes))

    def to_dict(self) -> dict:
        return {"kind": self.kind, "modes": list(self.modes), "parameter": self.parameter}


def dft(n: int) -> PassiveUnitary:
    """Discrete Fourier transform with entries omega^(jk)/sqrt(n),
    omega = exp(-2 pi i / n)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    w = np.exp(-2j * np.pi / n)
    j, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return PassiveUnitary(w ** (j * k) / np.sqrt(n))


def beam_splitter_matrix(tau: float) -> np.ndarray:
    """[[sqrt(tau), sqrt(1-tau)], [sqrt(1-tau), -sqrt(tau)]]"""
    if not 0.0 <= tau <= 1.0:
        raise DomainError(f"transmissivity must lie in [0, 1], got {tau}")
    t, r = sqrt(tau), sqrt(1.0 - tau)
    return np.array([[t, r], [r, -t]], dtype=complex)


def decompose_f3(include_final_phases: bool = True) -> list[CircuitElement]:
    """Three-mode DFT as three beam splitters and phase shifts, listed in
    application order.  The two trailing phases only rotate output modes and
    may be dropped when the readout is a photon count."""
    elements = [
        CircuitElement("beam_splitter", (1, 2), 0.5),
        CircuitElement("beam_splitter", (1, 3), 2.0 / 3.0),
        CircuitElement("phase", (3,), np.pi / 2.0),
        CircuitElement("beam_splitter", (2, 3), 0.5),
    ]
    if include_final_phases:
        elements += [
            CircuitElement("phase", (2,), 2.0 * np.pi - np.pi / 6.0),
            CircuitElement("phase", (3,), np.pi / 6.0),
        ]
    return elements


def _element_matrix(elem: CircuitElement, n: int) -> np.ndarray:
    u = np.eye(n, dtype=complex)
    if elem.kind == "beam_splitter":
        i, j = (m - 1 for m in elem.modes)
        u[np.ix_([i, j], [i, j])] = beam_splitter_matrix(elem.parameter)
    else:
        u[elem.modes[0] - 1, elem.modes[0] - 1] = np.exp(-1j * elem.parameter)
    return u


def elements_to_matrix(elements, n: int) -> np.ndarray:
    """Mode matrix of a sequence of elements applied first-to-last."""
    u = np.eye(n, dtype=complex)
    for elem in elements:
        u = _element_matrix(elem, n) @ u
    return u


def elements_to_json(elements) -> str:
    return json.dumps([e.to_dict() for e in elements], indent=2)


def elements_from_json(text: str) -> list[CircuitElement]:
    return [CircuitElement(d["kind"], tuple(d["modes"]), d["parameter"])
            for d in json.loads(text)]


# ---------------------------------------------------------------------------
# Exact Fock-space evolution of pure amplitude tensors
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _coupling_tensor(key, d: int) -> np.ndarray:
    """T[m', n', m, n] = <m', n'| V |m, n> for a two-mode unitary V given by
    its flattened entries.  Input pairs with m + n > d - 1 are left zero; the
    norm check in apply_two_mode catches any use of that region."""
    v = np.array(key, dtype=complex).reshape(2, 2)
    log_fact = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, 2 * d)))))
    t = np.zeros((d, d, d, d), dtype=complex)
    for m in range(d):
        for n in range(d - m):
            # (V00 a1+ + V10 a2+)^m (V01 a1+ + V11 a2+)^n |0,0>
            for p in range(m + 1):
                for q in range(n + 1):
                    mp = p + q
                    npr = m + n - mp
                    if mp >= d or npr >= d:
                        continue
                    amp = (comb(m, p) * comb(n, q)
                           * v[0, 0] ** p * v[1, 0] ** (m - p)
                           * v[0, 1] ** q * v[1, 1] ** (n - q))
                    norm = np.exp(0.5 * (log_fact[mp] + log_fact[npr]
                                         - log_fact[m] - log_fact[n]))
                    t[mp, npr, m, n] += amp * norm
    return t


def apply_two_mode(psi: np.ndarray, mode_i: int, mode_j: int, v: np.ndarray) -> np.ndarray:
    """Apply a 2x2 mode unitary to axes ``mode_i`` and ``mode_j`` (0-based) of
    a pure amplitude tensor; every other axis, a trailing batch axis included,
    is carried along.  Raises CutoffError when photons would pile past the
    axis dimension, detected as norm loss in any fiber over the two axes."""
    d = psi.shape[mode_i]
    if psi.shape[mode_j] != d:
        raise ValueError("coupled modes must share their cutoff")
    key = tuple(complex(x) for x in np.asarray(v, dtype=complex).reshape(-1))
    t = _coupling_tensor(key, d)
    moved = np.moveaxis(psi, (mode_i, mode_j), (0, 1))
    out = np.tensordot(t, moved, axes=([2, 3], [0, 1]))
    before = np.linalg.norm(moved, axis=(0, 1))
    lost = before - np.linalg.norm(out, axis=(0, 1))
    if np.any(np.abs(lost) > _COUPLING_NORM_TOL * np.maximum(before, 1e-300)):
        raise CutoffError(f"two-mode coupling lost norm {np.max(lost):.3e}; "
                          "raise the per-mode cutoff")
    return np.moveaxis(out, (0, 1), (mode_i, mode_j))


def apply_phase(psi: np.ndarray, mode: int, phi: float) -> np.ndarray:
    """Apply exp(-i phi) per photon on one axis of a pure amplitude tensor."""
    d = psi.shape[mode]
    factors = np.exp(-1j * phi * np.arange(d))
    shape = [1] * psi.ndim
    shape[mode] = d
    return psi * factors.reshape(shape)


def apply_element(psi: np.ndarray, elem: CircuitElement, modes=None) -> np.ndarray:
    """Apply one element; ``modes`` maps the element's 1-based circuit modes
    onto tensor axes (defaults to axes 0..)."""
    if modes is None:
        modes = tuple(range(psi.ndim))
    if elem.kind == "beam_splitter":
        i, j = (modes[m - 1] for m in elem.modes)
        return apply_two_mode(psi, i, j, beam_splitter_matrix(elem.parameter))
    return apply_phase(psi, modes[elem.modes[0] - 1], elem.parameter)


def _givens_sequence(u: np.ndarray):
    """Decompose a unitary into two-mode rotations and a phase diagonal such
    that applying the rotations (last recorded first) after the diagonal
    reproduces u.  Returns (rotations, phases) with rotations as
    (row_pair, 2x2 matrix)."""
    n = u.shape[0]
    work = np.array(u, dtype=complex)
    recorded = []
    for col in range(n - 1):
        for row in range(n - 1, col, -1):
            a, b = work[row - 1, col], work[row, col]
            if abs(b) < 1e-14:
                continue
            r = np.hypot(abs(a), abs(b))
            g = np.array([[np.conj(a), np.conj(b)], [-b, a]], dtype=complex) / r
            work[[row - 1, row], :] = g @ work[[row - 1, row], :]
            recorded.append(((row - 1, row), g))
    phases = np.diag(work).copy()
    if np.abs(np.abs(phases) - 1.0).max() > 1e-9 or \
            np.abs(work - np.diag(phases)).max() > 1e-9:
        raise ToleranceError("Givens reduction did not reach a phase diagonal; "
                             "input is not unitary enough")
    return recorded, phases


def apply_passive(psi: np.ndarray, unitary, modes=None) -> np.ndarray:
    """Evolve a pure amplitude tensor through an n-mode passive unitary acting
    on the given tensor axes (0-based, defaults to all axes in order).

    The unitary is executed as a Givens sequence of exact two-mode couplings,
    so photon number is conserved exactly; overflowing the per-axis cutoff
    raises CutoffError.
    """
    u = unitary.matrix if isinstance(unitary, PassiveUnitary) else np.asarray(unitary, dtype=complex)
    n = u.shape[0]
    if modes is None:
        modes = tuple(range(n))
    if len(modes) != n:
        raise ValueError(f"unitary acts on {n} modes, got {len(modes)} axes")
    rotations, phases = _givens_sequence(u)
    out = psi
    for axis, ph in zip(modes, phases):
        out = apply_phase(out, axis, float(-np.angle(ph)))
    # G_M .. G_1 u = D, hence u = G_1+ .. G_M+ D: undo rotations in reverse.
    for (i, j), g in reversed(rotations):
        out = apply_two_mode(out, modes[i], modes[j], g.conj().T)
    return out


# ---------------------------------------------------------------------------
# Pure-loss channel via its beam-splitter dilation
# ---------------------------------------------------------------------------

def loss_kraus(d: int, tau: float) -> list[np.ndarray]:
    """Kraus operators of the pure-loss channel on a d-level mode, read off
    the vacuum-ancilla beam-splitter dilation: K_e = <e|_E B(tau) |0>_E."""
    t = _coupling_tensor(tuple(complex(x) for x in beam_splitter_matrix(tau).reshape(-1)), d)
    return [np.ascontiguousarray(t[:, e, :, 0]) for e in range(d)]


def lossy_channel(rho: BipartiteDensityOperator, tau: float, mode: str) -> BipartiteDensityOperator:
    """Pure-loss channel of transmissivity tau on mode "a" or "b"."""
    if not 0.0 <= tau <= 1.0:
        raise DomainError(f"transmissivity must lie in [0, 1], got {tau}")
    if mode not in ("a", "b"):
        raise ValueError(f"mode must be 'a' or 'b', got {mode!r}")
    d = rho.d_a if mode == "a" else rho.d_b
    tens = rho.as_tensor()
    out = np.zeros_like(tens)
    for k in loss_kraus(d, tau):
        if mode == "a":
            out += np.einsum("ai,ijkl,ck->ajcl", k, tens, k.conj())
        else:
            out += np.einsum("bj,ijkl,dl->ibkd", k, tens, k.conj())
    return BipartiteDensityOperator._adopt(rho.cutoff, out.reshape(rho.cutoff.dim, rho.cutoff.dim))


# ---------------------------------------------------------------------------
# Outcome distribution of the n-copy readout
# ---------------------------------------------------------------------------

# Outcome probabilities must sum to one, and none may be below zero, within
# _NORM_TOL.  Entries at or below _OUTCOME_FLOOR times the largest one are
# rounding noise and dropped, whatever the contraction order that made them.
_NORM_TOL = 1e-10
_OUTCOME_FLOOR = 1e-14
# Eigen-weight floor per pure component and per product of components.
_WEIGHT_FLOOR = 1e-13
# Largest readout outcome_distribution accepts, in array entries: the Gram
# entries of all kept component choices plus the sector blocks.
_READOUT_BUDGET = 1e8


class OutcomeDistribution:
    """Joint photon-number distribution on the measured output modes.

    ``probs`` is a dense array of shape (d_out_a,)*(n-1) + (d_out_b,)*(n-1):
    the axes count N_2^A, .., N_n^A, N_2^B, .., N_n^B.  The two mode-1
    outputs are marginalized out since the readout weights them with zero.
    Outcomes, as tuples of those counts, are listed in C order of the array.
    """

    def __init__(self, probs):
        probs = np.array(probs, dtype=float)
        if probs.ndim < 2 or probs.ndim % 2:
            raise ValueError(f"expected an even number (>= 2) of axes, got shape {probs.shape}")
        total = probs.sum()
        if abs(total - 1.0) > _NORM_TOL:
            raise ToleranceError(f"outcome probabilities sum to {total}, not 1")
        if probs.min() < -_NORM_TOL:
            raise ToleranceError("negative outcome probability")
        probs[probs <= _OUTCOME_FLOOR * probs.max()] = 0.0
        probs.setflags(write=False)
        self.n_copies = probs.ndim // 2 + 1
        self.probs = probs
        self._support = np.flatnonzero(probs)
        cells = np.unravel_index(self._support, probs.shape)
        self._outcomes = list(zip(*(axis.tolist() for axis in cells)))

    def probability(self, outcome) -> float:
        outcome = tuple(outcome)
        if len(outcome) != self.probs.ndim or not all(
                0 <= i < d for i, d in zip(outcome, self.probs.shape)):
            return 0.0
        return float(self.probs[outcome])

    def outcomes(self) -> list:
        return list(self._outcomes)

    def as_arrays(self):
        return self.outcomes(), self.probs.reshape(-1)[self._support]


def _readout_values(shape) -> np.ndarray:
    """Root-of-unity readout value omega_n^(sum_j (j-1) (N_j^A - N_j^B)) of
    every cell of an outcome array of the given shape."""
    m = len(shape) // 2
    grid = np.indices(shape, sparse=True)
    expo = sum((j + 1) * (grid[j] - grid[m + j]) for j in range(m))
    return np.exp(-2j * np.pi / (m + 1)) ** expo


def outcome_weights(dist: OutcomeDistribution) -> tuple[list, np.ndarray]:
    """Root-of-unity readout value per outcome:
    omega_n^(sum_j (j-1) (N_j^A - N_j^B))."""
    return dist.outcomes(), _readout_values(dist.probs.shape).reshape(-1)[dist._support]


def multicopy_expectation(dist: OutcomeDistribution) -> float:
    """Expectation of the root-of-unity readout value; equals the n-th
    PT-moment when the copies are identical.  The imaginary residue must stay
    below DEFAULT_TOL.imag and is discarded."""
    _, probs = dist.as_arrays()
    _, vals = outcome_weights(dist)
    total = complex(sum(probs * vals))
    if abs(total.imag) > DEFAULT_TOL.imag:
        raise ToleranceError(f"imaginary residue {total.imag:.3e} exceeds {DEFAULT_TOL.imag:.1e}")
    return float(total.real)


@lru_cache(maxsize=16)
def _sector_unitaries(n: int, d_out: int) -> tuple:
    """The n-mode DFT F on a (d_out,)*n grid, one photon-number sector at a
    time: for each total N = 0..d_out-1, the pair (flat C-order indices of the
    occupation tuples with total N, block Sym^N(F) on those tuples), column t
    of the block holding F|t>.

    Block N follows from block N-1 by the creation-operator recursion
    F|t> = (sum_j F_ji a_j^+) F|t - e_i> / sqrt(t_i), i the first occupied
    mode of t: exact, with no grid and no permanents.  A tuple with total
    N < d_out never reaches the grid's edge, so no amplitude is cut off."""
    f = dft(n).matrix
    occ = np.indices((d_out,) * n).reshape(n, -1).T
    totals = occ.sum(axis=1)
    strides = d_out ** np.arange(n - 1, -1, -1)
    position = np.zeros(d_out ** n, dtype=np.intp)  # row of a cell in its sector
    sectors = []
    for total in range(d_out):
        idx = np.flatnonzero(totals == total)
        position[idx] = np.arange(idx.size)
        if total == 0:
            block = np.ones((1, 1), dtype=complex)
        else:
            prev_idx, prev_block = sectors[-1]
            first = np.argmax(occ[idx] > 0, axis=1)
            # column t - e_i of block N-1, divided by sqrt(t_i)
            lowered = (prev_block[:, position[idx - strides[first]]]
                       / np.sqrt(occ[idx, first]))
            block = np.zeros((idx.size, idx.size), dtype=complex)
            for j in range(n):
                # a_j^+ takes row s of block N-1 to row s + e_j, times sqrt(s_j + 1)
                block[position[prev_idx + strides[j]]] += (
                    np.sqrt(occ[prev_idx, j] + 1.0)[:, None] * lowered * f[j, first])
        idx.setflags(write=False)
        block.setflags(write=False)
        sectors.append((idx, block))
    return tuple(sectors)


def _evolve_sectors(psi: np.ndarray, sectors) -> np.ndarray:
    """Amplitudes psi of shape (d_out^n, batch) after the DFT whose sector
    blocks are given: the sector cells are gathered once, each sector is one
    block matmul, and the result is scattered back to the grid.  Raises
    CutoffError when the sectors miss part of the norm of psi: some input
    would hold more photons than the grid carries."""
    cells = np.concatenate([idx for idx, _ in sectors])
    part = psi[cells]
    total = np.vdot(psi, psi).real
    held = np.vdot(part, part).real
    if total - held > _COUPLING_NORM_TOL * total:
        raise CutoffError(f"photon-number sectors miss {total - held:.3e} of the norm "
                          f"{total:.6g}; raise the output cutoff")
    evolved = np.empty(part.shape, dtype=complex)
    start = 0
    for idx, block in sectors:
        stop = start + idx.size
        np.matmul(block, part[start:stop], out=evolved[start:stop])
        start = stop
    out = np.zeros(psi.shape, dtype=complex)
    out[cells] = evolved
    return out


def _batched_product(factors) -> np.ndarray:
    """Product over copies of per-copy factor matrices (d_out, r_c) as one
    array of shape (d_out^n, prod r_c): rows run over the occupation grid and
    columns over the factor-column combinations, both in C order."""
    psi = np.ones((1, 1))
    for fac in factors:
        psi = np.einsum("ib,mc->imbc", psi, fac).reshape(psi.shape[0] * fac.shape[0], -1)
    return psi


def outcome_distribution(copies, n: int | None = None) -> OutcomeDistribution:
    """Exact photon-number outcome distribution of the n-copy readout.

    Each party's n modes pass through the same n-mode DFT; the joint
    distribution of output modes 2..n on both sides is returned with mode 1
    marginalized.  Copies may differ (noisy replicas); each must be a
    BipartiteDensityOperator, and one with an eigenvalue below -DEFAULT_TOL.psd (as
    only ``check_psd=False`` lets through) raises StateValidationError.

    Each copy splits into pure components, and each component into Schmidt
    branches.  For one choice of component per copy, all branch combinations
    form one batched product, which the DFT evolves photon-number sector by
    sector through cached blocks: one sector evolution per party.  The DFT
    conserves photon number and each party's output cutoff d_out holds the
    sum of its copies' photons, so the sectors carry the whole product.  The
    Givens engine, ``apply_passive``, is not called here; the tests hold the
    sector blocks to it.

    Before any evolution the cost is counted: the Gram entries of all kept
    choices, sum (prod r_c)^2 (d_out_a^(n-1) + d_out_b^(n-1)) over choices
    of Schmidt ranks r_c, plus the entries of the sector blocks.  A readout
    above _READOUT_BUDGET raises BudgetError.
    """
    copies = list(copies)
    if n is None:
        n = len(copies)
    if len(copies) != n or n < 2:
        raise ValueError(f"need n={n} copies, got {len(copies)}")
    d_out_a = sum(c.d_a - 1 for c in copies) + 1
    d_out_b = sum(c.d_b - 1 for c in copies) + 1

    comps = []
    for index, c in enumerate(copies):
        w, vecs = np.linalg.eigh(c.matrix)
        if w[0] < -DEFAULT_TOL.psd:
            raise StateValidationError(f"copy {index} has eigenvalue {w[0]:.3e} "
                                       f"< -{DEFAULT_TOL.psd:.1e}; it is not a physical state")
        comp = []
        for i in np.flatnonzero(w > _WEIGHT_FLOOR):
            # vec = sum_k s_k u_k v_k^T: v_k is row k of vh, not conjugated
            uu, ss, vh = np.linalg.svd(vecs[:, i].reshape(c.d_a, c.d_b), full_matrices=False)
            keep = ss > 1e-12
            # factors padded to the output cutoffs, once per component
            fac_a = np.pad(uu[:, keep] * ss[keep], ((0, d_out_a - c.d_a), (0, 0)))
            fac_b = np.pad(vh[keep].T, ((0, d_out_b - c.d_b), (0, 0)))
            comp.append((float(w[i]), (fac_a, fac_b)))
        comps.append(comp)

    kept = []
    for choice in product(*comps):
        weight = float(np.prod([w for w, _ in choice]))
        if weight >= _WEIGHT_FLOOR:
            kept.append((weight, [fac for _, fac in choice]))
    gram = (sum(prod(a.shape[1] for a, _ in facs) ** 2 for _, facs in kept)
            * (d_out_a ** (n - 1) + d_out_b ** (n - 1)))
    blocks = sum(comb(total + n - 1, n - 1) ** 2
                 for d_out in {d_out_a, d_out_b} for total in range(d_out))
    if gram + blocks > _READOUT_BUDGET:
        raise BudgetError(f"the {n}-copy readout needs {gram + blocks:.3g} Gram and "
                          f"sector-block entries over {len(kept)} component choices, "
                          f"above the budget of {_READOUT_BUDGET:.0e}")

    sectors = (_sector_unitaries(n, d_out_a), _sector_unitaries(n, d_out_b))
    p_rest = np.zeros((d_out_a ** (n - 1), d_out_b ** (n - 1)))
    for weight, facs in kept:
        # Gram[r, b, c] = sum over mode-1 counts m of amp_b(m, r) conj(amp_c(m, r))
        grams = []
        for side, d_out in enumerate((d_out_a, d_out_b)):
            psi = _evolve_sectors(_batched_product([fac[side] for fac in facs]), sectors[side])
            amps = psi.reshape(d_out, -1, psi.shape[-1]).transpose(1, 2, 0)
            grams.append((amps @ amps.conj().transpose(0, 2, 1)).reshape(amps.shape[0], -1))
        p_rest += weight * (grams[0] @ grams[1].T).real

    return OutcomeDistribution(p_rest.reshape((d_out_a,) * (n - 1) + (d_out_b,) * (n - 1)))
