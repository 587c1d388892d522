"""Multicopy linear-optics readout of PT-moments.

Applying the n-mode discrete Fourier transform to the n copies held by each
party and counting photons on output modes 2..n yields an outcome
distribution whose root-of-unity expectation is the n-th PT-moment.
``outcome_distribution``, the module's one passive-evolution engine, sums
the readout over the copies' pure components, evolved through that DFT one
photon-number sector at a time, or over each party's DFT Gram against the
copies' density operators, whichever order counts cheaper; it returns the
exact distribution on its support (``OutcomeDistribution``), or refuses a
readout that both orders count over a fixed budget with BudgetError.
``value_law`` gives the law of the readout value alone, from cycle traces
of the copies' partial transposes, with no evolution.  The pure-loss
channel, ``lossy_channel``, sums its closed-form Kraus operators into the mode's
superoperator and applies that in one product.

Mode-operator convention: a unitary U acts as a_j -> sum_k U_jk a_k, so a
single photon in mode j scatters into column j of U.

Both parties run the same DFT here.  An equivalent scheme would have the
second party run the inverse interferometer and read the uninverted phase
weights; only the same-DFT variant is implemented.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import reduce, wraps
from itertools import accumulate, groupby, product
from math import comb, gcd, prod, sqrt

import numpy as np

from .errors import BudgetError, DomainError, StateValidationError, ToleranceError, _require_finite
from .fock import DEFAULT_TOL, BipartiteDensityOperator, _nonzero

__all__ = [
    "OutcomeDistribution",
    "dft",
    "loss_kraus",
    "lossy_channel",
    "outcome_distribution",
    "multicopy_expectation",
    "value_law",
    "moment_law",
    "cycle_traces",
    "class_values",
]


def dft(n: int) -> np.ndarray:
    """Read-only n x n discrete Fourier transform on the mode annihilation
    operators, with entries omega^(jk)/sqrt(n), omega = exp(-2 pi i / n)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    q = np.arange(n)
    u = class_values(np.outer(q, q), n) / np.sqrt(n)
    u.setflags(write=False)
    return u


# ---------------------------------------------------------------------------
# Pure-loss channel
# ---------------------------------------------------------------------------

def loss_kraus(d: int, tau: float) -> np.ndarray:
    """Kraus operators of the pure-loss channel on a d-level mode, stacked
    along the first axis over e = 0..d-1 photons lost:
    K_e = sum_m sqrt(C(m, e) tau^(m-e) (1-tau)^e) |m-e><m|."""
    if not 0.0 <= tau <= 1.0:
        raise DomainError(f"transmissivity must lie in [0, 1], got {tau}")
    k = np.zeros((d, d, d), dtype=complex)
    for m in range(d):
        for e in range(m + 1):
            k[e, m - e, m] = sqrt(comb(m, e) * tau ** (m - e) * (1.0 - tau) ** e)
    return k


def lossy_channel(rho: BipartiteDensityOperator, tau: float, mode: str) -> BipartiteDensityOperator:
    """Pure-loss channel of transmissivity tau on mode "a" or "b"."""
    if mode not in ("a", "b"):
        raise ValueError(f"mode must be 'a' or 'b', got {mode!r}")
    k = loss_kraus(rho.d_a if mode == "a" else rho.d_b, tau)
    # the mode's superoperator S[a, i, c, k] = sum_e K_e[a, i] conj(K_e[c, k]), then rho's (i, k)
    s = np.tensordot(k, k.conj(), (0, 0))
    axes, order = ((0, 2), (0, 2, 1, 3)) if mode == "a" else ((1, 3), (2, 0, 3, 1))
    out = np.tensordot(s, rho.as_tensor(), ((1, 3), axes)).transpose(order)
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
# Largest readout outcome_distribution accepts, in counted units: the Gram
# entries of the evolved component choices, the output cells, the sector-block
# entries and the multiply-adds of the Gram products.
_READOUT_BUDGET = 1e8
# Array entries the Grams and amplitudes of one chunk of component choices may
# hold; a larger single choice runs alone.
_CHUNK_ENTRIES = 2 ** 18
# Bytes the cached party plans may keep resident.
_CACHE_BYTES = 32 * 2 ** 20


class OutcomeDistribution:
    """Joint photon-number distribution on the measured output modes, stored
    on its support.

    Row i of ``cells`` is an outcome, the counts (N_2^A, .., N_n^A, N_2^B,
    .., N_n^B), and ``probs[i]`` its probability; the two mode-1 outputs are
    marginalized out since the readout weights them with zero.  The rows
    must be distinct and in lexicographic order, which is C order of any
    grid that holds them.  Listed entries at or below 1e-14 of the largest
    are rounding noise and dropped; the rest are the support, which the
    read-only ``cells`` and ``probs`` hold and ``outcomes`` lists as tuples
    in the same order.  An outcome off the support has probability zero.
    """

    def __init__(self, cells, probs):
        cells = np.array(cells, dtype=np.intp)
        probs = np.array(probs, dtype=float)
        if cells.ndim != 2 or cells.shape[1] < 2 or cells.shape[1] % 2 \
                or probs.shape != cells.shape[:1]:
            raise ValueError(f"expected cells of shape (k, 2m) and k probabilities, got "
                             f"shapes {cells.shape} and {probs.shape}")
        step = np.diff(cells, axis=0)
        if np.any(step[np.arange(step.shape[0]), np.argmax(step != 0, axis=1)] <= 0):
            raise ValueError("outcome cells must be distinct and in lexicographic order")
        total = probs.sum()
        if not abs(total - 1.0) <= _NORM_TOL:  # NaN fails too
            raise ToleranceError(f"outcome probabilities sum to {total}, not 1")
        if probs.min() < -_NORM_TOL:
            raise ToleranceError("negative outcome probability")
        keep = probs > _OUTCOME_FLOOR * probs.max()
        self.n_copies = cells.shape[1] // 2 + 1
        self._cells, self._probs = cells[keep], probs[keep]
        for arr in (self._cells, self._probs):
            arr.setflags(write=False)

    def probability(self, outcome) -> float:
        outcome = np.asarray(outcome)
        if outcome.shape != self._cells.shape[1:]:
            return 0.0
        # the rows are distinct, so at most one matches
        return float(self._probs[(self._cells == outcome).all(axis=1)].sum())

    def outcomes(self) -> list:
        return list(map(tuple, self._cells.tolist()))

    def as_arrays(self):
        return self.outcomes(), self._probs

    @property
    def cells(self) -> np.ndarray:
        return self._cells

    @property
    def probs(self) -> np.ndarray:
        return self._probs

    def _classes(self) -> np.ndarray:
        """sum_j (j-1) (N_j^A - N_j^B) of each row of ``cells``."""
        weights = np.arange(1, self.n_copies)
        return self._cells @ np.concatenate([weights, -weights])

    @property
    def values(self) -> np.ndarray:
        """Root-of-unity readout value omega_n^(sum_j (j-1) (N_j^A - N_j^B))
        of each row of ``cells``."""
        return class_values(self._classes(), self.n_copies)

    def value_law(self) -> np.ndarray:
        """The probabilities summed by value class, as ``value_law`` gives them."""
        n = self.n_copies
        return np.bincount(self._classes() % n, weights=self._probs, minlength=n)


def class_values(classes, n: int) -> np.ndarray:
    """Readout value omega_n^m of each integer value class m."""
    return np.exp(-2j * np.pi / n) ** np.asarray(classes)


def multicopy_expectation(dist: OutcomeDistribution) -> float:
    """Expectation of the root-of-unity readout value; equals the n-th
    PT-moment when the copies are identical.  The imaginary residue must stay
    below DEFAULT_TOL.imag and is discarded."""
    total = complex(sum(dist.probs * dist.values))
    if abs(total.imag) > DEFAULT_TOL.imag:
        raise ToleranceError(f"imaginary residue {total.imag:.3e} exceeds {DEFAULT_TOL.imag:.1e}")
    return float(total.real)


def moment_law(moments) -> np.ndarray:
    """``value_law`` of n = len(moments) identical copies from their
    PT-moments p_1 .. p_n: c -> c+q has g = gcd(q, n) cycles of length n/g,
    so t_q = p_(n/g)^g."""
    n = len(moments)
    return _law([moments[n // gcd(q, n) - 1] ** gcd(q, n) for q in range(n)])


def value_law(copies) -> np.ndarray:
    """Probabilities of the n-copy readout's value classes, with no
    evolution: class m is the value omega_n^m, taken by the outcomes with
    sum_j (j-1) (N_j^A - N_j^B) = m mod n.  The counts read out the
    eigenvalue of the cyclic shift of the copies (Carteret, PRL 94, 040502
    (2005); Gray et al., PRL 121, 150503 (2018)), so
    P(m) = (1/n) sum_q exp(-2 pi i q m / n) t_q with the cycle traces t_q of
    ``cycle_traces``.  A class below -1e-10 (an unphysical copy) raises
    ToleranceError."""
    copies = list(copies)
    if len(copies) < 2:
        raise ValueError(f"need at least 2 copies, got {len(copies)}")
    return _law(cycle_traces(copies))


def cycle_traces(copies) -> list:
    """``_cycle_traces`` of the copies' partial transposes, zero-padded to their largest cutoffs."""
    d_a, d_b = max(c.d_a for c in copies), max(c.d_b for c in copies)
    return _cycle_traces([np.pad(c.as_tensor().transpose(0, 3, 2, 1),
                                 [(0, d_a - c.d_a), (0, d_b - c.d_b)] * 2).reshape(d_a * d_b, -1)
                          for c in copies])


def _cycle_traces(mats) -> list:
    """t_q, q = 0..n-1: over the cycles of c -> c+q (mod n), the product of Tr(G_c G_(c+q) ...)
    along the cycle (not reversed), for arrays G_c = mats[c] (..., D, D), leading axes broadcast."""
    n = len(mats)
    cycle = lambda start, q: [mats[(start + i * q) % n] for i in range(n // gcd(q, n))]
    return [prod(np.trace(reduce(np.matmul, cycle(start, q)), axis1=-2, axis2=-1)
                 for start in range(gcd(q, n))) for q in range(n)]


def _law(traces) -> np.ndarray:
    """P(m) = (1/n) sum_q exp(-2 pi i q m / n) t_q, clipped at zero; a class
    below -_NORM_TOL raises ToleranceError, a non-finite trace DomainError."""
    n, q, traces = len(traces), np.arange(len(traces)), np.asarray(traces)
    _require_finite(traces=traces)
    law = (np.exp(-2j * np.pi / n * (np.outer(q, q) % n)) @ traces).real / n
    if law.min() < -_NORM_TOL:
        raise ToleranceError(f"readout class probability {law.min():.3e} is negative")
    return np.maximum(law, 0.0)


def _simplex(n: int, d: int) -> np.ndarray:
    """Occupation tuples of n modes with total below d, one per row, in
    lexicographic order."""
    cells = np.zeros((1, 0), dtype=np.intp)
    for _ in range(n):
        room = d - cells.sum(axis=1)
        cells = np.concatenate([np.insert(cells[room > lead], 0, lead, axis=1)
                                for lead in range(d)])
    return cells


def _nbytes(value) -> int:
    """Bytes of the arrays in a value built of tuples, lists and arrays."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    return sum(map(_nbytes, value)) if isinstance(value, (tuple, list)) else 0


# One least-recently-used store for the party plans: key -> (value, bytes).
_cache: OrderedDict = OrderedDict()


def _cached(build):
    """Memoize ``build`` in the module's store, which drops its least recently
    used values while they hold more than _CACHE_BYTES; a value larger than
    that is returned but not kept."""
    @wraps(build)
    def cached(*args):
        key = (build.__name__, *args)
        entry = _cache.pop(key, None)
        if entry is None:
            value = build(*args)
            entry = (value, _nbytes(value))
        _cache[key] = entry
        while _cached_bytes() > _CACHE_BYTES:
            _cache.popitem(last=False)
        return entry[0]
    cached.cache_clear = _cache.clear
    return cached


def _cached_bytes() -> int:
    return sum(size for _, size in _cache.values())


def _sector_blocks(f: np.ndarray, d_out: int, cols: np.ndarray) -> tuple:
    """The n-mode unitary F one photon-number sector at a time, on the
    columns ``cols``: occupation tuples, one per row in lexicographic order,
    with totals below d_out, that hold t - e_i whenever they hold t.  For
    each total N = 0..d_out-1 the pair (all occupation tuples with total N
    in lexicographic order, the block of Sym^N(F) with those rows and one
    column F|t> per tuple t of ``cols`` with total N, in their order).

    Column t follows from column t - e_i of sector N-1 by the
    creation-operator recursion F|t> = (sum_j F_ji a_j^+) F|t - e_i> /
    sqrt(t_i), i the mode with the most photons in t, the first of them on
    a tie: exact, with no grid and no permanents, and unitary to 1e-10
    below 120 photons at n=2.  A tuple is found in its sector by its digits
    in base d_out, which increase in lexicographic order."""
    n = f.shape[0]
    strides = d_out ** np.arange(n - 1, -1, -1)
    cells = _simplex(n, d_out)
    totals = cells.sum(axis=1)
    col_totals, col_keys = cols.sum(axis=1), cols @ strides
    sectors = []
    for total in range(d_out):
        occ = cells[totals == total]
        keys = occ @ strides
        t = cols[col_totals == total]
        if total == 0:
            block = np.ones((1, t.shape[0]), dtype=complex)
        else:
            prev_occ, prev_block = sectors[-1]
            prev_keys = prev_occ @ strides
            pivot = np.argmax(t, axis=1)
            # column t - e_i of sector N-1, divided by sqrt(t_i)
            found = np.searchsorted(col_keys[col_totals == total - 1],
                                    col_keys[col_totals == total] - strides[pivot])
            lowered = prev_block[:, found] / np.sqrt(t[np.arange(t.shape[0]), pivot])
            block = np.zeros((occ.shape[0], t.shape[0]), dtype=complex)
            for j in range(n):
                # a_j^+ takes row s of sector N-1 to row s + e_j, times sqrt(s_j + 1)
                block[np.searchsorted(keys, prev_keys + strides[j])] += (
                    np.sqrt(prev_occ[:, j] + 1.0)[:, None] * lowered * f[j, pivot])
        sectors.append((occ, block))
    return tuple(sectors)


def _trimmed(rho: BipartiteDensityOperator) -> tuple[np.ndarray, int, int]:
    """The density matrix of rho without its trailing Fock levels whose rows
    and columns are exactly zero, on either mode, and the kept cutoffs."""
    nonzero = _nonzero(rho.matrix).reshape(rho.as_tensor().shape)
    d_a = 1 + np.flatnonzero(nonzero.any(axis=(1, 2, 3)) | nonzero.any(axis=(0, 1, 3)))[-1]
    d_b = 1 + np.flatnonzero(nonzero.any(axis=(0, 2, 3)) | nonzero.any(axis=(0, 1, 2)))[-1]
    kept = rho.as_tensor()[:d_a, :d_b, :d_a, :d_b].reshape(d_a * d_b, d_a * d_b)
    return kept, int(d_a), int(d_b)


@_cached
def _party_plan(dims) -> tuple:
    """How one party's copies, of cutoffs ``dims``, pass through the DFT.

    Returns (d_out, rest cells, sectors).  d_out = 1 + sum(dims - 1) bounds
    the photons the copies carry.  The rest cells are the counts of modes
    2..n with total below d_out, in lexicographic order.  Per photon-number
    sector there is a triple: the rows of the copies' product box (C order
    over dims) in that sector, the sector block whose columns are those box
    cells, and the row of the (rest cell, mode-1 count) buffer that each
    block row fills.  This is the engine's one block builder, and no block
    it builds is wider than its sector's box cells."""
    n = len(dims)
    d_out = sum(dims) - n + 1
    box = np.indices(dims).reshape(n, -1).T
    box_totals = box.sum(axis=1)
    rest = _simplex(n - 1, d_out)
    rest_strides = d_out ** np.arange(n - 2, -1, -1)
    rest_keys = rest @ rest_strides
    sectors = []
    for total, (occ, block) in enumerate(_sector_blocks(dft(n), d_out, box)):
        found = np.searchsorted(rest_keys, occ[:, 1:] @ rest_strides)
        sectors.append((np.flatnonzero(box_totals == total), block, found * d_out + occ[:, 0]))
    return d_out, rest, sectors


def _evolve_sectors(psi: np.ndarray, plan) -> np.ndarray:
    """Product-box amplitudes psi of shape (box cells, batch) after the DFT,
    as an array (rest cells, mode-1 count, batch) of the party's plan that is
    zero where the mode-1 count would bring the total to d_out or more.
    Each sector is one matmul of the block columns the box reaches."""
    d_out, rest, sectors = plan
    out = np.zeros((rest.shape[0] * d_out, psi.shape[1]), dtype=complex)
    for rows, block, targets in sectors:
        out[targets] = block @ psi[rows]
    return out.reshape(rest.shape[0], d_out, psi.shape[1])


def _grams(amps: np.ndarray, width: int, conjugate: bool) -> np.ndarray:
    """Gram[r, k, b, c] = sum over mode-1 counts m of amp_kb(r, m)
    conj(amp_kc(r, m)) for the choices k of width ``width`` stacked in the
    amplitudes (rest cells, mode-1 count, choices * width), as an array
    (rest cells, choices * width^2); complex-conjugated if ``conjugate``."""
    a = amps.reshape(amps.shape[0], amps.shape[1], -1, width).transpose(0, 2, 3, 1)
    left, right = (a.conj(), a) if conjugate else (a, a.conj())
    return (left @ right.swapaxes(-1, -2)).reshape(amps.shape[0], -1)


def _box_counts(dims) -> list:
    """Cells of the product box over the cutoffs ``dims`` with each photon
    total, from total 0 up, as Python ints."""
    counts = [1]
    for d in dims:
        prefix = list(accumulate(counts, initial=0))
        counts = [prefix[min(total + 1, len(counts))] - prefix[max(total - d + 1, 0)]
                  for total in range(len(counts) + d - 1)]
    return counts


def _block_entries(side) -> int:
    """Sector-block entries of the party plan for the cutoffs ``side``."""
    return sum(comb(total + len(side) - 1, len(side) - 1) * cells
               for total, cells in enumerate(_box_counts(side)))


def _readout_cost(dims, widths) -> tuple[int, int]:
    """Array entries and multiply-adds of a readout of copies with trimmed
    cutoffs ``dims`` (one tuple per party) whose evolved component choices
    have batch widths ``widths``: the entries are the Grams of those choices,
    sum B^2 (rest_a + rest_b), the rest_a rest_b output cells and the sector
    blocks, sum over totals N of C(N+n-1, n-1) rows times the box cells of
    total N, once per distinct plan; the multiply-adds are those of the Gram
    products, sum B^2 rest_a rest_b."""
    n = len(dims[0])
    d_outs = [sum(side) - n + 1 for side in dims]
    rest_a, rest_b = (comb(d_out + n - 2, n - 1) for d_out in d_outs)
    squares = sum(width ** 2 for width in widths)
    blocks = sum(map(_block_entries, set(dims)))
    return squares * (rest_a + rest_b) + rest_a * rest_b + blocks, squares * rest_a * rest_b


def _operator_cost(dims) -> tuple[int, int]:
    """Array entries and multiply-adds of ``_operator_order`` on copies with
    trimmed cutoffs ``dims``: per party the DFT and its box Gram, rest box
    (d_out + box) entries and rest d_out box^2 multiply-adds; per copy c the
    array it leaves, times d_(a,c)^2; the output cells, times box_b^2."""
    parties = [(comb(sum(side) - 1, len(side) - 1), sum(side) - len(side) + 1, prod(side))
               for side in dims]
    (rest_a, _, box_a), (rest_b, _, box_b) = parties
    entries = rest_a * rest_b + sum(rest * box * (d_out + box) for rest, d_out, box in parties)
    madds = rest_a * rest_b * box_b ** 2 + sum(rest * d * box ** 2 for rest, d, box in parties)
    size = rest_a * box_a ** 2
    for d_a, d_b in zip(*dims):
        size, madds = size // d_a ** 2 * d_b ** 2, madds + size * d_b ** 2
        entries += size
    return entries, madds


def _batched_product(factors) -> np.ndarray:
    """Product over copies of per-copy factor matrices (d_c, r_c) as one
    array of shape (prod d_c, prod r_c): rows run over the box of occupation
    tuples and columns over the factor-column combinations, both in C
    order."""
    psi = factors[0]
    for fac in factors[1:]:
        psi = (psi[:, None, :, None] * fac[None, :, None, :]).reshape(
            psi.shape[0] * fac.shape[0], -1)
    return psi


def _components(rho: BipartiteDensityOperator, index: int) -> tuple[list, np.ndarray, int, int]:
    """Pure components of copy ``index`` after trimming, as (eigen-weight,
    (A factor, B factor)) with the Schmidt decomposition of the component
    split into the factors, the trimmed tensor and the trimmed cutoffs."""
    mat, d_a, d_b = _trimmed(rho)
    w, vecs = np.linalg.eigh(mat)
    if w[0] < -DEFAULT_TOL.psd:
        raise StateValidationError(f"copy {index} has eigenvalue {w[0]:.3e} "
                                   f"< -{DEFAULT_TOL.psd:.1e}; it is not a physical state")
    comp = []
    for i in np.flatnonzero(w > _WEIGHT_FLOOR):
        # vec = sum_k s_k u_k v_k^T: v_k is row k of vh, not conjugated
        uu, ss, vh = np.linalg.svd(vecs[:, i].reshape(d_a, d_b), full_matrices=False)
        keep = ss > 1e-12
        comp.append((float(w[i]), (uu[:, keep] * ss[keep], vh[keep].T)))
    return comp, mat.reshape(d_a, d_b, d_a, d_b), d_a, d_b


def _component_order(kept, plans) -> np.ndarray:
    """Probabilities (rest_a, rest_b) of the kept (weight, factors, batch
    width) component choices: those of one width are evolved together, in
    chunks of at most _CHUNK_ENTRIES Gram and amplitude entries."""
    rest_a, rest_b = (plan[1].shape[0] for plan in plans)
    p_rest = np.zeros((rest_a, rest_b))
    for width, group in groupby(sorted(kept, key=lambda c: c[2]), key=lambda c: c[2]):
        group = list(group)
        step = max(1, _CHUNK_ENTRIES // (width * (width * (rest_a + rest_b) + sum(
            plan[0] * plan[1].shape[0] for plan in plans))))
        for chunk in (group[i:i + step] for i in range(0, len(group), step)):
            grams = []
            for side, plan in enumerate(plans):
                psi = np.concatenate([_batched_product([fac[side] for fac in facs])
                                      for _, facs, _ in chunk], axis=1)
                if side == 0:  # weight each choice through its A amplitudes
                    psi *= np.repeat(np.sqrt([weight for weight, _, _ in chunk]), width)
                # B's Gram conjugated: the real dot product of the (re, im)
                # pairs of the two Grams is then Re sum_bc GA GB
                grams.append(_grams(_evolve_sectors(psi, plan), width, side == 1))
            p_rest += grams[0].view(float) @ grams[1].view(float).T
    return p_rest


def _box_gram(plan, dims) -> np.ndarray:
    """M[r, I, I'] = sum_m F[r, m, I] conj F[r, m, I'] over the mode-1 counts m of the party's
    DFT F on its box of cutoffs ``dims``, as (rest cells, *dims, *dims)."""
    d_out, rest, sectors = plan
    f = np.zeros((rest.shape[0], d_out, prod(dims)), dtype=complex)
    for rows, block, targets in sectors:  # block row s fills (rest cell, count) targets[s]
        f.reshape(-1, f.shape[2])[targets[:, None], rows] = block
    return (f.swapaxes(1, 2) @ f.conj()).reshape(-1, *dims, *dims)


def _operator_order(tensors, plans) -> np.ndarray:
    """Probabilities (rest_a, rest_b) from the copies' trimmed tensors
    rho_c[i, j, i', j']: MA takes each (i_c, i_c') to (j_c, j_c'), which join
    its axes last, then meets MB, which is MA when the parties share a plan."""
    n = len(tensors)
    t = ma = _box_gram(plans[0], [rho.shape[0] for rho in tensors])
    for c, rho in enumerate(tensors):
        t = np.tensordot(t, rho, axes=([1, n - c + 1], [0, 2]))
    mb = ma if plans[1] is plans[0] else _box_gram(plans[1], [rho.shape[1] for rho in tensors])
    return np.tensordot(t, mb, axes=([*range(1, 2 * n, 2), *range(2, 2 * n + 1, 2)],
                                     [*range(1, 2 * n + 1)])).real


def outcome_distribution(copies, n: int | None = None) -> OutcomeDistribution:
    """Exact photon-number outcome distribution of the n-copy readout.

    Each party's n modes pass through the same n-mode DFT; the joint
    distribution of output modes 2..n on both sides is returned with mode 1
    marginalized.  Copies may differ (noisy replicas); each must be a
    BipartiteDensityOperator, and one with an eigenvalue below -DEFAULT_TOL.psd (as
    only ``check_psd=False`` lets through) raises StateValidationError.

    Each copy first loses its trailing Fock levels whose rows and columns
    are exactly zero, per mode (the guard level of the NOON constructor,
    say); this is exact.  A party's output cutoff d_out is one plus the sum
    of its copies' trimmed cutoffs minus one each, which bounds the photons
    it carries; amplitudes, Grams and probabilities are held only on the
    cells with total below d_out.  With MA[r] the Gram over the mode-1 count
    of party A's DFT on its box of trimmed input cells (``_box_gram``) and MB
    that of B, P(r_a, r_b) = sum MA[r_a]_(I, I') MB[r_b]_(J, J')
    (prod_c rho_c)_(IJ, I'J'), summed in one of two orders.
    ``_operator_order`` contracts the copies' trimmed density matrices into
    MA one at a time, then meets MB.  ``_component_order`` sums over choices
    of one pure component per copy, each split into Schmidt branches and
    evolved sector by sector through the cached blocks of the party plans.
    A cyclic shift c -> c+q of the copies changes only the output phases,
    so if every copy c is the same object as copy c+q, only the least
    rotation by such shifts of each choice of component indices is evolved,
    its weight times its orbit size; distinct objects are never merged.

    Before anything is evolved both orders are counted in array entries plus
    multiply-adds: the component order by ``_readout_cost`` of its evolved
    choices plus their evolutions, sum B times the sector-block entries of
    both plans (B = prod r_c, the batch width of a choice of Schmidt ranks
    r_c), the operator order by ``_operator_cost``.  The cheaper order runs,
    the component one on a tie; the operator order drops no eigen-weight,
    the component order none above its floors.  A readout that both orders
    count above _READOUT_BUDGET raises BudgetError, which names both counts.
    """
    copies = list(copies)
    if n is None:
        n = len(copies)
    if len(copies) != n or n < 2:
        raise ValueError(f"need n={n} copies, got {len(copies)}")

    # a copy passed more than once is decomposed once
    decomposed = {}
    for index, c in enumerate(copies):
        if id(c) not in decomposed:
            decomposed[id(c)] = _components(c, index)
    comps, tensors, *dims = zip(*(decomposed[id(c)] for c in copies))

    # one choice per orbit of the cyclic shifts that map each copy onto itself
    shifts = [q for q in range(n) if all(c is copies[(i + q) % n] for i, c in enumerate(copies))]
    kept = []
    for index in product(*(range(len(comp)) for comp in comps)):
        choice = [comp[k] for comp, k in zip(comps, index)]
        weight = prod(w for w, _ in choice)
        orbit = {index[q:] + index[:q] for q in shifts}
        if weight >= _WEIGHT_FLOOR and index == min(orbit):
            facs = [fac for _, fac in choice]
            kept.append((weight * len(orbit), facs, prod(a.shape[1] for a, _ in facs)))
    widths = [width for _, _, width in kept]
    entries, madds = _readout_cost(dims, widths)
    component = entries + madds + sum(widths) * sum(map(_block_entries, dims))
    operator = sum(_operator_cost(dims))
    if min(component, operator) > _READOUT_BUDGET:
        raise BudgetError(f"the {n}-copy readout needs {entries:.3g} Gram, output and "
                          f"sector-block entries and {madds:.3g} Gram multiply-adds over "
                          f"{len(kept)} component choices, {component:.3g} units with their "
                          f"evolutions, or {operator:.3g} units as density operators, both "
                          f"above the budget of {_READOUT_BUDGET:.0e}")

    plans = [_party_plan(side) for side in dims]
    p_rest = (_operator_order(tensors, plans) if operator < component
              else _component_order(kept, plans))
    cells_a, cells_b = (plan[1] for plan in plans)
    cells = np.concatenate((np.repeat(cells_a, cells_b.shape[0], axis=0),
                            np.tile(cells_b, (cells_a.shape[0], 1))), axis=1)
    return OutcomeDistribution(cells, p_rest.reshape(-1))
