import functools
import math
import re
import tracemalloc
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptmoments import circuits, noon_tables
from ptmoments.circuits import (
    OutcomeDistribution,
    dft,
    loss_kraus,
    lossy_channel,
    multicopy_expectation,
    outcome_distribution,
)
from ptmoments.errors import (
    BudgetError,
    DomainError,
    StateValidationError,
    ToleranceError,
)
from ptmoments.fock import (BipartiteDensityOperator, ModeCutoff, partial_transpose, pt_moment,
                            pt_moments)
from ptmoments.states import (
    CatParams,
    LossyNOONParams,
    NOONParams,
    cat_density,
    lossy_noon_density,
    qutrit_state,
)

from conftest import random_density

BAL = 1 / math.sqrt(2)
BS50 = np.array([[BAL, BAL], [BAL, -BAL]])  # the balanced beam splitter


def random_unitary(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def permanent(m):
    return sum(math.prod(m[i, p[i]] for i in range(len(m)))
               for p in permutations(range(len(m))))


def fock_amplitude(u, s, t):
    """<s|U|t> = perm(U[s,t]) / sqrt(prod s! prod t!), U[s,t] holding row i
    of U s_i times and column j t_j times: the reference for the passive
    evolution of Fock states."""
    if sum(s) != sum(t):
        return 0.0
    sub = u[np.ix_(np.repeat(np.arange(len(s)), s), np.repeat(np.arange(len(t)), t))]
    norm = math.prod(map(math.factorial, s)) * math.prod(map(math.factorial, t))
    return permanent(sub) / math.sqrt(norm)


def sector_blocks(u, d):
    """The sector blocks of u below d photons on every column of the simplex."""
    return circuits._sector_blocks(u, d, circuits._simplex(len(u), d))


def block_amplitude(sectors, s, t):
    """<s|U|t> read off the sector blocks of U."""
    if sum(s) != sum(t):
        return 0.0
    occ, block = sectors[sum(t)]
    index = {cell: i for i, cell in enumerate(map(tuple, occ.tolist()))}
    return block[index[tuple(s)], index[tuple(t)]]


class TestDft:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_unitarity(self, n):
        u = dft(n)
        assert isinstance(u, np.ndarray) and u.shape == (n, n) and u.dtype == complex
        assert not u.flags.writeable
        assert np.abs(u.conj().T @ u - np.eye(n)).max() < 1e-12

    def test_two_mode_is_balanced_beam_splitter(self):
        np.testing.assert_allclose(dft(2), BS50, atol=1e-15)

    def test_three_mode_entries(self):
        w = np.exp(-2j * np.pi / 3)
        expect = np.array([[1, 1, 1], [1, w, w.conjugate()], [1, w.conjugate(), w]]) / np.sqrt(3)
        np.testing.assert_allclose(dft(3), expect, atol=1e-15)


class TestFockEvolution:
    """Fock-state evolution through the sector blocks Sym^N(U)."""

    def test_single_photon_splits_evenly(self):
        sectors = sector_blocks(BS50, 2)
        assert abs(block_amplitude(sectors, (1, 0), (1, 0))) ** 2 == pytest.approx(0.5)
        assert abs(block_amplitude(sectors, (0, 1), (1, 0))) ** 2 == pytest.approx(0.5)

    def test_hong_ou_mandel(self):
        sectors = sector_blocks(dft(2), 3)
        assert abs(block_amplitude(sectors, (1, 1), (1, 1))) < 1e-15
        assert abs(block_amplitude(sectors, (2, 0), (1, 1))) ** 2 == pytest.approx(0.5)
        assert abs(block_amplitude(sectors, (0, 2), (1, 1))) ** 2 == pytest.approx(0.5)

    def test_vacuum_fixed(self):
        occ, block = sector_blocks(dft(3), 3)[0]
        np.testing.assert_array_equal(occ, [[0, 0, 0]])
        np.testing.assert_array_equal(block, [[1.0]])

    def test_phase_counts_photons(self):
        sectors = sector_blocks(np.diag([np.exp(-0.4j), 1.0]), 4)
        assert block_amplitude(sectors, (3, 0), (3, 0)) == pytest.approx(np.exp(-1.2j))

    def test_single_photon_amplitudes_follow_columns(self, rng):
        # the one-photon block is U itself, rows and columns listed by mode:
        # a photon in mode j scatters into column j
        u = random_unitary(rng, 4)
        occ, block = sector_blocks(u, 2)[1]
        modes = np.argmax(occ, axis=1)
        np.testing.assert_allclose(block, u[np.ix_(modes, modes)], atol=1e-15)

    def test_passive_matches_element_sequence(self, rng):
        # Sym^N is a homomorphism: the blocks of a sequence of elements,
        # multiplied in application order, are the blocks of their product
        elements = [random_unitary(rng, 3) for _ in range(3)] + [dft(3)]
        per_element = [sector_blocks(u, 4) for u in elements]
        total_u = elements[3] @ elements[2] @ elements[1] @ elements[0]
        for total, (occ, block) in enumerate(sector_blocks(total_u, 4)):
            product = np.eye(len(occ))
            for sectors in per_element:
                product = sectors[total][1] @ product
            np.testing.assert_allclose(product, block, atol=1e-12)

    def test_photon_number_conserved(self, rng):
        for occ, block in sector_blocks(random_unitary(rng, 3), 4):
            v = rng.standard_normal(len(occ)) + 1j * rng.standard_normal(len(occ))
            assert np.linalg.norm(block @ v) == pytest.approx(np.linalg.norm(v), abs=1e-12)

    def test_passive_on_axis_subset(self, rng):
        # the 3-mode embedding of u on modes (0, 2) leaves mode 1 empty and
        # acts on the other two as u
        u = random_unitary(rng, 2)
        embedded = np.eye(3, dtype=complex)
        embedded[np.ix_([0, 2], [0, 2])] = u
        small = sector_blocks(u, 3)
        large = sector_blocks(embedded, 3)
        for occ, _ in small:
            for s in occ.tolist():
                for t in occ.tolist():
                    assert block_amplitude(large, (s[0], 0, s[1]), (t[0], 0, t[1])) == \
                        pytest.approx(block_amplitude(small, s, t), abs=1e-14)
        for occ, block in large:
            assert np.abs(block[np.ix_(occ[:, 1] > 0, occ[:, 1] == 0)]).max(initial=0.0) < 1e-15


class TestLossyChannel:
    def test_identity_at_full_transmission(self, rng):
        rho = BipartiteDensityOperator(ModeCutoff(3, 3), random_density(rng, 9))
        out = lossy_channel(rho, 1.0, "a")
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-12)

    def test_vacuum_at_zero_transmission(self, rng):
        rho = BipartiteDensityOperator(ModeCutoff(3, 2), random_density(rng, 6))
        out = lossy_channel(lossy_channel(rho, 0.0, "a"), 0.0, "b")
        expect = np.zeros((6, 6), dtype=complex)
        expect[0, 0] = 1.0
        np.testing.assert_allclose(out.matrix, expect, atol=1e-12)

    def test_single_photon_mixture(self):
        rho = lossy_noon_density(LossyNOONParams(NOONParams(1, 1.0, 0.0), 1.0, 1.0),
                                 ModeCutoff(2, 2))
        out = lossy_channel(rho, 0.7, "a")
        expect = np.diag([0.3, 0.0, 0.7, 0.0]).astype(complex)
        np.testing.assert_allclose(out.matrix, expect, atol=1e-12)

    def test_trace_preserved(self, rng):
        rho = BipartiteDensityOperator(ModeCutoff(4, 3), random_density(rng, 12))
        for tau in (0.0, 0.3, 0.8, 1.0):
            out = lossy_channel(rho, tau, "b")
            assert np.trace(out.matrix).real == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("tau", [0.0, 0.3, 0.8, 1.0])
    def test_kraus_operators_are_complete(self, tau):
        for d in range(1, 11):
            total = sum(k.conj().T @ k for k in loss_kraus(d, tau))
            np.testing.assert_allclose(total, np.eye(d), atol=1e-14)

    def test_composition_law(self, rng):
        rho = BipartiteDensityOperator(ModeCutoff(4, 2), random_density(rng, 8))
        one = lossy_channel(lossy_channel(rho, 0.8, "a"), 0.5, "a")
        two = lossy_channel(rho, 0.4, "a")
        np.testing.assert_allclose(one.matrix, two.matrix, atol=1e-10)

    def test_reproduces_lossy_noon_family(self):
        p = LossyNOONParams(NOONParams(2, 0.6, 0.8), 0.75, 0.45)
        rho = lossy_noon_density(LossyNOONParams(p.noon, 1.0, 1.0))
        lossy = lossy_channel(lossy_channel(rho, p.tau_a, "a"), p.tau_b, "b")
        np.testing.assert_allclose(lossy.matrix, lossy_noon_density(p, rho.cutoff).matrix,
                                   atol=1e-12)

    def test_rejects_bad_tau(self, rng):
        rho = BipartiteDensityOperator(ModeCutoff(2, 2), random_density(rng, 4))
        with pytest.raises(DomainError):
            lossy_channel(rho, 1.5, "a")


class TestSectorUnitaries:
    @pytest.mark.parametrize("unitary", ["dft", "random"])
    @pytest.mark.parametrize("n, d", [(2, 3), (2, 5), (3, 3), (3, 5)])
    def test_blocks_equal_passive_evolution_of_every_sector_state(self, n, d, unitary, rng):
        # F_n is symmetric; only a non-symmetric U tells U from its transpose
        if unitary == "dft":
            u = dft(n)
        else:
            u = random_unitary(rng, n)
            assert np.abs(u - u.T).max() > 0.1
        sectors = sector_blocks(u, d)
        grid = np.indices((d,) * n).reshape(n, -1).T
        for total, (occ, block) in enumerate(sectors):
            # the tuples with this total, in C order of the grid
            np.testing.assert_array_equal(occ, grid[grid.sum(axis=1) == total])
            assert np.abs(block.conj().T @ block - np.eye(len(occ))).max() < 1e-13
            expect = [[fock_amplitude(u, s, t) for t in occ] for s in occ]
            np.testing.assert_allclose(block, expect, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("dims", [(2, 2), (3, 1, 2), (2, 3, 2)])
    def test_box_evolution_equals_passive_evolution(self, dims, rng):
        # a batch of random products on the box of unequal cutoffs, evolved
        # by the party plan, against the permanent formula
        n, d_out = len(dims), sum(dims) - len(dims) + 1
        psi = rng.standard_normal((math.prod(dims), 3)) + 1j * rng.standard_normal(
            (math.prod(dims), 3))
        plan = circuits._party_plan(dims)
        amps = circuits._evolve_sectors(psi, plan)
        box = np.indices(dims).reshape(n, -1).T
        f = dft(n)
        for r, cell in enumerate(plan[1]):
            for m1 in range(d_out):
                s = (m1, *cell)
                if sum(s) >= d_out:
                    # past the simplex the buffer holds zero
                    assert np.all(amps[r, m1] == 0)
                    continue
                row = np.array([fock_amplitude(f, s, t) for t in box])
                np.testing.assert_allclose(amps[r, m1], row @ psi, atol=1e-12)

    def test_cache_stays_under_its_byte_bound(self, monkeypatch):
        bound = 2 ** 20
        monkeypatch.setattr(circuits, "_CACHE_BYTES", bound)
        circuits._party_plan.cache_clear()
        try:
            for d in range(2, 11):
                size = circuits._nbytes(circuits._party_plan((d, d, d)))
                assert circuits._cached_bytes() <= bound
                # kept if it fits, and then it is the most recent entry
                assert (("_party_plan", (d, d, d)) in circuits._cache) == (size <= bound)
            # the plan of (10, 10, 10) alone exceeds the bound, so it was not kept
            assert size > bound
        finally:
            circuits._party_plan.cache_clear()

    @pytest.mark.parametrize("unitary", ["dft", "random"])
    @pytest.mark.parametrize("dims", [(61, 60), (40, 16, 6), (7, 7, 7, 6)],
                             ids=["n2_d120", "n3_d60", "n4_d24"])
    def test_blocks_stay_unitary_at_large_photon_numbers(self, dims, unitary, rng):
        # the columns of a box that reaches d_out = 120, 60 and 24 photons;
        # dividing by the first occupied mode's count lost 1e-5 at n=2 below
        # 80 photons and all normalisation below 120
        n, d_out = len(dims), sum(dims) - len(dims) + 1
        u = dft(n) if unitary == "dft" else random_unitary(rng, n)
        box = np.indices(dims).reshape(n, -1).T
        for occ, block in circuits._sector_blocks(u, d_out, box):
            assert np.abs(block.conj().T @ block - np.eye(block.shape[1])).max() < 1e-12

    @pytest.mark.parametrize("unitary", ["dft", "random"])
    def test_full_simplex_blocks_stay_normalised_below_120_photons(self, unitary, rng):
        # every column, the lopsided ones too; the first-occupied pivot gave 83
        u = dft(2) if unitary == "dft" else random_unitary(rng, 2)
        for occ, block in sector_blocks(u, 120):
            assert np.abs(block.conj().T @ block - np.eye(len(occ))).max() < 1e-10

    @pytest.mark.parametrize("dims", [(2, 2), (3, 1, 2), (2, 3, 2), (9, 9, 9)])
    def test_plan_blocks_are_the_box_columns_of_the_full_blocks(self, dims):
        n, d_out = len(dims), sum(dims) - len(dims) + 1
        circuits._party_plan.cache_clear()
        plan = circuits._party_plan(dims)
        full = sector_blocks(dft(n), d_out)
        box = np.indices(dims).reshape(n, -1).T
        for (rows, block, _), (occ, full_block) in zip(plan[2], full, strict=True):
            index = {cell: i for i, cell in enumerate(map(tuple, occ.tolist()))}
            cols = [index[cell] for cell in map(tuple, box[rows].tolist())]
            assert block.shape == (len(occ), len(rows))
            assert np.array_equal(block, full_block[:, cols])

    @pytest.mark.parametrize("dims, limit", [((9, 9, 9), 3 * 2 ** 20), ((2,) * 6, 2 ** 20)])
    def test_plan_peak(self, dims, limit):
        circuits._party_plan.cache_clear()
        tracemalloc.start()
        try:
            circuits._party_plan(dims)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            circuits._party_plan.cache_clear()
        assert peak <= limit


def mixed_rank2_copies(rng, n):
    """n unequal rank-2 mixed copies whose pure components have Schmidt
    rank 3."""
    return [BipartiteDensityOperator(ModeCutoff(3, 3), random_density(rng, 9, rank=2))
            for _ in range(n)]


def pt_product_trace(copies):
    """Independent oracle for unequal copies: the circuit value equals
    Tr(pt(rho1) pt(rho3) pt(rho2)) for three copies, Tr(pt(rho1) pt(rho2))
    for two."""
    pts = [partial_transpose(c).matrix for c in copies]
    if len(pts) == 2:
        return np.trace(pts[0] @ pts[1])
    return np.trace(pts[0] @ pts[2] @ pts[1])


class TestOutcomeDistribution:
    @pytest.mark.parametrize("tau", [1.0, 0.9, 0.75, 0.6])
    def test_table_of_two_copy_outputs(self, tau):
        rho = lossy_noon_density(LossyNOONParams.balanced(1, tau))
        dist = outcome_distribution([rho] * 2, 2)
        assert dist.as_arrays()[1].sum() == pytest.approx(1.0, abs=1e-12)
        for outcome in noon_tables.f2_outcomes():
            assert dist.probability(outcome) == pytest.approx(
                noon_tables.f2_formula(outcome, BAL, tau), abs=1e-12)

    @pytest.mark.parametrize("tau", [1.0, 0.75])
    def test_table_of_three_copy_outputs(self, tau):
        rho = lossy_noon_density(LossyNOONParams.balanced(1, tau))
        dist = outcome_distribution([rho] * 3, 3)
        for outcome in noon_tables.f3_outcomes():
            assert dist.probability(outcome) == pytest.approx(
                noon_tables.f3_formula(outcome, BAL, tau), abs=1e-12)
        for outcome in noon_tables.f3_zero_outcomes():
            assert dist.probability(outcome) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("tau", [1.0, 0.9, 0.75, 0.6])
    def test_three_copy_zero_outcomes_are_exactly_zero(self, tau):
        rho = lossy_noon_density(LossyNOONParams.balanced(1, tau))
        dist = outcome_distribution([rho] * 3, 3)
        for outcome in noon_tables.f3_zero_outcomes():
            assert dist.probability(outcome) == 0.0

    def test_one_evolution_per_party_and_batch_width(self, monkeypatch):
        rho = lossy_noon_density(LossyNOONParams.balanced(1, 0.75))
        calls = []
        evolve = circuits._evolve_sectors
        monkeypatch.setattr(circuits, "_evolve_sectors",
                            lambda psi, plan: calls.append(psi.shape[1]) or evolve(psi, plan))
        circuits._party_plan.cache_clear()
        outcome_distribution([rho] * 3, 3)
        # each copy is the vacuum (Schmidt rank 1) mixed with the Bell state
        # (rank 2); of the 8 choices one per cyclic orbit is evolved, of
        # widths 1, 2, 4 and 8, and all choices of one width are evolved
        # together, once per party
        assert sorted(calls) == [1, 1, 2, 2, 4, 4, 8, 8]
        # both parties keep cutoffs (2, 2, 2) after the empty level is
        # trimmed: one plan
        assert [key for key in circuits._cache if key[0] == "_party_plan"] == [
            ("_party_plan", (2, 2, 2))]

    def test_large_amplitude_cat_keeps_its_normalisation(self):
        # cutoff 70 x 11; dividing by the first occupied mode's count summed
        # the outcome probabilities to 1.000028
        rho = cat_density(CatParams(6.0, 1.0, 0.5, "odd"))
        p2 = multicopy_expectation(outcome_distribution([rho] * 2, 2))
        assert p2 == pytest.approx(pt_moment(rho, 2), abs=1e-12)

    def test_budget_error_before_any_evolution(self, monkeypatch):
        cat = cat_density(CatParams(0.5, 0.5, 0.5, "odd"))
        lossy = lossy_channel(lossy_channel(cat, 0.8, "a"), 0.8, "b")
        calls, counted = [], []
        cost = circuits._readout_cost
        monkeypatch.setattr(circuits, "_readout_cost",
                            lambda *args: counted.append(cost(*args)) or counted[-1])
        monkeypatch.setattr(circuits, "_evolve_sectors", lambda *args: calls.append(1))
        with pytest.raises(BudgetError, match=r"needs 2\.56e\+08 .* and 2\.43e\+10 Gram "
                                              r"multiply-adds over 92 component choices, "
                                              r".* budget of 1e\+08"):
            outcome_distribution([lossy] * 3, 3)
        assert calls == []
        # the cost counts the 92 choices evolved, one per cyclic orbit of the
        # 272 that clear the weight floor; the sector blocks count the box
        # columns the plans build (the full sectors, squared, would add
        # 138,411 entries)
        assert counted == [(256_196_023, 24_333_205_000)]

    def test_lossless_two_copy_has_even_totals_only(self):
        rho = lossy_noon_density(LossyNOONParams.balanced(1, 1.0), ModeCutoff(2, 2))
        dist = outcome_distribution([rho] * 2, 2)
        for (n2a, n2b), p in zip(*dist.as_arrays()):
            if p > 1e-12:
                assert (n2a + n2b) % 2 == 0

    def test_no_outcomes_beyond_input_support(self):
        rho = lossy_noon_density(LossyNOONParams.balanced(1, 0.8))
        dist = outcome_distribution([rho] * 3, 3)
        for outcome, p in zip(*dist.as_arrays()):
            if p > 1e-12:
                assert sum(outcome) <= 3

    def test_rejects_copy_count_mismatch(self):
        rho = lossy_noon_density(LossyNOONParams.balanced(1, 1.0))
        with pytest.raises(ValueError):
            outcome_distribution([rho] * 2, 3)

    @pytest.mark.parametrize("negative", [-2e-3, -1e-7])
    def test_rejects_copy_with_negative_eigenvalue(self, negative):
        # below -tol.psd the copy is unphysical, and dropping that component
        # would only surface later as a misleading normalization error
        good = lossy_noon_density(LossyNOONParams.balanced(1, 1.0), ModeCutoff(2, 2))
        bad = BipartiteDensityOperator(ModeCutoff(2, 2),
                                       np.diag([0.6, 0.4 - negative, 0.0, negative]),
                                       check_psd=False)
        with pytest.raises(StateValidationError, match=r"copy 1 has eigenvalue -"):
            outcome_distribution([good, bad], 2)


def padded(matrix, kept, cutoff):
    """Density operator on ``cutoff`` whose levels past the ``kept`` cutoffs
    (d_a, d_b) are exactly empty."""
    d_a, d_b = kept
    t = np.zeros((cutoff.d_a, cutoff.d_b, cutoff.d_a, cutoff.d_b), dtype=complex)
    t[:d_a, :d_b, :d_a, :d_b] = np.asarray(matrix).reshape(d_a, d_b, d_a, d_b)
    return BipartiteDensityOperator(cutoff, t.reshape(cutoff.dim, cutoff.dim))


def low_rank_copy(rng, kept, cutoff, rank):
    """Random rank-``rank`` copy with populated last levels at ``kept`` and
    empty levels from there up to ``cutoff``."""
    dim = kept[0] * kept[1]
    return padded(random_density(rng, dim, rank=min(rank, dim)), kept, cutoff)


def readout_value(copies):
    """Expectation of the root-of-unity readout value, complex."""
    dist = outcome_distribution(copies, len(copies))
    return dist.probs @ dist.values


def common_cutoff_trace(copies):
    """pt_product_trace of the copies embedded in their largest cutoffs."""
    cutoff = ModeCutoff(max(c.d_a for c in copies), max(c.d_b for c in copies))
    return pt_product_trace([padded(c.matrix, (c.d_a, c.d_b), cutoff) for c in copies])


class TestTrimming:
    def test_drops_an_empty_trailing_level_on_one_side(self, rng):
        rho = low_rank_copy(rng, (2, 3), ModeCutoff(3, 3), 2)
        mat, d_a, d_b = circuits._trimmed(rho)
        assert (d_a, d_b) == (2, 3)
        np.testing.assert_array_equal(mat, rho.as_tensor()[:2, :3, :2, :3].reshape(6, 6))

    def test_keeps_a_populated_last_level_and_inner_empty_levels(self):
        # level 1 of A is empty, level 2 is not: nothing is trimmed
        vec = np.zeros(9)
        vec[0] = vec[2 * 3 + 2] = BAL
        rho = BipartiteDensityOperator.from_state_vector(vec, ModeCutoff(3, 3))
        assert circuits._trimmed(rho)[1:] == (3, 3)

    def test_noon_guard_level_is_trimmed_for_the_readout_only(self):
        rho = lossy_noon_density(LossyNOONParams.balanced(2, 0.8))
        assert rho.cutoff == ModeCutoff(4, 4)
        assert circuits._trimmed(rho)[1:] == (3, 3)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("shapes", [
        pytest.param([((2, 3), (3, 3))], id="empty_level_on_A_only"),
        pytest.param([((3, 2), (3, 3))], id="empty_level_on_B_only"),
        pytest.param([((3, 3), (3, 3))], id="populated_last_level"),
        pytest.param([((2, 2), (2, 2)), ((3, 2), (4, 2)), ((2, 3), (2, 3))],
                     id="unequal_cutoffs"),
    ])
    def test_readout_equals_oracle(self, n, shapes, rng):
        copies = [low_rank_copy(rng, kept, ModeCutoff(*cutoff), 2)
                  for kept, cutoff in (shapes * n)[:n]]
        assert readout_value(copies) == pytest.approx(common_cutoff_trace(copies), abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([2, 3]), st.data())
    def test_readout_equals_oracle_on_random_low_rank_copies(self, n, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        copies = []
        for _ in range(n):
            kept = (data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3)))
            cutoff = ModeCutoff(kept[0] + data.draw(st.integers(0, 1)),
                                kept[1] + data.draw(st.integers(0, 1)))
            copies.append(low_rank_copy(rng, kept, cutoff, data.draw(st.integers(1, 3))))
        assert readout_value(copies) == pytest.approx(common_cutoff_trace(copies), abs=1e-12)


class TestMoreCopies:
    @pytest.mark.parametrize("n_pop, n", [(1, 4), (1, 5), (2, 4)])
    def test_lossy_noon_matches_oracle(self, n_pop, n):
        rho = lossy_noon_density(LossyNOONParams.balanced(n_pop, 0.8))
        dist = outcome_distribution([rho] * n, n)
        assert multicopy_expectation(dist) == pytest.approx(pt_moments(rho, n)[n - 1],
                                                            abs=1e-12)

    def test_small_cat_at_four_copies(self):
        rho = cat_density(CatParams(0.2, 0.2, 0.0, "odd"), ModeCutoff(4, 4))
        dist = outcome_distribution([rho] * 4, 4)
        assert multicopy_expectation(dist) == pytest.approx(pt_moments(rho, 4)[3], abs=1e-12)

    def test_five_copies_at_the_default_cutoff(self, monkeypatch):
        # the default cutoff (3, 3) carries an empty guard level per mode; the
        # full grid would hold 11^8 outcome cells, the trimmed simplex 126^2
        rho = lossy_noon_density(LossyNOONParams.balanced(1, 0.8))
        assert rho.cutoff == ModeCutoff(3, 3)
        seen = []
        cost = circuits._readout_cost
        monkeypatch.setattr(circuits, "_readout_cost",
                            lambda *args: seen.append(args[0]) or cost(*args))
        dist = outcome_distribution([rho] * 5, 5)
        assert seen == [[(2,) * 5] * 2]  # trimmed cutoffs: d_out = 6 per party
        assert multicopy_expectation(dist) == pytest.approx(pt_moments(rho, 5)[4], abs=1e-12)


def readout_benchmark_cases():
    """The copies of the readout benchmark: lossy N=1 NOON at four
    transmissivities and n = 2, 3, lossy N=3 NOON at n=3, the odd cat at n=3
    and the odd cat after loss on both modes at n=2."""
    cases = []
    for tau in (1.0, 0.9, 0.75, 0.6):
        rho = lossy_noon_density(LossyNOONParams.balanced(1, tau))
        cases += [pytest.param([rho] * n, id=f"noon1_tau{tau}_n{n}") for n in (2, 3)]
    cases.append(pytest.param([lossy_noon_density(LossyNOONParams.balanced(3, 0.75))] * 3,
                              id="noon3_n3"))
    cat = cat_density(CatParams(0.5, 0.5, 0.5, "odd"))
    cases.append(pytest.param([cat] * 3, id="cat_n3"))
    lossy = lossy_channel(lossy_channel(cat, 0.8, "a"), 0.8, "b")
    cases.append(pytest.param([lossy] * 2, id="lossycat_n2"))
    return cases


def distinct_objects(copies):
    """The copies as distinct objects with equal matrices, which the readout
    engine does not recognise as identical."""
    return [BipartiteDensityOperator(c.cutoff, c.matrix) for c in copies]


def evolved_choices(monkeypatch, copies) -> int:
    """Component choices the readout of ``copies`` evolves, as its cost
    counts them."""
    counted = []
    cost = circuits._readout_cost
    monkeypatch.setattr(circuits, "_readout_cost",
                        lambda dims, widths: counted.append(len(widths)) or cost(dims, widths))
    outcome_distribution(copies)
    return counted[-1]


class TestCyclicOrbits:
    """A cyclic shift of identical copies changes only the output phases, so
    the engine evolves one component choice per orbit of the shifts that map
    every copy onto the same object."""

    @pytest.mark.parametrize("copies", readout_benchmark_cases())
    def test_orbits_equal_all_choices(self, copies):
        orbits = outcome_distribution(copies)
        every = outcome_distribution(distinct_objects(copies))
        np.testing.assert_array_equal(orbits.cells, every.cells)
        np.testing.assert_allclose(orbits.probs, every.probs, rtol=0, atol=1e-15)

    def test_period_two_pattern(self, monkeypatch):
        a, b = (lossy_noon_density(LossyNOONParams.balanced(1, tau)) for tau in (0.9, 0.6))
        orbits = outcome_distribution([a, b, a, b])
        every = outcome_distribution(distinct_objects([a, b, a, b]))
        np.testing.assert_array_equal(orbits.cells, every.cells)
        np.testing.assert_allclose(orbits.probs, every.probs, rtol=0, atol=1e-15)
        # only the shift by 2 maps the copies onto themselves: 4 of the 16
        # choices are fixed by it and the other 12 pair up
        assert evolved_choices(monkeypatch, [a, b, a, b]) == 4 + 12 // 2
        assert evolved_choices(monkeypatch, distinct_objects([a, b, a, b])) == 16

    @pytest.mark.parametrize("n, necklaces", [(2, 3), (3, 4), (4, 6), (5, 8)])
    def test_one_choice_per_necklace(self, monkeypatch, n, necklaces):
        # lossy N=1 NOON has two components, so the choices are the 2^n binary
        # words and their orbits the binary necklaces of length n
        rho = lossy_noon_density(LossyNOONParams.balanced(1, 0.75))
        assert evolved_choices(monkeypatch, [rho] * n) == necklaces
        assert evolved_choices(monkeypatch, distinct_objects([rho] * n)) == 2 ** n

    def test_unequal_copies_evolve_every_choice_bit_for_bit(self):
        # the probabilities of the engine that evolves every choice with its
        # own weight, as float.hex, in the order of ``cells``
        copies = [lossy_noon_density(LossyNOONParams.balanced(1, tau)) for tau in (0.9, 0.75, 0.6)]
        pinned = [
            "0x1.f5c28f5c28f58p-3", "0x1.851eb851eb84ep-5", "0x1.9999999999996p-6",
            "0x1.70a3d70a3d706p-7", "0x1.851eb851eb84ep-5", "0x1.7ae147ae147acp-5",
            "0x1.9999999999996p-6", "0x1.70a3d70a3d707p-7", "0x1.851eb851eb84dp-5",
            "0x1.9999999999994p-5", "0x1.147ae147ae146p-5", "0x1.7ae147ae147abp-5",
            "0x1.9999999999996p-6", "0x1.147ae147ae145p-5", "0x1.70a3d70a3d705p-7",
            "0x1.851eb851eb84ep-5", "0x1.7ae147ae147acp-5", "0x1.9999999999996p-5",
            "0x1.147ae147ae147p-5", "0x1.7ae147ae147abp-5", "0x1.9999999999996p-6",
            "0x1.147ae147ae146p-5", "0x1.70a3d70a3d707p-7"]
        assert [p.hex() for p in outcome_distribution(copies).probs.tolist()] == pinned


def recorded_orders(monkeypatch) -> list:
    """The names of the contraction orders that outcome_distribution runs
    from now on, in call order."""
    ran = []
    for name in ("_component_order", "_operator_order"):
        order = getattr(circuits, name)
        monkeypatch.setattr(circuits, name,
                            lambda *args, name=name, order=order: ran.append(name) or order(*args))
    return ran


def in_order(monkeypatch, copies, operator: bool) -> OutcomeDistribution:
    """outcome_distribution of ``copies`` in the operator order if
    ``operator``, else in the component order, chosen by counting the
    operator order as free or as endless."""
    with monkeypatch.context() as m:
        m.setattr(circuits, "_operator_cost", lambda dims: (0, 0) if operator else (math.inf, 0))
        return outcome_distribution(copies)


def order_counts(monkeypatch, copies) -> tuple[str, str]:
    """The component and operator counts of the readout of ``copies``, as the
    BudgetError of a zero budget names them."""
    with monkeypatch.context() as m:
        m.setattr(circuits, "_READOUT_BUDGET", 0)
        with pytest.raises(BudgetError) as refused:
            outcome_distribution(copies)
    return re.search(r"choices, (\S+) units with their evolutions, or (\S+) units as density "
                     r"operators, both above", str(refused.value)).groups()


def assert_same_outcomes(a, b, atol):
    """Every outcome of either distribution has the same probability in both
    within ``atol`` (zero off a support)."""
    pa, pb = (dict(zip(d.outcomes(), d.probs.tolist())) for d in (a, b))
    for cell in pa.keys() | pb.keys():
        assert pa.get(cell, 0.0) == pytest.approx(pb.get(cell, 0.0), abs=atol), cell


# Per readout benchmark case: the component and operator counts, and the
# order that runs, the cheaper one.
BENCHMARK_ORDERS = {
    **{f"noon1_tau{tau}_n2": ("444", "1.09e+03", "_component_order") for tau in (0.9, 0.75, 0.6)},
    **{f"noon1_tau{tau}_n3": ("1.15e+04", "2.31e+04", "_component_order")
       for tau in (0.9, 0.75, 0.6)},
    "noon1_tau1.0_n2": ("321", "1.09e+03", "_component_order"),
    "noon1_tau1.0_n3": ("8.43e+03", "2.31e+04", "_component_order"),
    "noon3_n3": ("1.22e+06", "2.89e+07", "_component_order"),
    "cat_n3": ("1.07e+07", "8.5e+09", "_component_order"),
    "lossycat_n2": ("6.05e+06", "4.42e+06", "_operator_order"),
}


class TestContractionOrders:
    """The readout sums over the Grams of evolved component choices, or over
    the box Grams of the DFT against the copies' density operators, whichever
    its counts make cheaper."""

    @pytest.mark.parametrize("copies", readout_benchmark_cases())
    def test_benchmark_cases_run_the_order_their_counts_choose(self, copies, monkeypatch,
                                                               request):
        component, operator, order = BENCHMARK_ORDERS[request.node.callspec.id]
        assert order_counts(monkeypatch, copies) == (component, operator)
        ran = recorded_orders(monkeypatch)
        outcome_distribution(copies)
        assert ran == [order]

    @pytest.mark.parametrize("copies", [
        case for case in readout_benchmark_cases()
        if max(map(float, BENCHMARK_ORDERS[case.id][:2])) <= circuits._READOUT_BUDGET])
    def test_orders_agree_where_both_fit_the_budget(self, copies, monkeypatch):
        assert_same_outcomes(in_order(monkeypatch, copies, False),
                             in_order(monkeypatch, copies, True), 1e-12)

    @pytest.mark.parametrize("n", [2, 3])
    def test_orders_agree_on_unequal_copies(self, n, monkeypatch, rng):
        # distinct objects with complex entries, ranks 1 to 4 and trimmed
        # cutoffs that differ by copy and by mode
        shapes = [((2, 3), ModeCutoff(3, 3), 4), ((3, 2), ModeCutoff(3, 4), 1),
                  ((2, 2), ModeCutoff(2, 3), 2)][:n]
        copies = [low_rank_copy(rng, kept, cutoff, rank) for kept, cutoff, rank in shapes]
        assert np.iscomplexobj(copies[0].matrix)
        component, operator = (in_order(monkeypatch, copies, op) for op in (False, True))
        assert_same_outcomes(component, operator, 1e-12)
        # unequal complex copies read a complex product trace
        assert operator.probs @ operator.values == pytest.approx(common_cutoff_trace(copies),
                                                                 abs=1e-10)

    @pytest.mark.parametrize("rho", [
        pytest.param(lossy_noon_density(LossyNOONParams.balanced(1, 0.75)), id="noon1"),
        pytest.param(lossy_noon_density(LossyNOONParams.balanced(2, 0.6)), id="noon2"),
        pytest.param(qutrit_state().density_operator(), id="qutrit"),
        pytest.param(cat_density(CatParams(0.3, 0.3, 0.4, "odd"), ModeCutoff(5, 5)), id="cat"),
    ])
    @pytest.mark.parametrize("n", [2, 3])
    def test_operator_order_reads_the_pt_moment(self, rho, n, monkeypatch):
        dist = in_order(monkeypatch, [rho] * n, True)
        assert multicopy_expectation(dist) == pytest.approx(pt_moment(rho, n), abs=1e-10)

    def test_a_readout_over_the_budget_in_one_order_runs_in_the_other(self, monkeypatch):
        # a full-rank copy with cutoffs (6, 6) counts 1.34e8 in its 666
        # component choices, 1.56e6 as a density operator
        rho = BipartiteDensityOperator(ModeCutoff(6, 6),
                                       random_density(np.random.default_rng(5), 36))
        assert order_counts(monkeypatch, [rho] * 2) == ("1.34e+08", "1.56e+06")
        ran = recorded_orders(monkeypatch)
        dist = outcome_distribution([rho] * 2)
        assert ran == ["_operator_order"]
        assert multicopy_expectation(dist) == pytest.approx(pt_moment(rho, 2), abs=1e-10)


def reference_law(copies, reverse=False):
    """value_law by explicit loops: each cycle of c -> c+q followed one copy
    at a time, or against its order if ``reverse``."""
    n = len(copies)
    pts = [partial_transpose(c).matrix for c in copies]
    traces = []
    for q in range(n):
        t, seen = 1.0, set()
        for start in range(n):
            cycle = []
            while start not in seen:
                seen.add(start)
                cycle.append(start)
                start = (start + q) % n
            if cycle:
                order = cycle[:1] + cycle[:0:-1] if reverse else cycle
                t *= np.trace(np.linalg.multi_dot([np.eye(len(pts[0]))] + [pts[c] for c in order]))
        traces.append(t)
    return np.array([sum(np.exp(-2j * np.pi * q * m / n) * traces[q] for q in range(n)).real / n
                     for m in range(n)])


class TestValueLaw:
    @pytest.mark.parametrize("copies", readout_benchmark_cases())
    def test_matches_engine_on_readout_cases(self, copies):
        dist = outcome_distribution(copies, len(copies))
        # the engine's classes can fall short by the mass it drops below its
        # floors: 9.7e-13 on the cat at n=3, 2.9e-14 on the lossy cat
        dropped = 1.0 - dist.probs.sum()
        # the cycle products, and the identical copies' law from their pt_moments
        moments = circuits.moment_law(pt_moments(copies[0], len(copies)))
        for law in (circuits.value_law(copies), moments):
            np.testing.assert_allclose(law, dist.value_law(), rtol=0, atol=1e-14 + dropped)

    @pytest.mark.parametrize("n, d", [(2, 3), (3, 3), (4, 2)])
    def test_matches_engine_on_unequal_low_rank_copies(self, n, d, rng):
        copies = [BipartiteDensityOperator(ModeCutoff(d, d), random_density(rng, d * d, rank=2))
                  for _ in range(n)]
        law = circuits.value_law(copies)
        np.testing.assert_allclose(law, outcome_distribution(copies, n).value_law(),
                                   rtol=0, atol=1e-14)
        np.testing.assert_allclose(law, reference_law(copies), rtol=0, atol=1e-14)

    def test_reversed_cycle_order_fails_on_unequal_copies(self, rng):
        copies = mixed_rank2_copies(rng, 3)
        engine = outcome_distribution(copies, 3).value_law()
        assert np.abs(reference_law(copies, reverse=True) - engine).max() > 1e-3
        np.testing.assert_allclose(reference_law(copies), engine, rtol=0, atol=1e-14)

    def test_unequal_cutoffs_are_padded(self, rng):
        copies = [low_rank_copy(rng, kept, ModeCutoff(*kept), 2)
                  for kept in ((2, 2), (3, 2), (2, 3))]
        np.testing.assert_allclose(circuits.value_law(copies),
                                   outcome_distribution(copies, 3).value_law(),
                                   rtol=0, atol=1e-14)

    @pytest.mark.parametrize("cutoffs", [
        pytest.param([(3, 3)] * 4, id="equal"),
        pytest.param([(2, 3), (3, 2), (3, 3)], id="unequal"),
        pytest.param([(1, 3), (2, 2), (3, 1), (2, 3)], id="unequal_with_one_level"),
    ])
    def test_cycle_traces_equal_padded_validated_partial_transposes(self, cutoffs, rng):
        # reference: each copy's validated fock.partial_transpose, zero-padded
        # with np.pad, and every cycle's product traced one at a time
        copies = [BipartiteDensityOperator(ModeCutoff(*c), random_density(rng, c[0] * c[1]))
                  for c in cutoffs]
        n = len(copies)
        d_a, d_b = max(c.d_a for c in copies), max(c.d_b for c in copies)
        mats = [np.pad(partial_transpose(c).as_tensor(), [(0, d_a - c.d_a), (0, d_b - c.d_b)] * 2)
                .reshape(d_a * d_b, d_a * d_b) for c in copies]
        want = []
        for q in range(n):
            g, t = math.gcd(q, n), 1
            for start in range(g):
                t *= np.trace(functools.reduce(
                    np.matmul, [mats[(start + i * q) % n] for i in range(n // g)]))
            want.append(t)
        got = circuits.cycle_traces(copies)
        assert np.array(got).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_identical_copies_at_prime_n(self, n):
        rho = lossy_noon_density(LossyNOONParams.balanced(2, 0.8))
        p = pt_moment(rho, n)
        want = [(1 + (n - 1) * p) / n] + [(1 - p) / n] * (n - 1)
        np.testing.assert_allclose(circuits.moment_law(pt_moments(rho, n)), want,
                                   rtol=0, atol=1e-15)
        np.testing.assert_allclose(circuits.value_law([rho] * n), want, rtol=0, atol=1e-15)

    def test_four_identical_copies_use_p2_squared(self):
        # q = 2 splits the four copies into two 2-cycles
        p = [1.0, 0.6, 0.3, 0.2]
        want = [(1 + 2 * 0.2 + 0.36) / 4, (1 - 0.36) / 4, (1 - 2 * 0.2 + 0.36) / 4,
                (1 - 0.36) / 4]
        np.testing.assert_allclose(circuits.moment_law(p), want, rtol=0, atol=1e-15)

    def test_unphysical_copy_is_refused(self):
        # eigenvalues 1.5 and -0.5: p2 = 2.5, so P(1) = (1 - p2)/2 < 0
        rho = BipartiteDensityOperator(ModeCutoff(2, 1), np.diag([1.5, -0.5]),
                                       check_psd=False)
        with pytest.raises(ToleranceError):
            circuits.value_law([rho, rho])
        with pytest.raises(ValueError):
            circuits.value_law([rho])


class TestReadoutMemory:
    @pytest.mark.parametrize("copies", readout_benchmark_cases())
    def test_peak_within_three_times_the_counted_entries(self, copies, monkeypatch):
        # the counted entries of the order that runs are complex (16 bytes);
        # 64 KiB covers the fixed cost of a call, which dominates the
        # smallest cases
        counted = {}
        for name in ("_readout_cost", "_operator_cost"):
            cost = getattr(circuits, name)
            monkeypatch.setattr(circuits, name, lambda *args, name=name, cost=cost:
                                counted.setdefault(name, cost(*args)))
        ran = recorded_orders(monkeypatch)
        circuits._party_plan.cache_clear()
        tracemalloc.start()
        try:
            outcome_distribution(copies, len(copies))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        entries, _ = counted["_operator_cost" if ran == ["_operator_order"] else "_readout_cost"]
        assert peak <= 3 * 16 * entries + 64 * 1024


class TestMulticopyExpectation:
    def test_ideal_bell_purity(self):
        rho = lossy_noon_density(LossyNOONParams.balanced(1, 1.0), ModeCutoff(2, 2))
        dist = outcome_distribution([rho] * 2, 2)
        assert multicopy_expectation(dist) == pytest.approx(1.0, abs=1e-12)

    def test_ideal_bell_third_moment(self):
        rho = lossy_noon_density(LossyNOONParams.balanced(1, 1.0), ModeCutoff(2, 2))
        dist = outcome_distribution([rho] * 3, 3)
        assert multicopy_expectation(dist) == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("n_pop", [1, 2, 3])
    @pytest.mark.parametrize("n_copies", [2, 3])
    def test_matches_pt_moment_on_noon(self, n_pop, n_copies):
        rho = lossy_noon_density(LossyNOONParams(NOONParams(n_pop, 0.6, 0.8), 1.0, 1.0),
                                 ModeCutoff(n_pop + 1, n_pop + 1))
        dist = outcome_distribution([rho] * n_copies, n_copies)
        assert multicopy_expectation(dist) == pytest.approx(
            pt_moment(rho, n_copies), abs=1e-8)

    @pytest.mark.parametrize("n_copies", [2, 3])
    def test_matches_pt_moment_on_qutrit(self, n_copies):
        rho = qutrit_state().density_operator()
        dist = outcome_distribution([rho] * n_copies, n_copies)
        assert multicopy_expectation(dist) == pytest.approx(
            pt_moment(rho, n_copies), abs=1e-8)

    @pytest.mark.parametrize("n_copies", [2, 3])
    def test_matches_pt_moment_on_small_cat(self, n_copies):
        rho = cat_density(CatParams(0.3, 0.3, 0.4, "odd"), ModeCutoff(5, 5))
        dist = outcome_distribution([rho] * n_copies, n_copies)
        assert multicopy_expectation(dist) == pytest.approx(
            pt_moment(rho, n_copies), abs=1e-8)

    @pytest.mark.parametrize("taus", [(0.9, 0.75), (0.6, 1.0),
                                      pytest.param(None, id="mixed_rank2")])
    def test_two_unequal_copies(self, taus, rng):
        if taus is None:
            copies = mixed_rank2_copies(rng, 2)
        else:
            copies = [lossy_noon_density(LossyNOONParams.balanced(1, t)) for t in taus]
        dist = outcome_distribution(copies, 2)
        assert multicopy_expectation(dist) == pytest.approx(
            pt_product_trace(copies).real, abs=1e-10)

    def test_three_unequal_copies(self, rng):
        specs = [(0.9, 0.5), (0.75, 0.8), (0.6, BAL)]
        noon_copies = []
        for tau, alpha in specs:
            noon = NOONParams(1, alpha, math.sqrt(1 - alpha ** 2))
            noon_copies.append(lossy_noon_density(LossyNOONParams(noon, tau, tau)))
        for copies in (noon_copies, mixed_rank2_copies(rng, 3)):
            dist = outcome_distribution(copies, 3)
            # the product trace of unequal complex copies is itself complex
            assert dist.probs @ dist.values == pytest.approx(pt_product_trace(copies),
                                                             abs=1e-10)

    def test_lossy_closed_forms(self):
        from ptmoments.states import lossy_noon_pt_moments
        for tau in (0.9, 0.75, 0.6):
            p = LossyNOONParams.balanced(1, tau)
            rho = lossy_noon_density(p)
            d2 = outcome_distribution([rho] * 2, 2)
            d3 = outcome_distribution([rho] * 3, 3)
            p2, p3 = lossy_noon_pt_moments(p)
            assert multicopy_expectation(d2) == pytest.approx(p2, abs=1e-10)
            assert multicopy_expectation(d3) == pytest.approx(p3, abs=1e-10)


def on_grid(probs):
    """OutcomeDistribution of a dense array, every cell listed in C order."""
    probs = np.asarray(probs, dtype=float)
    return OutcomeDistribution(np.indices(probs.shape).reshape(probs.ndim, -1).T,
                               probs.reshape(-1))


class TestDistributionValidation:
    def test_rejects_unnormalized(self):
        with pytest.raises(ToleranceError):
            on_grid([[0.7]])

    def test_rejects_negative_entry_before_flooring(self):
        # outcome_distribution hands over its raw probabilities; flooring tiny
        # entries must not hide a negative one from this check
        with pytest.raises(ToleranceError):
            on_grid([[0.6, 0.5], [0.0, -0.1]])

    def test_floors_noise_out_of_the_support(self):
        dist = on_grid([[0.5, 1e-31], [-1e-17, 0.5]])
        assert dist.outcomes() == [(0, 0), (1, 1)]
        assert dist.probability((1, 0)) == 0.0
        # the floor is 1e-14 of the largest entry, not an absolute level
        dist = on_grid([[0.5, 4e-15], [0.0, 0.5]])
        assert dist.outcomes() == [(0, 0), (1, 1)]
        dist = on_grid([[1.0, 2e-14]])
        assert dist.outcomes() == [(0, 0), (0, 1)]

    def test_probability_off_the_grid_is_zero(self):
        dist = on_grid([[0.25, 0.25], [0.0, 0.5]])
        assert dist.probability((1, 1)) == 0.5
        for outcome in [(-1, -1), (-1, 0), (0, -1), (2, 0), (0, 2), (0,), (0, 0, 0)]:
            assert dist.probability(outcome) == 0.0

    def test_copy_count_and_order_follow_the_array(self):
        probs = np.zeros((3, 3, 3, 3))
        probs[2, 0, 1, 1] = probs[0, 1, 0, 0] = probs[0, 0, 2, 0] = 1.0 / 3.0
        dist = on_grid(probs)
        assert dist.n_copies == 3
        keys, values = dist.as_arrays()
        assert keys == sorted(keys) == [(0, 0, 2, 0), (0, 1, 0, 0), (2, 0, 1, 1)]
        assert all(type(x) is int for key in keys for x in key)
        np.testing.assert_array_equal(values, [1.0 / 3.0] * 3)

    def test_stores_only_the_support(self):
        dist = OutcomeDistribution([[0, 0, 0, 0], [0, 1, 0, 0], [2, 0, 1, 1]],
                                   [0.5, 0.0, 0.5])
        assert dist.n_copies == 3
        assert dist.outcomes() == [(0, 0, 0, 0), (2, 0, 1, 1)]
        assert dist.probability((2, 0, 1, 1)) == 0.5
        assert dist.probability((0, 1, 0, 0)) == 0.0

    def test_cells_and_probs_are_the_read_only_support(self):
        dist = OutcomeDistribution([[0, 0, 0, 0], [0, 1, 0, 0], [2, 0, 1, 1]],
                                   [0.5, 0.0, 0.5])
        np.testing.assert_array_equal(dist.cells, [[0, 0, 0, 0], [2, 0, 1, 1]])
        np.testing.assert_array_equal(dist.probs, [0.5, 0.5])
        assert list(map(tuple, dist.cells.tolist())) == dist.outcomes()
        for arr in (dist.cells, dist.probs):
            with pytest.raises(ValueError):
                arr[0] = 1
        with pytest.raises(AttributeError):
            dist.cells = np.zeros((1, 4), dtype=int)

    @pytest.mark.parametrize("cells", [[[0, 1], [0, 0]], [[0, 1], [0, 1]],
                                       [[1, 0], [0, 2]]])
    def test_rejects_cells_out_of_order_or_repeated(self, cells):
        with pytest.raises(ValueError, match="lexicographic"):
            OutcomeDistribution(cells, [0.5, 0.5])

    @pytest.mark.parametrize("cells, probs", [([[0, 0, 0]], [1.0]), ([0, 0], [1.0]),
                                              ([[0, 0], [0, 1]], [1.0])])
    def test_rejects_mismatched_shapes(self, cells, probs):
        with pytest.raises(ValueError, match="expected cells"):
            OutcomeDistribution(cells, probs)

    def test_readout_values_per_outcome(self):
        rho = lossy_noon_density(LossyNOONParams.balanced(1, 0.75))
        dist = outcome_distribution([rho] * 3, 3)
        w = np.exp(-2j * np.pi / 3)
        assert dist.values.shape == (len(dist.outcomes()),)
        for (n2a, n3a, n2b, n3b), v in zip(dist.outcomes(), dist.values):
            assert v == w ** (n2a + 2 * n3a - n2b - 2 * n3b)
