import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptmoments import fock
from ptmoments.errors import CutoffError, HermiticityError, StateValidationError
from ptmoments.fock import (
    DEFAULT_TOL,
    BipartiteDensityOperator,
    ModeCutoff,
    coherent_cutoff,
    mode_moment,
    partial_transpose,
    pt_moment,
    pt_moments,
    pure_state_pt_moment,
    purity,
    schmidt_probabilities,
    spectrum,
)
from ptmoments.states import CatParams, NOONParams, cat_density, noon_density, tmsv_density

from conftest import random_density, random_pure_bipartite


def bell_density():
    return noon_density(NOONParams.balanced(1), ModeCutoff(2, 2))


def embed(rho, cutoff):
    return BipartiteDensityOperator(cutoff, rho)


class TestValidation:
    def test_rejects_non_hermitian(self):
        mat = np.eye(4, dtype=complex)
        mat[0, 1] = 0.1
        with pytest.raises(HermiticityError):
            embed(mat, ModeCutoff(2, 2))

    def test_rejects_bad_trace(self):
        with pytest.raises(StateValidationError):
            embed(np.eye(4) / 3.0, ModeCutoff(2, 2))

    def test_rejects_negative_state(self):
        mat = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
        with pytest.raises(StateValidationError):
            embed(mat, ModeCutoff(2, 2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (1, 2)])
    def test_rejects_non_finite(self, bad, where):
        mat = np.eye(4, dtype=complex) / 4.0
        mat[where] = bad
        with pytest.raises(StateValidationError):
            embed(mat, ModeCutoff(2, 2))

    def test_matrix_is_read_only(self):
        rho = bell_density()
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 2.0


class TestPartialTranspose:
    def test_elementwise_definition(self, rng):
        cutoff = ModeCutoff(3, 4)
        rho = embed(random_density(rng, 12), cutoff)
        pt = partial_transpose(rho)
        t, tp = rho.as_tensor(), pt.as_tensor()
        for i in range(3):
            for j in range(4):
                for k in range(3):
                    for l in range(4):
                        assert tp[i, j, k, l] == t[i, l, k, j]

    def test_involution(self, rng):
        rho = embed(random_density(rng, 6), ModeCutoff(2, 3))
        back = partial_transpose(partial_transpose(rho))
        np.testing.assert_array_equal(back.matrix, rho.matrix)

    def test_product_state_invariant(self, rng):
        a = random_density(rng, 3)
        b = random_density(rng, 3)
        rho = embed(np.kron(a, b), ModeCutoff(3, 3))
        pt = partial_transpose(rho)
        np.testing.assert_allclose(pt.matrix, np.kron(a, b.T), atol=1e-14)

    def test_preserves_trace_and_hermiticity(self, rng):
        rho = embed(random_density(rng, 9), ModeCutoff(3, 3))
        pt = partial_transpose(rho)
        assert abs(np.trace(pt.matrix) - 1) < 1e-14
        assert np.abs(pt.matrix - pt.matrix.conj().T).max() < 1e-14

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
    def test_keeps_residue_and_trace_exactly(self, d_a, d_b, seed):
        # the partial transpose only permutes entries, so a matrix that is
        # hermitian only within the tolerance keeps its residue and trace
        # bit for bit; this is why pt_moments need not check it again
        rng = np.random.default_rng(seed)
        dim = d_a * d_b
        scale = 0.3 * DEFAULT_TOL.herm / dim
        noise = rng.uniform(-scale, scale, (dim, dim, 2)) @ [1, 1j]
        rho = embed(random_density(rng, dim) + noise, ModeCutoff(d_a, d_b))
        pt = partial_transpose(rho)

        def residue(m):
            return np.abs(m - m.conj().T).max()

        assert 0 < residue(rho.matrix) <= DEFAULT_TOL.herm
        assert residue(pt.matrix) == residue(rho.matrix)
        assert np.trace(pt.matrix) == np.trace(rho.matrix)

    def test_bell_spectrum(self):
        vals = spectrum(partial_transpose(bell_density()))
        np.testing.assert_allclose(vals, [0.5, 0.5, 0.5, -0.5], atol=1e-12)


class TestMoments:
    def test_first_moment_is_one(self, rng):
        rho = embed(random_density(rng, 8), ModeCutoff(2, 4))
        assert pt_moment(rho, 1) == pytest.approx(1.0, abs=1e-12)

    def test_pure_product_all_unity(self, rng):
        a = random_pure_bipartite(rng, 3, 1).ravel()
        b = random_pure_bipartite(rng, 3, 1).ravel()
        rho = BipartiteDensityOperator.from_state_vector(np.kron(a, b), ModeCutoff(3, 3))
        for n in range(1, 6):
            assert pt_moment(rho, n) == pytest.approx(1.0, abs=1e-11)

    def test_bell_p3(self):
        assert pt_moment(bell_density(), 3) == pytest.approx(0.25, abs=1e-12)

    def test_purity_equals_second_moment(self, rng):
        rho = embed(random_density(rng, 9), ModeCutoff(3, 3))
        assert purity(rho) == pytest.approx(pt_moment(rho, 2), abs=1e-11)
        mixed = embed(np.diag([0.5, 0.5, 0, 0]).astype(complex), ModeCutoff(2, 2))
        assert purity(mixed) == pytest.approx(0.5, abs=1e-12)

    def test_moments_match_spectrum_power_sums(self, rng):
        rho = embed(random_density(rng, 16), ModeCutoff(4, 4))
        w = spectrum(partial_transpose(rho))
        ms = pt_moments(rho, 6)
        for n in range(1, 7):
            assert ms[n - 1] == pytest.approx(np.sum(w ** n), abs=1e-10)

    @pytest.mark.parametrize("case", ["tmsv_d30", "odd_cat", "random_d12"])
    def test_moments_are_power_sums_bitwise(self, case, rng):
        if case == "tmsv_d30":
            rho = tmsv_density(0.5, 30)
        elif case == "odd_cat":
            rho = cat_density(CatParams(2.0, 2.0, 0.5, "odd"))
        else:
            rho = embed(random_density(rng, 144), ModeCutoff(12, 12))
        w = spectrum(partial_transpose(rho))
        sums = np.array([np.sum(w ** n) for n in range(1, 8)])
        assert pt_moments(rho, 7).tobytes() == sums.tobytes()

    def test_moments_build_no_second_operator(self, rng, monkeypatch):
        # the constructor holds every check the module makes, so a validated
        # operator's moments run no finiteness, hermiticity or trace pass
        rho = embed(random_density(rng, 16), ModeCutoff(4, 4))
        built = []
        init = BipartiteDensityOperator.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(BipartiteDensityOperator, "__init__", counting_init)
        pt_moments(rho, 7)
        pt_moment(rho, 3)
        assert built == []
        partial_transpose(rho)
        assert len(built) == 1

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 5), st.integers(2, 5), st.integers(2, 7),
           st.integers(0, 2 ** 32 - 1))
    def test_schmidt_law_for_pure_states(self, d_a, d_b, n, seed):
        rng = np.random.default_rng(seed)
        vec = random_pure_bipartite(rng, d_a, d_b)
        cutoff = ModeCutoff(d_a, d_b)
        rho = BipartiteDensityOperator.from_state_vector(vec, cutoff)
        lam = schmidt_probabilities(vec, cutoff)
        assert pt_moment(rho, n) == pytest.approx(pure_state_pt_moment(lam, n), abs=1e-10)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 4), st.integers(2, 4), st.integers(0, 2 ** 32 - 1))
    def test_moment_growth_bound(self, d_a, d_b, seed):
        rng = np.random.default_rng(seed)
        rho = embed(random_density(rng, d_a * d_b), ModeCutoff(d_a, d_b))
        ms = pt_moments(rho, 7)
        p2 = ms[1]
        for n in range(2, 8):
            assert abs(ms[n - 1]) <= p2 ** (n / 2) + 1e-9


class TestSpectrum:
    def test_descending_and_trace(self):
        mat = np.diag([0.3, 0.7, 0.0, 0.0]).astype(complex)
        s = spectrum(embed(mat, ModeCutoff(2, 2)))
        np.testing.assert_allclose(s, [0.7, 0.3, 0.0, 0.0], atol=1e-14)
        assert s.sum() == pytest.approx(1.0, abs=1e-12)

    def test_vacuum_projector(self):
        mat = np.zeros((4, 4), dtype=complex)
        mat[0, 0] = 1.0
        s = spectrum(embed(mat, ModeCutoff(2, 2)))
        np.testing.assert_allclose(s, [1.0, 0.0, 0.0, 0.0], atol=1e-14)


def psd_accepted(cutoff, mat) -> bool:
    try:
        BipartiteDensityOperator(cutoff, mat)
    except StateValidationError:
        return False
    return True


class TestBlockSpectrum:
    """The block-by-block spectrum against one dense eigvalsh of the whole matrix."""

    @staticmethod
    def assert_matches_dense(cutoff, mat, atol=1e-12):
        dense = np.linalg.eigvalsh(mat)[::-1]
        np.testing.assert_allclose(fock._block_eigvalsh(mat)[::-1], dense, rtol=0, atol=atol)
        dense_min = np.linalg.eigvalsh(0.5 * (mat + mat.conj().T)).min()
        assert psd_accepted(cutoff, mat) == (dense_min >= -DEFAULT_TOL.psd)

    @pytest.mark.parametrize("case", ["tmsv_d30", "odd_cat", "random_full_rank"])
    def test_families_match_dense(self, case, rng):
        if case == "tmsv_d30":
            rho = tmsv_density(0.5, 30)
        elif case == "odd_cat":
            rho = cat_density(CatParams(2.0, 2.0, 0.5, "odd"))
        else:
            rho = embed(random_density(rng, 36), ModeCutoff(6, 6))
        for op in (rho, partial_transpose(rho)):
            self.assert_matches_dense(rho.cutoff, op.matrix)
        # the partial transposes of the two entangled families are not PSD
        assert case == "random_full_rank" or not psd_accepted(
            rho.cutoff, partial_transpose(rho).matrix)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(1, 6), min_size=1, max_size=6), st.integers(0, 4),
           st.sampled_from([0.0, 1e-3]), st.integers(0, 2 ** 32 - 1))
    def test_hidden_blocks_match_dense(self, sizes, n_zero, dent, seed):
        rng = np.random.default_rng(seed)
        dim = sum(sizes) + n_zero
        mat = np.zeros((dim, dim), dtype=complex)
        start = 0
        for size in sizes:
            rank = int(rng.integers(1, size + 1))
            block = slice(start, start + size)
            mat[block, block] = rng.uniform(0.1, 1.0) * random_density(rng, size, rank)
            start += size
        # a dent on a diagonal entry of a rank-deficient block makes the
        # matrix indefinite
        mat[0, 0] -= dent
        mat /= np.trace(mat).real
        perm = rng.permutation(dim)
        self.assert_matches_dense(ModeCutoff(dim, 1), mat[np.ix_(perm, perm)])

    @pytest.mark.parametrize("entry", [(2, 0), (0, 2)])
    def test_one_sided_entry_joins_its_block(self, entry):
        # passes the hermiticity tolerance; eigvalsh reads only the lower
        # triangle, so the lower-side entry splits the degenerate pair 0, 2
        # by 2e-12, which the block split must keep
        mat = np.eye(4, dtype=complex) / 4.0
        mat[entry] = 1e-12
        self.assert_matches_dense(ModeCutoff(2, 2), mat, atol=1e-14)


class TestModeMoment:
    def test_identity_operator(self, rng):
        rho = embed(random_density(rng, 9), ModeCutoff(3, 3))
        assert mode_moment(rho, 0, 0, 0, 0) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_noon_diagonal_moment(self, n):
        alpha, beta = 0.6, 0.8
        rho = noon_density(NOONParams(n, alpha, beta))
        val = mode_moment(rho, n, n, 0, 0)
        assert val.real == pytest.approx(alpha ** 2 * math.factorial(n), abs=1e-10)
        assert abs(val.imag) < 1e-12

    def test_noon_cross_moment_conjugate_pair(self):
        n = 2
        alpha, beta = 0.6 * np.exp(0.7j), np.sqrt(1 - 0.36) * np.exp(-0.2j)
        rho = noon_density(NOONParams(n, alpha, beta))
        lhs = mode_moment(rho, n, 0, 0, n)   # a+^n b^n
        rhs = mode_moment(rho, 0, n, n, 0)   # a^n b+^n
        assert lhs == pytest.approx(np.conj(rhs), abs=1e-11)
        assert rhs == pytest.approx(alpha * np.conj(beta) * math.factorial(n), abs=1e-10)

    def test_occupied_top_level_raises(self):
        # NOON at minimal cutoff has its top level occupied: net raising unsafe
        rho = noon_density(NOONParams.balanced(2), ModeCutoff(3, 3))
        with pytest.raises(CutoffError):
            mode_moment(rho, 2, 0, 0, 2)

    def test_number_operator(self):
        rho = noon_density(NOONParams.balanced(3))
        total = mode_moment(rho, 1, 1, 0, 0) + mode_moment(rho, 0, 0, 1, 1)
        assert total.real == pytest.approx(3.0, abs=1e-11)


class TestThermalPurity:
    def test_thermal_product_purity_from_mean_occupation(self):
        # purity of the squeezed-thermal family depends only on the mean
        # occupation; the unsqueezed member is a product of thermal modes
        n_bar = (math.sqrt(2) - 1) / 2
        d = 24
        m = np.arange(d)
        th = n_bar ** m / (n_bar + 1) ** (m + 1)
        rho = embed(np.kron(np.diag(th), np.diag(th)) / th.sum() ** 2, ModeCutoff(d, d))
        assert purity(rho) == pytest.approx(1 / (2 * n_bar + 1) ** 2, abs=1e-9)
        assert purity(rho) == pytest.approx(0.5, abs=1e-9)


class TestCoherentCutoff:
    def test_monotone_in_amplitude(self):
        assert coherent_cutoff([0.0]) <= coherent_cutoff([1.0]) <= coherent_cutoff([2.0])

    def test_tail_below_tolerance(self):
        from scipy import stats
        for a in (0.5, 1.0, 2.0):
            d = coherent_cutoff([a], tol=1e-6, guard=0)
            assert stats.poisson.sf(d - 1, a ** 2) < 1e-6
            assert stats.poisson.sf(d - 2, a ** 2) >= 1e-6
