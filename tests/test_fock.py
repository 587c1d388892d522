import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptmoments import fock
from ptmoments.errors import (BudgetError, CutoffError, DomainError, HermiticityError,
                              StateValidationError)
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
from ptmoments.states import (
    CatParams,
    LossyNOONParams,
    NOONParams,
    cat_density,
    lossy_noon_density,
    tmsv_density,
    tmsv_vector,
)

from conftest import random_density, random_pure_bipartite


def bell_density():
    return lossy_noon_density(LossyNOONParams.balanced(1, 1.0), ModeCutoff(2, 2))


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

    def test_caller_matrix_is_copied(self, rng):
        mat = random_density(rng, 9)
        before = mat.copy()
        rho = embed(mat, ModeCutoff(3, 3))
        assert mat.flags.writeable
        np.testing.assert_array_equal(mat, before)
        assert not np.shares_memory(rho.matrix, mat)

    def test_hermiticity_defect_in_last_partial_chunk(self):
        # the residue is taken one row chunk at a time; a defect whose two
        # entries both lie in the last, shorter chunk must still be found,
        # with the residue of the dense formula in the message
        cutoff = ModeCutoff(20, 15)
        dim = cutoff.dim
        rows = fock._row_chunks(dim)[0].stop
        assert rows < dim and dim % rows != 0
        mat = np.eye(dim, dtype=complex) / dim
        mat[dim - 1, dim - 2] = 1.5e-9 + 0.7e-9j
        residue = np.abs(mat - mat.conj().T).max()
        with pytest.raises(HermiticityError, match=re.escape(f"residue {residue:.3e} ")):
            embed(mat, cutoff)

    @staticmethod
    def last_chunk_cutoff():
        cutoff = ModeCutoff(20, 15)
        rows = fock._row_chunks(cutoff.dim)[0].stop
        assert rows < cutoff.dim and cutoff.dim % rows != 0
        return cutoff

    @pytest.mark.parametrize("case", ["nan_lower_last_chunk", "inf_diagonal",
                                      "inf_real_pair", "inf_imag_pair"])
    def test_non_finite_found_by_the_residue_pass(self, case):
        cutoff = self.last_chunk_cutoff()
        dim = cutoff.dim
        mat = np.eye(dim, dtype=complex) / dim
        if case == "nan_lower_last_chunk":
            mat[dim - 1, dim - 2] = np.nan
        elif case == "inf_diagonal":
            mat[dim - 1, dim - 1] = np.inf
        elif case == "inf_real_pair":
            mat[3, dim - 1] = mat[dim - 1, 3] = np.inf
        else:
            mat[3, dim - 1] = complex(0.0, np.inf)
            mat[dim - 1, 3] = complex(0.0, -np.inf)
        with pytest.raises(StateValidationError, match="^matrix has non-finite entries$"):
            embed(mat, cutoff)

    def test_overflowing_finite_pair_is_a_hermiticity_defect(self):
        # every entry is finite; only the residue overflows
        cutoff = self.last_chunk_cutoff()
        dim = cutoff.dim
        mat = np.eye(dim, dtype=complex) / dim
        mat[3, dim - 1], mat[dim - 1, 3] = 1e308, -1e308
        with pytest.raises(HermiticityError, match=re.escape("hermiticity residue inf > 1.0e-09")):
            embed(mat, cutoff)

    @pytest.mark.parametrize("dim, chunk_bytes", [(7, None), (300, None), (300, 4096),
                                                  (61, 16 * 61 * 5)])
    @pytest.mark.parametrize("seed", range(4))
    def test_residue_is_the_full_matrix_formula(self, dim, chunk_bytes, seed, monkeypatch):
        if chunk_bytes is not None:
            monkeypatch.setattr(fock, "_CHUNK_BYTES", chunk_bytes)
        rng = np.random.default_rng(seed)
        mat = random_density(rng, dim)
        mat += 1e-9 * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        assert fock._hermiticity_residue(mat) == np.abs(mat - mat.conj().T).max()


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
        init = BipartiteDensityOperator._init

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(BipartiteDensityOperator, "_init", counting_init)
        pt_moments(rho, 7)
        pt_moment(rho, 3)
        assert built == []
        partial_transpose(rho)
        assert len(built) == 1

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([ModeCutoff(3, 5), ModeCutoff(5, 3)]), st.integers(1, 15),
           st.booleans(), st.integers(0, 2 ** 32 - 1))
    def test_rectangular_cutoffs_match_index_loop(self, cutoff, rank, sparse, seed):
        # against a partial transpose built entry by entry and one dense
        # eigvalsh; the sparse states give partial transposes with blocks
        rng = np.random.default_rng(seed)
        d_a, d_b, dim = cutoff.d_a, cutoff.d_b, cutoff.dim
        if sparse:
            vec = np.zeros(dim, dtype=complex)
            vec[rng.choice(dim, size=rank, replace=False)] = rng.standard_normal((rank, 2)) @ [1, 1j]
            mat = 0.5 * np.outer(vec, vec.conj()) / np.vdot(vec, vec).real
            mat += 0.5 * np.diag(rng.dirichlet(np.ones(dim)))
        else:
            mat = random_density(rng, dim, rank)
        rho = embed(mat, cutoff)
        t = rho.as_tensor()
        pt = np.empty((dim, dim), dtype=complex)
        for i, j, k, l in itertools.product(range(d_a), range(d_b), range(d_a), range(d_b)):
            pt[i * d_b + j, k * d_b + l] = t[i, l, k, j]
        w = np.linalg.eigvalsh(pt)
        dense = [np.sum(w ** n) for n in range(1, 8)]
        np.testing.assert_allclose(pt_moments(rho, 7), dense, rtol=0, atol=1e-12)

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
        blocks = fock._block_eigvalsh(mat != 0, lambda idx: fock._principal(mat, idx))
        np.testing.assert_allclose(blocks[::-1], dense, rtol=0, atol=atol)
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

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(1, 6), min_size=1, max_size=5), st.booleans(),
           st.sampled_from([0.0, 1e-3]), st.integers(0, 2 ** 32 - 1))
    def test_psd_verdict_on_nearly_hermitian(self, sizes, cross, dent, seed):
        # hermitian only within the tolerance: each block carries non-hermitian
        # noise, and an optional anti-hermitian pair between the first and
        # last block vanishes in 0.5 * (m + m^H) but not in the pattern of m
        rng = np.random.default_rng(seed)
        dim = sum(sizes)
        scale = 0.3 * DEFAULT_TOL.herm / dim
        mat = np.zeros((dim, dim), dtype=complex)
        start = 0
        for size in sizes:
            block = slice(start, start + size)
            rank = int(rng.integers(1, size + 1))
            noise = rng.uniform(-scale, scale, (size, size, 2)) @ [1, 1j]
            mat[block, block] = random_density(rng, size, rank) + noise
            start += size
        if cross and len(sizes) > 1:
            mat[0, dim - 1] = 0.2 * DEFAULT_TOL.herm * (1 + 1j)
            mat[dim - 1, 0] = -np.conj(mat[0, dim - 1])
        mat[0, 0] -= dent
        mat /= np.trace(mat).real
        perm = rng.permutation(dim)
        mat = mat[np.ix_(perm, perm)]
        assert np.abs(mat - mat.conj().T).max() <= DEFAULT_TOL.herm
        dense_min = np.linalg.eigvalsh(0.5 * (mat + mat.conj().T)).min()
        assert psd_accepted(ModeCutoff(dim, 1), mat) == (dense_min >= -DEFAULT_TOL.psd)

    @pytest.mark.parametrize("entry", [(2, 0), (0, 2)])
    def test_one_sided_entry_joins_its_block(self, entry):
        # passes the hermiticity tolerance; eigvalsh reads only the lower
        # triangle, so the lower-side entry splits the degenerate pair 0, 2
        # by 2e-12, which the block split must keep
        mat = np.eye(4, dtype=complex) / 4.0
        mat[entry] = 1e-12
        self.assert_matches_dense(ModeCutoff(2, 2), mat, atol=1e-14)


def symmetrised_blocks(mat):
    """The constructor's eigenvalue gather: principal blocks of 0.5 * (m + m^H)."""
    def gather(idx):
        blocks = fock._principal(mat, idx)
        blocks += blocks.conj().swapaxes(1, 2)
        blocks *= 0.5
        return blocks
    return gather


def with_spectrum(rng, eigvals):
    """Hermitian matrix with the given eigenvalues in a random unitary basis."""
    dim = len(eigvals)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q = np.linalg.qr(g)[0]
    return (q * np.asarray(eigvals)) @ q.conj().T


class TestPsdCertificate:
    """The constructor accepts by a Cholesky certificate and names a rejection
    by the global minimum eigenvalue of the dense check."""

    @pytest.mark.parametrize("dim", [2, 9, 36])
    @pytest.mark.parametrize("side", [-1, 1])
    @pytest.mark.parametrize("seed", range(3))
    def test_boundary_verdict_matches_dense(self, dim, side, seed):
        rng = np.random.default_rng(seed)
        lam_min = -DEFAULT_TOL.psd * (1 + side * 1e-4)
        rest = rng.uniform(0.5, 1.0, dim - 1)
        rest *= (1 - lam_min) / rest.sum()
        mat = with_spectrum(rng, np.concatenate([[lam_min], rest]))
        mat = 0.5 * (mat + mat.conj().T)
        dense_min = np.linalg.eigvalsh(mat).min()
        assert (dense_min >= -DEFAULT_TOL.psd) == (side < 0)
        assert psd_accepted(ModeCutoff(dim, 1), mat) == (side < 0)
        assert (fock._uncertified_minimum(mat) == math.inf) == (side < 0)

    @pytest.mark.parametrize("chunk_bytes", [None, 16 * 60 * 8])
    @pytest.mark.parametrize("lam_min, side", [(-0.5e-8, -1), (-1.5e-8, 1)])
    def test_certificate_reads_the_symmetrised_matrix(self, lam_min, side, chunk_bytes,
                                                      monkeypatch, rng):
        # an anti-hermitian defect within the tolerance, s * (L - L^H) with L
        # the strict lower triangle of v v^H, v the minimum eigenvector: it
        # vanishes from 0.5 * (m + m^H), but the lower triangle of m alone
        # would move the minimum eigenvalue by about s across -psd
        if chunk_bytes is not None:
            monkeypatch.setattr(fock, "_CHUNK_BYTES", chunk_bytes)
        dim, s = 60, 2e-8
        v = np.exp(2j * np.pi * rng.random(dim)) / np.sqrt(dim)
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        g[:, 0] = v
        q = np.linalg.qr(g)[0]
        rest = rng.uniform(0.5, 1.0, dim - 1)
        rest *= (1 - lam_min) / rest.sum()
        mat = (q * np.concatenate([[lam_min], rest])) @ q.conj().T
        mat = 0.5 * (mat + mat.conj().T)
        lower = s * np.tril(np.outer(q[:, 0], q[:, 0].conj()), -1)
        mat += side * (lower - lower.conj().T)
        assert np.abs(mat - mat.conj().T).max() <= DEFAULT_TOL.herm
        accepted = lam_min >= -DEFAULT_TOL.psd
        assert (fock._uncertified_minimum(mat) == math.inf) == accepted
        assert psd_accepted(ModeCutoff(dim, 1), mat) == accepted

    @pytest.mark.parametrize("case", ["rank1_d30", "tmsv_d30", "odd_cat", "rank_deficient_blocks"])
    def test_low_rank_states_are_certified(self, case, rng):
        if case == "rank1_d30":
            mat = random_density(rng, 900, 1)
        elif case == "tmsv_d30":
            mat = tmsv_density(0.5, 30).matrix
        elif case == "odd_cat":
            mat = cat_density(CatParams(2.0, 2.0, 0.5, "odd")).matrix
        else:
            sizes = [1, 4, 4, 7, 12]
            mat = np.zeros((28, 28), dtype=complex)
            start = 0
            for size in sizes:
                block = slice(start, start + size)
                mat[block, block] = random_density(rng, size, max(1, size // 3))
                start += size
            perm = rng.permutation(28)
            mat = mat[np.ix_(perm, perm)] / len(sizes)
        assert fock._uncertified_minimum(mat) == math.inf
        dim = len(mat)
        BipartiteDensityOperator(ModeCutoff(dim, 1), mat)

    def test_rejection_names_the_global_minimum(self, rng):
        # two indefinite blocks of different sizes; the smaller minimum lies
        # in the second block
        mat = np.zeros((8, 8), dtype=complex)
        mat[:3, :3] = with_spectrum(rng, [-2e-3, 0.2, 0.3])
        mat[3:, 3:] = with_spectrum(rng, [-5e-3, 0.1, 0.1, 0.1, 0.207])
        perm = rng.permutation(8)
        mat = mat[np.ix_(perm, perm)]
        mat = 0.5 * (mat + mat.conj().T) / np.trace(mat).real
        assert fock._uncertified_minimum(mat) < math.inf
        lam_min = fock._block_eigvalsh(mat != 0, symmetrised_blocks(mat))[0]
        assert lam_min == pytest.approx(np.linalg.eigvalsh(mat).min(), abs=1e-15)
        message = f"minimum eigenvalue {lam_min:.3e} < -{DEFAULT_TOL.psd:.1e}"
        with pytest.raises(StateValidationError, match=f"^{re.escape(message)}$"):
            BipartiteDensityOperator(ModeCutoff(4, 2), mat)

    def test_rejection_labels_the_pattern_once(self, rng, monkeypatch):
        # the certificate's pass also names the rejection: one labelling, and
        # the minimum of the failing blocks is the dense minimum eigenvalue
        calls = []
        labels = fock._component_labels
        monkeypatch.setattr(fock, "_component_labels",
                            lambda pattern: calls.append(1) or labels(pattern))
        mat = np.zeros((6, 6), dtype=complex)
        mat[:2, :2] = with_spectrum(rng, [-1e-3, 0.3])
        mat[2:, 2:] = with_spectrum(rng, [0.1, 0.2, 0.2, 0.201])
        lam_min = np.linalg.eigvalsh(mat).min()
        with pytest.raises(StateValidationError, match="^minimum eigenvalue -1.000e-03 <"):
            BipartiteDensityOperator(ModeCutoff(3, 2), mat)
        assert len(calls) == 1
        assert fock._uncertified_minimum(mat) == pytest.approx(lam_min, abs=1e-15)


def scipy_labels(pattern):
    """Reference labelling: scipy's undirected connected components, which
    numbers the components by their smallest node."""
    from scipy import sparse
    from scipy.sparse.csgraph import connected_components
    return connected_components(sparse.csr_array(pattern), directed=False)[1]


def path_pattern(n, reverse=False):
    p = np.zeros((n, n), dtype=bool)
    i = np.arange(n - 1)
    p[(i + 1, i) if reverse else (i, i + 1)] = True
    return p


def star_pattern(n, centre):
    p = np.zeros((n, n), dtype=bool)
    p[centre, :] = True
    return p


class TestComponentLabels:
    """fock._component_labels against scipy's connected components: the same
    partition, numbered by smallest node, on patterns read but not written."""

    @staticmethod
    def assert_matches_scipy(pattern, chunk_bytes=None):
        before = pattern.copy()
        with pytest.MonkeyPatch.context() as mp:
            if chunk_bytes is not None:
                mp.setattr(fock, "_CHUNK_BYTES", chunk_bytes)
            labels = fock._component_labels(pattern)
        np.testing.assert_array_equal(labels, scipy_labels(pattern))
        np.testing.assert_array_equal(pattern, before)

    @pytest.mark.parametrize("name, pattern", [
        ("one node", np.ones((1, 1), dtype=bool)),
        ("one empty node", np.zeros((1, 1), dtype=bool)),
        ("isolated", np.zeros((50, 50), dtype=bool)),
        ("diagonal", np.eye(50, dtype=bool)),
        ("path", path_pattern(300)),
        ("reversed path", path_pattern(300, reverse=True)),
        ("star from 0", star_pattern(40, 0)),
        ("star into 0", star_pattern(40, 0).T.copy()),
        ("star from last", star_pattern(40, 39)),
        ("full", np.ones((300, 300), dtype=bool)),
    ])
    @pytest.mark.parametrize("chunk_bytes", [None, 64])
    def test_fixed_patterns(self, name, pattern, chunk_bytes):
        self.assert_matches_scipy(pattern, chunk_bytes)

    @pytest.mark.parametrize("case", ["tmsv_d30", "odd_cat"])
    def test_partial_transpose_patterns(self, case):
        rho = (tmsv_density(0.5, 30) if case == "tmsv_d30"
               else cat_density(CatParams(2.0, 2.0, 0.5, "odd")))
        for op in (rho, partial_transpose(rho)):
            self.assert_matches_scipy(op.matrix != 0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 60), st.sampled_from([0.01, 0.05, 0.2, 0.9]), st.booleans(),
           st.integers(0, 5), st.sampled_from([None, 32, 512]),
           st.integers(0, 2 ** 32 - 1))
    def test_random_asymmetric_patterns(self, n, density, zero_diagonal, n_empty,
                                        chunk_bytes, seed):
        # asymmetric entries, some nodes with an empty row and column, and
        # small chunks so that edges cross chunk boundaries
        rng = np.random.default_rng(seed)
        pattern = rng.random((n, n)) < density
        if zero_diagonal:
            np.fill_diagonal(pattern, False)
        empty = rng.choice(n, size=min(n_empty, n), replace=False)
        pattern[empty, :] = False
        pattern[:, empty] = False
        perm = rng.permutation(n)
        self.assert_matches_scipy(pattern[np.ix_(perm, perm)], chunk_bytes)


class TestMemory:
    """Peak traced allocation of the oracle on TMSV d=30, against the size of
    its matrix: one stored copy, row-chunk temporaries, no transposed matrix."""

    @staticmethod
    def peak_ratio(build, nbytes):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = build()  # noqa: F841 -- the result counts: held while the peak is read
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        return peak / nbytes

    def test_constructor_with_psd_check(self):
        rho = tmsv_density(0.5, 30)
        ratio = self.peak_ratio(lambda: BipartiteDensityOperator(rho.cutoff, rho.matrix),
                                rho.matrix.nbytes)
        assert ratio <= 1.5

    def test_constructor_with_psd_check_on_unstructured_state(self, rng):
        # one 900 x 900 block: the stored copy, the gathered block and its
        # Cholesky factor; the block is symmetrised and shifted in place
        mat = random_density(rng, 900)
        ratio = self.peak_ratio(lambda: BipartiteDensityOperator(ModeCutoff(30, 30), mat),
                                mat.nbytes)
        assert ratio <= 3.1

    def test_from_state_vector(self):
        vec = tmsv_vector(0.5, 30)
        cutoff = ModeCutoff(30, 30)
        ratio = self.peak_ratio(lambda: BipartiteDensityOperator.from_state_vector(vec, cutoff),
                                16 * cutoff.dim ** 2)
        assert ratio <= 1.5

    def test_pt_moments(self):
        rho = tmsv_density(0.5, 30)
        assert self.peak_ratio(lambda: pt_moments(rho, 7), rho.matrix.nbytes) <= 0.25

    @pytest.mark.parametrize("build", [
        lambda: cat_density(CatParams(8.0, 8.0, 0.5)),  # coherent_cutoff([8]) = 107
        lambda: tmsv_density(0.5, 10_000),
    ])
    def test_oversized_dense_matrix_refused_before_allocation(self, build):
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError):
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_dense_bound(self):
        ModeCutoff(8192, 1)  # 2^30 bytes of complex128 hold an 8192 x 8192 matrix
        with pytest.raises(BudgetError):
            ModeCutoff(8193, 1)

    def test_component_labels_on_unstructured_pattern(self, rng):
        # a random d=30 state is one component with every entry nonzero; the
        # scan holds row chunks, not index arrays over the whole pattern
        mat = random_density(rng, 900)
        pattern = mat != 0
        assert self.peak_ratio(lambda: fock._component_labels(pattern), mat.nbytes) <= 0.5


class TestModeMoment:
    def test_identity_operator(self, rng):
        rho = embed(random_density(rng, 9), ModeCutoff(3, 3))
        assert mode_moment(rho, 0, 0, 0, 0) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_noon_diagonal_moment(self, n):
        alpha, beta = 0.6, 0.8
        rho = lossy_noon_density(LossyNOONParams(NOONParams(n, alpha, beta), 1.0, 1.0))
        val = mode_moment(rho, n, n, 0, 0)
        assert val.real == pytest.approx(alpha ** 2 * math.factorial(n), abs=1e-10)
        assert abs(val.imag) < 1e-12

    def test_noon_cross_moment_conjugate_pair(self):
        n = 2
        alpha, beta = 0.6 * np.exp(0.7j), np.sqrt(1 - 0.36) * np.exp(-0.2j)
        rho = lossy_noon_density(LossyNOONParams(NOONParams(n, alpha, beta), 1.0, 1.0))
        lhs = mode_moment(rho, n, 0, 0, n)   # a+^n b^n
        rhs = mode_moment(rho, 0, n, n, 0)   # a^n b+^n
        assert lhs == pytest.approx(np.conj(rhs), abs=1e-11)
        assert rhs == pytest.approx(alpha * np.conj(beta) * math.factorial(n), abs=1e-10)

    def test_occupied_top_level_raises(self):
        # NOON at minimal cutoff has its top level occupied: net raising unsafe
        rho = lossy_noon_density(LossyNOONParams.balanced(2, 1.0), ModeCutoff(3, 3))
        with pytest.raises(CutoffError):
            mode_moment(rho, 2, 0, 0, 2)

    def test_number_operator(self):
        rho = lossy_noon_density(LossyNOONParams.balanced(3, 1.0))
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
    ALPHAS = np.round(np.arange(0.0, 6.0 + 1e-12, 0.05), 10)

    def test_monotone_in_amplitude(self):
        assert coherent_cutoff([0.0]) <= coherent_cutoff([1.0]) <= coherent_cutoff([2.0])

    def test_tail_below_tolerance(self):
        from scipy import stats
        for a in (0.5, 1.0, 2.0):
            d = coherent_cutoff([a], tol=1e-6, guard=0)
            assert stats.poisson.sf(d - 1, a ** 2) < 1e-6
            assert stats.poisson.sf(d - 2, a ** 2) >= 1e-6

    @pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-13])
    @pytest.mark.parametrize("guard", [0, 1])
    def test_matches_pdtrc_reference(self, tol, guard):
        from scipy.special import pdtrc
        for a in self.ALPHAS:
            d = 1
            while pdtrc(d - 1, a ** 2) >= tol:
                d += 1
            assert coherent_cutoff([a], tol=tol, guard=guard) == d + guard

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, complex(0.5, math.nan)])
    def test_non_finite_displacement_rejected(self, alpha):
        with pytest.raises(DomainError):
            coherent_cutoff([1.0, alpha])

    def test_tail_against_pdtrc(self):
        from scipy.special import pdtrc
        for a in self.ALPHAS:
            mean = float(a ** 2)
            for k in range(400):
                tail, ref = fock._poisson_tail(k, mean), pdtrc(k, mean)
                if mean == 0:
                    assert tail == 0.0
                elif ref > 1e-300:
                    assert abs(tail - ref) <= 1e-12 * ref, (k, mean)

    def test_tail_against_pdtrc_at_large_means(self):
        # past a mean of about 750 the first term of an upward sum from far
        # below the mode underflows to 0
        from scipy.special import pdtrc
        for mean in (729.0, 756.25, 1600.0):
            for k in range(0, 2000, 3):
                tail, ref = fock._poisson_tail(k, mean), pdtrc(k, mean)
                if ref > 1e-300:
                    assert abs(tail - ref) <= 1e-11 * ref, (k, mean)

    @pytest.mark.parametrize("tol", [1e-6, 1e-12])
    def test_matches_upward_sum_below_its_underflow(self, tol):
        # the tail summed from j = k + 1 up only, which is exact while its
        # first term does not underflow (|alpha| <= 27)
        def upward_tail(k, mean):
            tail, j = 0.0, k + 1
            term = math.exp(j * math.log(mean) - mean - math.lgamma(j + 1)) if mean else 0.0
            while tail + term != tail:
                tail += term
                j += 1
                term *= mean / j
            return tail

        for a in np.linspace(6.0, 27.0, 15):
            d = 1
            while upward_tail(d - 1, a ** 2) >= tol:
                d += 1
            assert coherent_cutoff([a], tol=tol) == d + 1

    def test_monotone_past_the_underflow(self):
        cutoffs = [coherent_cutoff([a]) for a in np.arange(26.0, 40.0 + 1e-9, 1.0)]
        assert np.all(np.diff(cutoffs) >= 0)
        assert coherent_cutoff([27.0]) == 863
