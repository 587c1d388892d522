import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptmoments import circuits, fock
from ptmoments.errors import (BudgetError, DomainError, HermiticityError,
                              StateValidationError)
from ptmoments.fock import (
    DEFAULT_TOL,
    BipartiteDensityOperator,
    ModeCutoff,
    coherent_cutoff,
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
    HHGParams,
    LossyNOONParams,
    NOONParams,
    cat_density,
    hhg_reduced_density,
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
    @pytest.mark.parametrize("blocky", [False, True])
    @pytest.mark.parametrize("seed", range(4))
    def test_residue_is_the_full_matrix_formula(self, dim, chunk_bytes, blocky, seed,
                                                monkeypatch):
        # the block-wise residue, on the row chunks read from the matrix and
        # on the gathered blocks of the positivity check, against the dense
        # formula; the blocky matrices keep non-hermitian noise inside their
        # blocks, and every matrix has a non-real diagonal
        if chunk_bytes is not None:
            monkeypatch.setattr(fock, "_CHUNK_BYTES", chunk_bytes)
        rng = np.random.default_rng(seed)
        mat = random_density(rng, dim)
        mat += 1e-9 * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        if blocky:
            labels = rng.integers(0, max(1, dim // 5), dim)
            mat *= labels[:, None] == labels
        residue = fock._block_checks(mat, mat != 0, False)[0]
        assert residue == np.abs(mat - mat.conj().T).max()
        # imaginary diagonal noise of zero sum keeps the trace within its
        # tolerance, so the constructor also takes the gathered blocks
        x = 1e-9 * rng.standard_normal(dim)
        np.fill_diagonal(mat, mat.diagonal().real + 1j * (x - x.mean()))
        mat /= np.trace(mat).real
        assert abs(np.trace(mat) - 1.0) <= DEFAULT_TOL.trace
        residue = fock._block_checks(mat, mat != 0, True)[0]
        assert residue == np.abs(mat - mat.conj().T).max()
        message = f"hermiticity residue {residue:.3e} > {DEFAULT_TOL.herm:.1e}"
        with pytest.raises(HermiticityError, match=f"^{re.escape(message)}$"):
            BipartiteDensityOperator(ModeCutoff(dim, 1), mat)

    @pytest.mark.parametrize("check_psd", [True, False])
    def test_non_real_diagonal_is_refused(self, check_psd):
        # the only non-hermitian entries are on the diagonal, of zero sum, so
        # the trace stays 1 and both ways of reading the blocks meet them
        mat, i, j = self.two_blocks()
        mat[i, i] += 1e-3j
        mat[j, j] -= 1e-3j
        assert np.trace(mat) == pytest.approx(1.0, abs=1e-15)
        with pytest.raises(HermiticityError, match="^hermiticity residue 2.000e-03 > 1.0e-09$"):
            BipartiteDensityOperator(ModeCutoff(4, 3), mat, check_psd=check_psd)

    @staticmethod
    def two_blocks():
        """A 12 x 12 state of two blocks (4 and 5 nodes, three empty), permuted,
        and a node of each block."""
        rng = np.random.default_rng(5)
        mat = np.zeros((12, 12), dtype=complex)
        mat[:4, :4] = 0.4 * random_density(rng, 4)
        mat[4:9, 4:9] = 0.6 * random_density(rng, 5)
        mat = 0.5 * (mat + mat.conj().T)
        perm = rng.permutation(12)
        node = np.argsort(perm)  # where each original node went
        return mat[np.ix_(perm, perm)], int(node[1]), int(node[6])

    @pytest.mark.parametrize("case, error, message", [
        ("one_sided", HermiticityError, "hermiticity residue 1.414e-03 > 1.0e-09"),
        ("one_sided_to_empty", HermiticityError, "hermiticity residue 1.414e-03 > 1.0e-09"),
        ("nan", StateValidationError, "matrix has non-finite entries"),
        ("inf", StateValidationError, "matrix has non-finite entries"),
        ("-inf", StateValidationError, "matrix has non-finite entries"),
        ("overflowing_pair", HermiticityError, "hermiticity residue inf > 1.0e-09"),
    ])
    @pytest.mark.parametrize("check_psd", [True, False])
    def test_defect_between_two_blocks(self, case, error, message, check_psd):
        # an entry outside every block of the rest of the matrix joins the
        # two blocks it touches, so the block-wise check meets it with its
        # zero partner and raises what the dense check raises
        mat, i, j = self.two_blocks()
        if case == "one_sided":
            mat[i, j] = 1e-3 + 1e-3j
        elif case == "one_sided_to_empty":
            j = int(np.flatnonzero(~(mat != 0).any(axis=0))[0])
            mat[j, i] = 1e-3 - 1e-3j
        elif case == "overflowing_pair":
            mat[i, j], mat[j, i] = 1e308, -1e308
        else:
            mat[i, j] = float(case)
        if error is HermiticityError:
            with np.errstate(over="ignore"):
                residue = np.abs(mat - mat.conj().T).max()
            assert message == f"hermiticity residue {residue:.3e} > 1.0e-09"
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            BipartiteDensityOperator(ModeCutoff(4, 3), mat, check_psd=check_psd)

    @pytest.mark.parametrize("eigvalsh_raises", [False, True])
    def test_overflowing_symmetrised_block_is_refused(self, eigvalsh_raises, monkeypatch):
        # hermitian and of unit trace, but 0.5 * (m + m^H) overflows to inf in
        # one block: its minimum eigenvalue is NaN, never a certified block,
        # also where LAPACK would raise on the inf instead of returning NaN
        if eigvalsh_raises:
            eigvalsh = np.linalg.eigvalsh

            def strict(a):
                if not np.isfinite(a).all():
                    raise np.linalg.LinAlgError("Eigenvalues did not converge")
                return eigvalsh(a)
            monkeypatch.setattr(np.linalg, "eigvalsh", strict)
        dim = 12
        mat = np.eye(dim, dtype=complex) / dim
        mat[3, 7] = mat[7, 3] = 1e308
        BipartiteDensityOperator(ModeCutoff(4, 3), mat, check_psd=False)
        with pytest.raises(StateValidationError, match="^minimum eigenvalue nan < -1.0e-08$"):
            BipartiteDensityOperator(ModeCutoff(4, 3), mat)

    @pytest.mark.parametrize("dim", [180, 182])
    def test_unchecked_matrix_is_never_labelled(self, dim, monkeypatch):
        # without the positivity check the support is read as one block, at
        # any size; with it, the pattern is labelled once
        calls = []
        labels = fock._component_labels
        monkeypatch.setattr(fock, "_component_labels",
                            lambda pattern: calls.append(1) or labels(pattern))
        vec = np.zeros(dim)
        vec[[0, 2]] = 1.0
        BipartiteDensityOperator.from_state_vector(vec, ModeCutoff(dim, 1))
        BipartiteDensityOperator(ModeCutoff(dim, 1), np.eye(dim) / dim, check_psd=False)
        assert calls == []
        BipartiteDensityOperator(ModeCutoff(dim, 1), np.eye(dim) / dim)
        assert calls == [1]

    @pytest.mark.parametrize("dim", [12, 400])
    def test_unchecked_residue_on_the_support_is_the_dense_residue(self, dim, rng):
        # rows and columns outside the support are zero on both sides of the
        # transpose; an asymmetric pair inside it names the dense residue
        mat = np.zeros((dim, dim), dtype=complex)
        keep = rng.choice(dim, 5, replace=False)
        mat[np.ix_(keep, keep)] = random_density(rng, 5)
        mat[keep[1], keep[3]] += 2e-8
        residue = np.abs(mat - mat.conj().T).max()
        with pytest.raises(HermiticityError, match=f"^hermiticity residue {residue:.3e} "):
            BipartiteDensityOperator(ModeCutoff(dim, 1), mat, check_psd=False)
        mat[keep[1], keep[3]] -= 2e-8
        mat[keep[4], keep[0]] = np.nan
        with pytest.raises(StateValidationError, match="non-finite"):
            BipartiteDensityOperator(ModeCutoff(dim, 1), mat, check_psd=False)
        # a zero matrix has an empty support, and its trace names the refusal
        with pytest.raises(StateValidationError, match="^trace 0j "):
            BipartiteDensityOperator(ModeCutoff(dim, 1), np.zeros((dim, dim)), check_psd=False)


def frozen(mat):
    """A read-only complex C-ordered copy of ``mat`` that owns its memory."""
    mat = np.array(mat, dtype=complex)
    mat.setflags(write=False)
    return mat


class TestKeptMatrix:
    """The constructor keeps a frozen caller array, checks it as it checks a
    copy, and copies every other array; the nonzero scan reads the float view."""

    def test_frozen_array_that_owns_its_memory_is_kept(self, rng):
        mat = frozen(random_density(rng, 9))
        before = mat.copy()
        rho = embed(mat, ModeCutoff(3, 3))
        assert rho.matrix is mat
        np.testing.assert_array_equal(mat, before)
        assert embed(rho.matrix, rho.cutoff).matrix is mat

    @pytest.mark.parametrize("kind", ["writeable", "read_only_view", "fortran", "float"])
    def test_other_arrays_are_copied(self, kind, rng):
        base = random_density(rng, 9)
        if kind == "writeable":
            mat = base
        elif kind == "read_only_view":
            mat = base.view()
            mat.setflags(write=False)
        elif kind == "fortran":
            mat = np.asfortranarray(base)
            mat.setflags(write=False)
        else:
            mat = np.ascontiguousarray(base.real + base.real.T) / np.trace(base.real) / 2
            mat.setflags(write=False)
        assert mat.base is None or kind == "read_only_view"
        before, writeable = mat.copy(), mat.flags.writeable
        rho = embed(mat, ModeCutoff(3, 3))
        assert not np.shares_memory(rho.matrix, mat)
        assert rho.matrix.flags.c_contiguous and rho.matrix.dtype == complex
        assert mat.flags.writeable == writeable
        np.testing.assert_array_equal(mat, before)
        np.testing.assert_array_equal(rho.matrix, before)

    @staticmethod
    def special_values():
        return [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 5e-324,
                5e-324j, -5e-324, 2.5e-3j, -2.5e-3, complex(1e-3, -0.0)]

    @pytest.mark.parametrize("rows_per_chunk", [1, 3, 4, 50])
    def test_scan_is_the_nonzero_pattern_bitwise(self, rows_per_chunk, monkeypatch):
        # every value sits on both sides of a row-chunk boundary
        monkeypatch.setattr(fock, "_CHUNK_BYTES", 16 * 12 * rows_per_chunk)
        values = self.special_values() + [
            np.nan, complex(np.nan, 0.0), complex(0.0, np.nan), complex(-0.0, np.nan),
            np.inf, -np.inf, complex(0.0, np.inf), complex(-0.0, -np.inf),
            complex(np.inf, np.nan)]
        mat = np.zeros((12, 12), dtype=complex)
        for i, x in enumerate(values):
            row = (2 + 4 * i) % 12
            mat[row, i % 12], mat[(row + 1) % 12, (5 * i) % 12] = x, x
        got = fock._nonzero(mat)
        assert got.dtype == bool and got.shape == mat.shape
        np.testing.assert_array_equal(got, mat != 0)

    @pytest.mark.parametrize("check_psd", [True, False])
    @pytest.mark.parametrize("keep", [True, False])
    def test_stored_bits_across_a_chunk_boundary(self, check_psd, keep, monkeypatch):
        # hermitian pairs of signed zeros, subnormals and pure-imaginary entries
        # straddle every boundary of two-row chunks
        monkeypatch.setattr(fock, "_CHUNK_BYTES", 16 * 12 * 2)
        mat = np.eye(12, dtype=complex) / 12
        for i, x in enumerate(self.special_values()):
            r, c = 1 + i, (4 + 3 * i) % 12
            if r != c:
                mat[r, c], mat[c, r] = x, np.conj(x)
        rho = BipartiteDensityOperator(ModeCutoff(4, 3), frozen(mat) if keep else mat, check_psd)
        assert (rho.matrix is not mat) and (rho.matrix.base is None)
        np.testing.assert_array_equal(rho._pattern(), mat != 0)
        np.testing.assert_array_equal(rho._bits, np.packbits(mat != 0, axis=1))

    @pytest.mark.parametrize("case, check_psd", [
        *itertools.product(["non_hermitian", "trace", "nan", "inf"], [True, False]),
        ("not_psd", True)])
    def test_frozen_matrix_is_refused_as_its_writeable_copy(self, case, check_psd):
        mat = np.eye(6, dtype=complex) / 6
        if case == "non_hermitian":
            mat[0, 4] = 0.1j
        elif case == "not_psd":
            mat[0, 0], mat[1, 1] = -0.5, 0.5 + 2 / 6
        elif case == "trace":
            mat *= 1.5
        else:
            mat[2, 5] = np.nan if case == "nan" else complex(0.0, np.inf)
        with pytest.raises((HermiticityError, StateValidationError)) as copied:
            BipartiteDensityOperator(ModeCutoff(3, 2), mat.copy(), check_psd)
        kept = frozen(mat)
        with pytest.raises(type(copied.value), match=f"^{re.escape(str(copied.value))}$"):
            BipartiteDensityOperator(ModeCutoff(3, 2), kept, check_psd)
        assert not kept.flags.writeable
        np.testing.assert_array_equal(kept, mat)

    @pytest.mark.parametrize("case", ["tmsv_d30", "tmsv_d40", "tmsv_d50", "cat", "random_d30"])
    def test_kept_and_copied_operators_give_the_same_bits(self, case):
        # perfbench's oracle cases: d=50 unchecked, as there
        if case.startswith("tmsv"):
            rho = tmsv_density(0.5, int(case[-2:]))
        elif case == "cat":
            rho = cat_density(CatParams(2.0, 2.0, 0.5, "odd"))
        else:
            rho = embed(random_density(np.random.default_rng(30), 900), ModeCutoff(30, 30))
        mat, cutoff = rho.matrix, rho.cutoff
        kept = BipartiteDensityOperator(cutoff, mat, check_psd=case != "tmsv_d50")
        copied = BipartiteDensityOperator(cutoff, mat.copy(), check_psd=case != "tmsv_d50")
        assert kept.matrix is mat and copied.matrix is not mat
        assert spectrum(kept).tobytes() == spectrum(copied).tobytes()
        assert pt_moments(kept, 7).tobytes() == pt_moments(copied, 7).tobytes()


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
        lam = schmidt_probabilities(vec)
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


def uncertified_minimum(mat):
    """The constructor's positivity check alone: the smallest eigenvalue of the
    blocks that fail their certificate, inf if none does."""
    return fock._block_checks(mat, mat != 0, True)[1]


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
        assert (uncertified_minimum(mat) == math.inf) == (side < 0)

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
        assert (uncertified_minimum(mat) == math.inf) == accepted
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
        assert uncertified_minimum(mat) == math.inf
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
        assert uncertified_minimum(mat) < math.inf
        lam_min = fock._block_eigvalsh(mat != 0, symmetrised_blocks(mat))[0]
        assert lam_min == pytest.approx(np.linalg.eigvalsh(mat).min(), abs=1e-15)
        message = f"minimum eigenvalue {lam_min:.3e} < -{DEFAULT_TOL.psd:.1e}"
        with pytest.raises(StateValidationError, match=f"^{re.escape(message)}$"):
            BipartiteDensityOperator(ModeCutoff(4, 2), mat)

    def test_trace_failure_is_never_factored(self, monkeypatch):
        # the trace error outranks positivity, so its matrix skips the certificate
        calls = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(1) or cholesky(a))
        with pytest.raises(StateValidationError, match="^trace "):
            embed(np.diag([1.5, -0.4, 0.0, 0.0]).astype(complex), ModeCutoff(2, 2))
        assert calls == []
        embed(np.eye(4) / 4.0, ModeCutoff(2, 2))
        assert calls == [1]

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
        assert uncertified_minimum(mat) == pytest.approx(lam_min, abs=1e-15)


def dense_pattern_spectrum(mat):
    """Block spectrum over the components of ``mat != 0``, descending: the
    formula on the matrix's own pattern, not on an operator's stored bits."""
    vals = fock._block_eigvalsh(mat != 0, lambda idx: fock._principal(mat, idx))
    return np.ascontiguousarray(vals[::-1])


class TestStoredPattern:
    """An operator keeps its matrix's nonzero pattern as bits, however it is
    built; spectrum and pt_moments read the bits, not the matrix, and stay
    bitwise equal to the formula on the dense pattern."""

    @staticmethod
    def assert_bits(op):
        pattern = op.matrix != 0
        np.testing.assert_array_equal(op._bits, np.packbits(pattern, axis=1))
        np.testing.assert_array_equal(op._pattern(), pattern)
        assert op._bits.nbytes <= op.matrix.nbytes / 128 + len(op.matrix)

    @pytest.mark.parametrize("build", [
        "constructor", "constructor_without_psd_check", "cat_density", "hhg_reduced_density",
        "lossy_noon_density", "lossy_channel", "from_state_vector", "tmsv_density",
    ])
    def test_bits_equal_the_nonzero_pattern(self, build, rng):
        if build.startswith("constructor"):
            mat = random_density(rng, 12, 3) * np.kron(np.eye(4), np.ones((3, 3)))
            op = BipartiteDensityOperator(ModeCutoff(4, 3), mat / np.trace(mat).real,
                                          check_psd=build == "constructor")
        elif build == "cat_density":
            op = cat_density(CatParams(2.0, 2.0, 0.5, "odd"))
        elif build == "hhg_reduced_density":
            op = hhg_reduced_density(HHGParams(1.0, 0.3, 3))
        elif build == "lossy_noon_density":
            op = lossy_noon_density(LossyNOONParams.balanced(3, 0.8))
        elif build == "lossy_channel":
            op = circuits.lossy_channel(bell_density(), 0.7, "a")
        elif build == "from_state_vector":
            op = BipartiteDensityOperator.from_state_vector(
                random_pure_bipartite(rng, 3, 4), ModeCutoff(3, 4))
        else:
            op = tmsv_density(0.5, 30)
        self.assert_bits(op)
        self.assert_bits(partial_transpose(op))

    @staticmethod
    def assert_outputs_match_dense_pattern(rho):
        assert spectrum(rho).tobytes() == dense_pattern_spectrum(rho.matrix).tobytes()
        w = dense_pattern_spectrum(partial_transpose(rho).matrix)
        sums = np.array([np.sum(w ** n) for n in range(1, 8)])
        assert pt_moments(rho, 7).tobytes() == sums.tobytes()

    @pytest.mark.parametrize("case", ["tmsv_d30", "odd_cat", "random_d30"])
    def test_outputs_match_dense_pattern(self, case):
        if case == "tmsv_d30":
            rho = tmsv_density(0.5, 30)
        elif case == "odd_cat":
            rho = cat_density(CatParams(2.0, 2.0, 0.5, "odd"))
        else:
            rho = embed(random_density(np.random.default_rng(30), 900), ModeCutoff(30, 30))
        self.assert_outputs_match_dense_pattern(rho)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([ModeCutoff(3, 5), ModeCutoff(5, 3), ModeCutoff(2, 7)]),
           st.sampled_from([0.05, 0.2, 0.6]), st.integers(0, 3), st.integers(0, 2 ** 32 - 1))
    def test_random_asymmetric_patterns_match_dense_pattern(self, cutoff, density, one_sided,
                                                            seed):
        # a random sparse hermitian pattern with rectangular cutoffs, plus
        # entries below the tolerance without their transposed partner
        rng = np.random.default_rng(seed)
        dim = cutoff.dim
        mask = rng.random((dim, dim)) < density
        mat = random_density(rng, dim) * (mask | mask.T | np.eye(dim, dtype=bool))
        mat /= np.trace(mat).real
        for i, j in rng.integers(dim, size=(one_sided, 2)):
            if i != j and mat[i, j] == 0 and mat[j, i] == 0:
                mat[i, j] = 1e-10 * (1 + 1j)
        rho = BipartiteDensityOperator(cutoff, mat, check_psd=False)
        self.assert_bits(rho)
        self.assert_outputs_match_dense_pattern(rho)


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

    def test_constructor_without_psd_check_on_unstructured_state(self, rng):
        # no block is gathered whole: the residue reads the one block in row
        # chunks, beside the stored copy and the pattern
        mat = random_density(rng, 900)
        ratio = self.peak_ratio(
            lambda: BipartiteDensityOperator(ModeCutoff(30, 30), mat, check_psd=False), mat.nbytes)
        assert ratio <= 1.25

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


class TestLargeInputs:
    """A finite input whose squares overflow is scaled where it is a valid
    state and refused where it is not; ordinary inputs keep their bits."""

    @pytest.mark.parametrize("big", [1e300, -1e300, 1.7e308])
    def test_state_vector_whose_squares_overflow_is_scaled(self, big):
        rho = BipartiteDensityOperator.from_state_vector([1.0, big, 0, 0], ModeCutoff(2, 2))
        assert np.isfinite(rho.matrix).all()
        assert rho.matrix[1, 1] == 1.0 and abs(rho.matrix[0, 1]) == pytest.approx(1 / abs(big))

    def test_ordinary_state_vector_keeps_its_bits(self, rng):
        v = random_pure_bipartite(rng, 3, 4).reshape(-1) * 3.0
        rho = BipartiteDensityOperator.from_state_vector(v, ModeCutoff(3, 4))
        u = v / np.linalg.norm(v)
        assert rho.matrix.tobytes() == np.outer(u, u.conj()).tobytes()

    @pytest.mark.parametrize("scale", [1.0, 3.0, 1e-170, 1e300])
    def test_schmidt_probabilities_are_scale_free(self, scale, rng):
        coeffs = random_pure_bipartite(rng, 3, 4)
        s = np.linalg.svd(coeffs, compute_uv=False)
        lam = s ** 2 / np.sum(s ** 2)
        got = schmidt_probabilities(coeffs * scale)
        if scale == 1.0:  # the parent formula, bit for bit
            assert got.tobytes() == lam[lam > 1e-15].tobytes()
        np.testing.assert_allclose(got, lam, rtol=1e-13)

    def test_zero_coefficients_are_refused(self):
        with pytest.raises(DomainError, match="zero"):
            schmidt_probabilities(np.zeros((2, 3)))

    @pytest.mark.parametrize("lam", [[0.5, 1.5], [1.0, -0.1], [2.0, -1.0]])
    @pytest.mark.parametrize("n", [2, 3])
    def test_probability_outside_the_unit_interval_is_refused(self, lam, n):
        with pytest.raises(DomainError, match=r"\[0, 1\]"):
            pure_state_pt_moment(lam, n)

    def test_probability_within_the_trace_tolerance_of_one_is_read(self):
        assert pure_state_pt_moment([1.0 + 1e-12, 0.0], 3) == (1.0 + 1e-12) ** 3

    @pytest.mark.parametrize("alpha", [1e300, -1e300, 1e155j])
    def test_displacement_whose_square_overflows_is_refused(self, alpha):
        with pytest.raises(DomainError, match="must be finite"):
            coherent_cutoff([1.0, alpha])


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

    @pytest.mark.parametrize("tol", [1e-6, 1e-12])
    def test_matches_pdtrc_reference_at_large_means(self, tol):
        # past a mean of about 750 the first term of a tail summed upward
        # from far below the mode underflows to 0
        from scipy.special import pdtrc
        for alpha in (27.0, 27.5, 30.0, 35.0, 40.0):  # means 729 to 1600
            d = 1
            while pdtrc(d - 1, alpha ** 2) >= tol:
                d += 1
            assert coherent_cutoff([alpha], tol=tol) == d + 1

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, 0.5])
    def test_tolerance_outside_the_open_half_interval_is_rejected(self, tol):
        # tol = 0 would search without end, and NaN would stop at d = 1
        for alpha in (0.0, 1.0, 3.0):
            with pytest.raises(DomainError):
                coherent_cutoff([alpha], tol=tol)

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
