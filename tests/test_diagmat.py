import numpy as np
import pytest

from diagsim import (DiagMatrix, Diagonal, diag_length, drop_zero_diagonals,
                     from_dense, identity, one_norm, to_dense)
from diagsim.diagmat import rel_frobenius_error
from diagsim.errors import DomainError, ShapeError

from conftest import rand_matrix


class TestDiagLength:
    def test_large_dim(self):
        assert diag_length(1024, 3) == 1021
        assert diag_length(1024, -3) == 1021

    def test_main_diagonal_spans_matrix(self):
        assert diag_length(5, 0) == 5

    def test_corner_diagonal(self):
        assert diag_length(4, -3) == 1

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            diag_length(4, 4)
        with pytest.raises(DomainError):
            diag_length(4, -5)


class TestFromDense:
    def test_corner_matrix_layout(self, corner_matrix):
        m = from_dense(corner_matrix)
        assert m.offsets == (-3, 0, 3)
        assert np.array_equal(m.diagonal(-3).values, [5])
        assert np.array_equal(m.diagonal(0).values, [1, 3, 4, 6])
        assert np.array_equal(m.diagonal(3).values, [2])

    def test_all_zero(self):
        m = from_dense(np.zeros((4, 4)))
        assert m.nnzd == 0

    def test_identity(self):
        m = from_dense(np.eye(8))
        assert m.offsets == (0,)
        assert np.array_equal(m.diagonal(0).values, np.ones(8))

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            from_dense(np.zeros((3, 4)))


class TestToDense:
    def test_round_trip_random(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(2, 40))
            m = rand_matrix(rng, n, k=int(rng.integers(1, 6)))
            assert np.array_equal(to_dense(from_dense(to_dense(m))), to_dense(m))

    def test_single_superdiagonal(self):
        m = DiagMatrix(2, (Diagonal(1, np.array([7.0])),))
        assert np.array_equal(to_dense(m), [[0, 7], [0, 0]])

    def test_corner_matrix_inverse(self, corner_matrix):
        assert np.array_equal(to_dense(from_dense(corner_matrix)), corner_matrix)


class TestGet:
    def test_stored_corner_entry(self, corner_matrix):
        m = from_dense(corner_matrix)
        assert m.get(3, 0) == 5

    def test_unstored_diagonal_is_zero(self, corner_matrix):
        assert from_dense(corner_matrix).get(1, 0) == 0

    def test_identity_diagonal(self):
        m = identity(6)
        for k in range(6):
            assert m.get(k, k) == 1

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            identity(4).get(4, 0)

    def test_matches_dense_everywhere(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(2, 24))
            m = rand_matrix(rng, n)
            dense = to_dense(m)
            for i in range(n):
                for j in range(n):
                    assert m.get(i, j) == dense[i, j]


class TestDropZeroDiagonals:
    def test_removes_exact_zero_diagonal(self):
        m = DiagMatrix(3, (Diagonal(0, np.zeros(3)), Diagonal(1, np.ones(2))))
        out = drop_zero_diagonals(m, 0.0)
        assert out.offsets == (1,)

    def test_no_zero_diagonals_unchanged(self):
        rng = np.random.default_rng(5)
        m = rand_matrix(rng, 8, k=3)
        out = drop_zero_diagonals(m, 0.0)
        assert out.offsets == m.offsets

    def test_product_cancellation_prunes_offset(self):
        # a0 * b0 cancels against a1 * b(-1) entrywise on the main diagonal
        from diagsim import diag_matmul
        a = DiagMatrix.from_diagonals(2, {0: np.array([1.0, 1.0]), 1: np.array([1.0])})
        b = DiagMatrix.from_diagonals(2, {0: np.array([1.0, 0.0]), -1: np.array([-1.0])})
        c = diag_matmul(a, b)
        assert 0 not in c.offsets
        assert np.allclose(to_dense(c), to_dense(a) @ to_dense(b))

    def test_negative_eps_rejected(self):
        with pytest.raises(DomainError):
            drop_zero_diagonals(identity(2), -1.0)


class TestOneNorm:
    def test_identity(self):
        assert one_norm(identity(16)) == 1.0

    def test_corner_matrix_of_ones(self, corner_matrix):
        ones = (corner_matrix != 0).astype(complex)
        assert one_norm(from_dense(ones)) == 2.0

    def test_matches_dense(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            m = rand_matrix(rng, 64, k=5)
            want = np.abs(to_dense(m)).sum(axis=0).max()
            assert abs(one_norm(m) - want) <= 1e-12 * want


class TestRelFrobeniusError:
    def test_matches_dense(self):
        # offsets drawn independently, so some diagonals sit in only one operand
        rng = np.random.default_rng(263)
        for _ in range(20):
            n = int(rng.integers(1, 24))
            got, ref = rand_matrix(rng, n), rand_matrix(rng, n)
            want = np.linalg.norm(to_dense(got) - to_dense(ref)) / np.linalg.norm(to_dense(ref))
            assert rel_frobenius_error(got, ref) == pytest.approx(want, rel=1e-12)

    def test_identical_is_zero(self):
        m = rand_matrix(np.random.default_rng(269), 9)
        assert rel_frobenius_error(m, m) == 0.0

    def test_zero_reference_is_finite(self):
        assert rel_frobenius_error(DiagMatrix(3, ()), DiagMatrix(3, ())) == 0.0

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            rel_frobenius_error(identity(3), identity(4))


class TestInvariants:
    def test_storage_scalar_count(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            n = int(rng.integers(2, 50))
            m = rand_matrix(rng, n)
            assert m.storage_scalars == sum(n - abs(d) for d in m.offsets)
            assert m.storage_scalars <= n * n

    def test_full_matrix_stores_everything(self):
        n = 6
        m = from_dense(np.arange(1, n * n + 1, dtype=float).reshape(n, n))
        assert m.nnzd == 2 * n - 1
        assert m.storage_scalars == n * n

    def test_duplicate_offsets_rejected(self):
        with pytest.raises(DomainError):
            DiagMatrix(3, (Diagonal(0, np.ones(3)), Diagonal(0, np.ones(3))))

    def test_wrong_length_rejected(self):
        with pytest.raises(ShapeError):
            DiagMatrix(3, (Diagonal(1, np.ones(3)),))

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            DiagMatrix(2, (Diagonal(0, np.array([1.0, np.nan])),))

    def test_conj_transpose_mirrors_offsets(self):
        rng = np.random.default_rng(29)
        m = rand_matrix(rng, 12, k=4)
        mh = m.conj_transpose()
        assert np.allclose(to_dense(mh), to_dense(m).conj().T)
