import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diagsim import (COMPLEX, DiagMatrix, Diagonal, diag_length, drop_zero_diagonals,
                     from_dense, gen_benchmark, identity, one_norm, to_dense)
from diagsim.diagmat import diagonal_view, drop_below, from_coo
from diagsim.errors import DomainError, ShapeError
from diagsim.hamsim import TaylorConfig, taylor_expm

from conftest import (add_oracle, diag_matrix, drop_zero_oracle, edge_matrices,
                      from_dense_oracle, one_norm_oracle, rand_matrix, same_bits, scaled_oracle,
                      to_dense_oracle)


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
        assert np.array_equal(m.values, [5, 1, 3, 4, 6, 2])

    def test_all_zero(self):
        m = from_dense(np.zeros((4, 4)))
        assert m.nnzd == 0

    def test_identity(self):
        m = from_dense(np.eye(8))
        assert m.offsets == (0,)
        assert np.array_equal(m.values, np.ones(8))

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            from_dense(np.zeros((3, 4)))


class TestFromCoo:
    def test_no_entries(self):
        m = from_coo(5, [], [], [])
        assert (m.dim, m.nnzd, m.storage_scalars) == (5, 0, 0)

    def test_dim_one(self):
        m = from_coo(1, [0], [0], [2 - 1j])
        assert m.offsets == (0,) and m.values.tolist() == [2 - 1j]

    def test_corner_diagonals(self, corner_matrix):
        rows, cols = np.nonzero(corner_matrix)
        m = from_coo(4, rows[::-1], cols[::-1], corner_matrix[rows, cols][::-1])
        assert m.offsets == (-3, 0, 3)
        assert np.array_equal(to_dense(m), corner_matrix)

    def test_all_zero_diagonal_dropped(self):
        m = from_coo(3, [0, 1, 0], [1, 2, 0], [0.0, -0.0, 4.0])
        assert m.offsets == (0,)
        assert m.values.tolist() == [4, 0, 0]

    def test_lone_signed_zero_part_kept(self):
        m = from_coo(3, [2], [1], [complex(-0.0, 3.0)])
        want = np.array([0, complex(-0.0, 3.0)])
        assert m.offsets == (-1,) and m.values.tobytes() == want.tobytes()


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


class TestDropZeroDiagonals:
    def test_removes_exact_zero_diagonal(self):
        m = DiagMatrix(3, (Diagonal(0, np.zeros(3)), Diagonal(1, np.ones(2))))
        out = drop_zero_diagonals(m)
        assert out.offsets == (1,)

    def test_no_zero_diagonals_unchanged(self):
        rng = np.random.default_rng(5)
        m = rand_matrix(rng, 8, k=3)
        out = drop_zero_diagonals(m)
        assert out.offsets == m.offsets

    def test_product_cancellation_prunes_offset(self):
        # a0 * b0 cancels against a1 * b(-1) entrywise on the main diagonal
        from diagsim import diag_matmul
        a = diag_matrix(2, {0: np.array([1.0, 1.0]), 1: np.array([1.0])})
        b = diag_matrix(2, {0: np.array([1.0, 0.0]), -1: np.array([-1.0])})
        c = diag_matmul(a, b)
        assert 0 not in c.offsets
        assert np.allclose(to_dense(c), to_dense(a) @ to_dense(b))


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


class TestAdd:
    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            identity(3).add(identity(4))


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

    # complex128 vectors are checked without being converted or copied
    def test_wrong_shape_complex_rejected(self):
        with pytest.raises(ShapeError):
            DiagMatrix(3, (Diagonal(1, np.ones(3, dtype=complex)),))
        with pytest.raises(ShapeError):
            DiagMatrix(3, (Diagonal(0, np.ones((1, 3), dtype=complex)),))
        with pytest.raises(DomainError):
            DiagMatrix(3, (Diagonal(3, np.ones(1, dtype=complex)),))

    @pytest.mark.parametrize("bad", [np.nan, -np.inf, complex(0, np.inf)])
    def test_non_finite_complex_rejected(self, bad):
        vals = np.array([1.0, bad], dtype=complex)
        with pytest.raises(DomainError, match="diagonal -1 "):
            DiagMatrix(3, (Diagonal(-1, vals), Diagonal(0, np.ones(3, dtype=complex))))

    def test_offsets_normalized_to_int(self):
        m = DiagMatrix(3, (Diagonal(np.int64(1), np.ones(2, dtype=complex)),))
        assert type(m.offsets[0]) is int


# -- the packed buffer against a dense oracle and the per-diagonal oracles ------


def signed_zero_values(rng, length: int) -> np.ndarray:
    """Random complex values with +0.0 and -0.0 mixed in; sometimes all zeros."""
    parts = rng.standard_normal((2, length))
    zero = rng.random((2, length)) < (1.0 if rng.random() < 0.25 else 0.3)
    parts[zero] = np.copysign(0.0, rng.standard_normal(zero.sum()))
    return parts[0] + 1j * parts[1]


def oracle_dense(n: int, diags: dict) -> np.ndarray:
    grid = np.zeros((n, n), dtype=complex)
    for d, vec in diags.items():
        for r, v in enumerate(vec):
            grid[r + max(0, -d), r + max(0, -d) + d] = v
    return grid


def drop_eps(m, eps: float):
    """m without the diagonals whose entries all have magnitude <= eps."""
    return drop_below(m, np.abs(m.values), eps)[0] if m.nnzd else m


@st.composite
def packed_pairs(draw):
    """Two same-dim matrices as (offset -> values) dicts; shared diagonals of b
    sometimes cancel a's exactly."""
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    offsets = st.lists(st.integers(-(n - 1), n - 1), max_size=8, unique=True)
    a = {d: signed_zero_values(rng, n - abs(d)) for d in draw(offsets)}
    b = {d: -a[d] if d in a and rng.random() < 0.3 else signed_zero_values(rng, n - abs(d))
         for d in draw(offsets)}
    return n, a, b


@settings(max_examples=300)
@given(packed_pairs(), st.sampled_from([2.5, -0.5j, 1 / 3, -1.0, 0.0]),
       st.sampled_from([0.0, 0.5, 1.5]))
def test_packed_ops_match_dense_and_per_diagonal_oracles(pair, factor, eps):
    n, a_diags, b_diags = pair
    a, b = diag_matrix(n, a_diags), diag_matrix(n, b_diags)
    da, db = oracle_dense(n, a_diags), oracle_dense(n, b_diags)
    # storage and queries
    assert np.array_equal(to_dense(a), da)
    assert same_bits(from_dense(da), drop_zero_oracle(a))
    assert a.storage_scalars == sum(n - abs(d) for d in a_diags) == len(a.values)
    assert a.nnze == np.count_nonzero(da)
    for diag in a.diagonals:
        assert diag.values.tobytes() == a_diags[diag.offset].tobytes()
        assert np.shares_memory(diag.values, a.values)
    # whole-matrix operations against the dense oracle
    assert np.array_equal(to_dense(a.scaled(factor)), da * factor)
    assert np.array_equal(to_dense(a.add(b)), da + db)
    assert one_norm(a) == pytest.approx(np.abs(da).sum(axis=0).max(), rel=1e-12, abs=0)
    dropped = drop_eps(a, eps)
    assert dropped.offsets == tuple(d for d in sorted(a_diags)
                                    if np.abs(a_diags[d]).max() > eps)
    # bit for bit, signed zeros included, against the per-diagonal versions
    assert same_bits(a.scaled(factor), scaled_oracle(a, factor))
    assert same_bits(a.add(b), add_oracle(a, b))
    assert same_bits(b.add(a), add_oracle(b, a))
    assert same_bits(dropped, drop_zero_oracle(a, eps))
    assert same_bits(drop_zero_diagonals(a), drop_zero_oracle(a))


class TestPackedConstruction:
    def test_packed_checks_the_buffer(self):
        values = np.ones(5, dtype=complex)
        assert DiagMatrix.packed(3, (0, 1), values).offsets == (0, 1)
        with pytest.raises(ShapeError):
            DiagMatrix.packed(3, (0, 1), values[:4])
        with pytest.raises(ShapeError):
            DiagMatrix.packed(3, (0, 1), values.real)
        with pytest.raises(ShapeError):
            DiagMatrix.packed(3, (0, 1), np.ones(10, dtype=complex)[::2])
        with pytest.raises(ShapeError):  # a buffer, not per-diagonal values
            DiagMatrix.packed(3, (0, 1), [np.ones(3, dtype=complex), np.ones(2, dtype=complex)])
        with pytest.raises(DomainError):
            DiagMatrix.packed(3, (1, 0), values)
        with pytest.raises(DomainError):
            DiagMatrix.packed(3, (0, 3), values)

    def test_packed_names_the_non_finite_diagonal(self):
        # diagonal 0 holds entries 0-2, diagonal 1 entries 3-4; either part may be bad
        for entry, part, bad, named in [(4, 0, np.inf, 1), (0, 1, np.nan, 0),
                                        (2, 1, -np.inf, 0), (3, 0, np.nan, 1), (4, 1, np.nan, 1)]:
            values = np.ones(5, dtype=complex)
            values.view(np.float64)[2 * entry + part] = bad
            with pytest.raises(DomainError, match=f"diagonal {named} "):
                DiagMatrix.packed(3, (0, 1), values)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.complex64, np.int64, np.int32,
                                       bool])
    def test_other_buffer_dtypes_rejected(self, dtype):
        with pytest.raises(ShapeError, match="complex128"):
            DiagMatrix.packed(3, (0, 1), np.ones(5, dtype=dtype))

    @pytest.mark.parametrize("offsets, bad", [((0.7,), "0.7"), ((0, 1.0), "1.0"),
                                              (np.array([0.5]), "0.5"), ((True,), "True")])
    def test_packed_rejects_non_integer_offset(self, offsets, bad):
        # a float offset once truncated silently: (0.7,) built the main diagonal
        with pytest.raises(DomainError, match=f"offset {bad} is not an integer"):
            DiagMatrix.packed(3, offsets, np.ones(3 * len(offsets), dtype=complex))

    def test_diagonals_reject_non_integer_offset_before_lengths(self):
        # not a length error about "1.5 values"
        with pytest.raises(DomainError, match="offset 1.5 is not an integer"):
            DiagMatrix(3, (Diagonal(1.5, np.ones(2, dtype=complex)),))
        with pytest.raises(DomainError, match="offset 2.0 is not an integer"):
            DiagMatrix(3, (Diagonal(0, np.ones(3)), Diagonal(2.0, np.ones(1))))

    @pytest.mark.parametrize("dim", [0, 2**64 - 1])
    def test_dim_outside_int64_lengths_rejected(self, dim):
        with pytest.raises(DomainError):
            DiagMatrix(dim, ())


# -- grid conversions, one diagonal at a time, against the coordinate oracles --


LAYOUTS = ["contiguous", "transposed", "band", "band-transposed"]


def in_layout(dense: np.ndarray, layout: str) -> np.ndarray:
    """A writable copy of the square grid dense, laid out in memory as named:
    C order, F order, or the dense Taylor chain's band view (n rows of pitch
    2n - 1 in a larger buffer) and its transpose."""
    n = dense.shape[0]
    if layout == "contiguous":
        grid = np.zeros((n, n), dense.dtype)
    elif layout == "transposed":
        grid = np.zeros((n, n), dense.dtype).T
    else:
        buf = np.zeros(n * (2 * n - 1) + n - 1, dense.dtype)
        grid = buf[:n * (2 * n - 1)].reshape(n, 2 * n - 1)[:, n - 1:]
        grid = grid.T if layout == "band-transposed" else grid
    grid[...] = dense
    return grid


@settings(max_examples=300)
@given(edge_matrices(), st.sampled_from(LAYOUTS))
def test_grid_conversions_match_the_coordinate_oracles(m, layout):
    dense = to_dense_oracle(m)
    assert to_dense(m).tobytes() == dense.tobytes()
    assert one_norm(m).hex() == one_norm_oracle(m).hex()
    grid = in_layout(dense, layout)
    got = from_dense(grid)
    assert got.values.dtype == COMPLEX and same_bits(got, from_dense_oracle(grid))
    # writes through the views land where the oracle puts each entry
    written = in_layout(np.zeros_like(grid), layout)
    for d, vec in m.offset_views():
        diagonal_view(written, d)[:] = vec
    assert written.tobytes() == grid.tobytes()


def test_diagonal_view_of_a_read_only_grid_stays_read_only():
    grid = np.arange(9.0).reshape(3, 3)
    grid.flags.writeable = False
    assert not diagonal_view(grid, 1).flags.writeable
    assert same_bits(from_dense(grid), from_dense_oracle(grid))


def test_from_dense_of_a_wide_u_holds_little_beyond_its_output():
    # the coordinate gather held int64 row and column indices of every entry
    # besides the output: about twice its bytes
    u, _ = taylor_expm(gen_benchmark("heisenberg", 8), TaylorConfig(t=0.5, eps=1e-8))
    grid = to_dense(u)
    tracemalloc.start()
    try:
        got = from_dense(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert same_bits(got, from_dense_oracle(grid))
    assert got.nnzd > 300 and peak < 1.5 * got.values.nbytes
