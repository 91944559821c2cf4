import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diagsim import (DiagMatrix, Diagonal, dense_matmul_oracle, diag_matmul, from_dense,
                     hamsim, identity, multiply_count, spmspm, to_dense)
from diagsim.errors import DomainError, ShapeError

from conftest import (float64_copy, minkowski, overlap_range, pair_loop_matmul, pair_products,
                      rand_matrix, same_bits)


class TestMinkowski:
    def test_tridiagonal_pair(self):
        assert minkowski({-1, 0, 1}, {-1, 0, 1}) == (-2, -1, 0, 1, 2)

    def test_single_principal(self):
        assert minkowski({0}, {0}) == (0,)

    def test_sparse_corners(self):
        assert minkowski({-3, 0, 3}, {-3, 0, 3}) == (-6, -3, 0, 3, 6)


class TestOverlapRange:
    def test_corner_pair_single_product(self):
        rng = overlap_range(3, -3, 4)
        assert (rng.r_lo, rng.r_hi) == (0, 0)

    def test_main_diagonals_full_range(self):
        rng = overlap_range(0, 0, 16)
        assert (rng.r_lo, rng.r_hi) == (0, 15)
        assert len(rng) == 16

    def test_positive_offsets_clip_tail(self):
        rng = overlap_range(2, 3, 8)
        assert (rng.r_lo, rng.r_hi) == (0, 2)

    def test_empty_range(self):
        rng = overlap_range(7, 7, 8)
        assert not rng
        assert len(rng) == 0

    def test_matches_dense_support(self):
        # the range derivation is the index-truth gate: validate against a
        # dense product of single-diagonal matrices
        rng_gen = np.random.default_rng(41)
        for _ in range(200):
            n = int(rng_gen.integers(2, 24))
            da = int(rng_gen.integers(-(n - 1), n))
            db = int(rng_gen.integers(-(n - 1), n))
            a = rand_matrix(rng_gen, n, offsets=[da])
            b = rand_matrix(rng_gen, n, offsets=[db])
            dense = to_dense(a) @ to_dense(b)
            rows = np.nonzero(np.diagonal(dense, offset=da + db))[0]
            rng = overlap_range(da, db, n)
            if rows.size == 0:
                # dense support can only shrink via accidental zero values
                assert len(rng) >= 0
            else:
                lo = rows.min() + max(0, -(da + db))
                hi = rows.max() + max(0, -(da + db))
                assert rng.r_lo <= lo and hi <= rng.r_hi
                assert len(rng) == rows.size  # random values are never zero


class TestDiagMatmul:
    def test_identity_absorbs(self):
        rng = np.random.default_rng(43)
        x = rand_matrix(rng, 12)
        c = diag_matmul(identity(12), x)
        assert c.offsets == x.offsets
        assert np.array_equal(c.values, x.values)

    def test_corner_matrix_squared(self, corner_matrix):
        m = from_dense(corner_matrix)
        c = diag_matmul(m, m)
        assert set(c.offsets) <= set(minkowski(m.offsets, m.offsets))
        # entry (0,0) picks up both the diagonal square and the corner loop
        assert to_dense(c)[0, 0] == corner_matrix[0, 0] ** 2 + corner_matrix[0, 3] * corner_matrix[3, 0]
        assert np.allclose(to_dense(c), corner_matrix @ corner_matrix)

    def test_matches_oracle_randomized(self):
        rng = np.random.default_rng(47)
        for _ in range(60):
            n = int(rng.integers(2, 65))
            a = rand_matrix(rng, n)
            b = rand_matrix(rng, n)
            got = to_dense(diag_matmul(a, b))
            want = dense_matmul_oracle(to_dense(a), to_dense(b))
            scale = max(np.linalg.norm(want), 1e-300)
            assert np.linalg.norm(got - want) / scale < 1e-12

    def test_offset_sum_rule(self):
        rng = np.random.default_rng(53)
        for _ in range(40):
            n = int(rng.integers(2, 40))
            a = rand_matrix(rng, n)
            b = rand_matrix(rng, n)
            c = diag_matmul(a, b)
            assert set(c.offsets) <= set(minkowski(a.offsets, b.offsets))

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            diag_matmul(identity(3), identity(4))

    def test_deterministic_accumulation(self):
        rng = np.random.default_rng(59)
        a = rand_matrix(rng, 32)
        b = rand_matrix(rng, 32)
        assert same_bits(diag_matmul(a, b), diag_matmul(a, b))


def _check_against_oracles(a, b):
    got = diag_matmul(a, b)
    want = pair_loop_matmul(a, b)
    assert got.offsets == tuple(want)
    for diag in got.diagonals:
        ref = want[diag.offset]
        assert np.max(np.abs(diag.values - ref)) <= 1e-12 * np.max(np.abs(ref))
    dense = dense_matmul_oracle(to_dense(a), to_dense(b))
    scale = max(np.linalg.norm(dense), 1e-300)
    assert np.linalg.norm(to_dense(got) - dense) / scale <= 1e-12


@st.composite
def operand_pairs(draw, real=False):
    """Random operands of one dim, from empty to every diagonal present."""
    n = draw(st.integers(1, 40))
    offsets = st.lists(st.integers(-(n - 1), n - 1), max_size=2 * n - 1, unique=True)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rand_matrix(rng, n, offsets=sorted(draw(offsets)), real=real)
    b = rand_matrix(rng, n, offsets=sorted(draw(offsets)), real=real)
    return a, b


class TestKernelAgainstOracles:
    @settings(max_examples=200, deadline=None)
    @given(operand_pairs(), st.sampled_from([1, 3, spmspm.BLOCK]))
    def test_random_operands(self, pair, block):
        # small blocks split A into several layout passes
        saved, spmspm.BLOCK = spmspm.BLOCK, block
        try:
            _check_against_oracles(*pair)
        finally:
            spmspm.BLOCK = saved

    @settings(max_examples=200, deadline=None)
    @given(operand_pairs(real=True), st.sampled_from([1, 3, spmspm.BLOCK]))
    def test_real_operands_match_pair_loop_bit_for_bit(self, pair, block):
        # a real product rounds the same in any array shape, so only the
        # summation order, ascending dA per output diagonal, sets the bits
        saved, spmspm.BLOCK = spmspm.BLOCK, block
        try:
            got = diag_matmul(*pair)
        finally:
            spmspm.BLOCK = saved
        want = pair_loop_matmul(*pair)
        assert got.offsets == tuple(want)
        for diag in got.diagonals:
            assert diag.values.tobytes() == want[diag.offset].tobytes()

    @settings(max_examples=200, deadline=None)
    @given(operand_pairs(real=True), st.sampled_from([1, 3, spmspm.BLOCK]))
    def test_float64_operands_follow_numpy_promotion(self, pair, block):
        twin_a, twin_b = pair  # complex128 buffers of real values
        a, b = float64_copy(twin_a), float64_copy(twin_b)
        saved, spmspm.BLOCK = spmspm.BLOCK, block
        try:
            got, twin = diag_matmul(a, b), diag_matmul(twin_a, twin_b)
            mixed = [diag_matmul(a, twin_b), diag_matmul(twin_a, b)]
        finally:
            spmspm.BLOCK = saved
        assert got.values.dtype == np.float64 and got.offsets == twin.offsets
        assert got.values.tobytes() == twin.values.real.tobytes()
        for c in mixed:
            assert c.offsets == twin.offsets and c.values.tobytes() == twin.values.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(operand_pairs(real=True), st.integers(0, 2**32 - 1))
    def test_dense_product_matches_pair_loop_bit_for_bit(self, pair, seed):
        # hamsim's dense Taylor product adds each entry's terms from +0.0 in
        # ascending inner index, as the pair loop does, whatever the values:
        # stored zeros, negatives, subnormals and products that underflow
        rng = np.random.default_rng(seed)
        a, b = (float64_copy(m) for m in pair)
        for m in (a, b):
            kind = rng.integers(0, 4, len(m.values))
            m.values[kind == 1] = 0.0
            m.values[kind == 2] = 5e-324 * rng.integers(-3, 4, np.count_nonzero(kind == 2))
            m.values[kind == 3] *= 1e-160
        got = hamsim._dense_product(hamsim._csr_t(b), to_dense(a).real.T).T
        want = np.zeros((a.dim, a.dim))
        for d, values in pair_loop_matmul(a, b).items():
            rows = np.arange(max(0, -d), a.dim - max(0, d))
            want[rows, rows + d] = values.real
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n, offs_a, offs_b", [
        (1, [0], [0]),
        (5, [], [0, 2]),
        (5, [1], []),
        (5, [-4, 4], [-4, 4]),           # corner diagonals; sums at +-8 leave the matrix
        (5, [4], [-4, -3, 0, 1, 2, 3]),  # narrow A
        (5, [-4, -3, 0, 1, 2, 3], [4]),  # narrow B
        (6, list(range(-5, 6)), list(range(-5, 6))),
    ])
    def test_edge_cases(self, n, offs_a, offs_b):
        rng = np.random.default_rng(71)
        _check_against_oracles(rand_matrix(rng, n, offsets=offs_a),
                               rand_matrix(rng, n, offsets=offs_b))

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("k_b", [1, 2])
    def test_overflowing_product_rejected(self, k_b):
        big = np.full(3, 1e200, dtype=complex)
        a = DiagMatrix(3, (Diagonal(0, big),))
        b = DiagMatrix(3, tuple(Diagonal(d, big[:3 - d]) for d in range(k_b)))
        with pytest.raises(DomainError):
            diag_matmul(a, b)
        with pytest.raises(DomainError):
            diag_matmul(b, a)


class TestWorkCount:
    def test_equals_overlap_sum_and_bound(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            n = int(rng.integers(2, 48))
            a = rand_matrix(rng, n)
            b = rand_matrix(rng, n)
            padded = sum(len(rng_) for _, _, rng_, _ in _pairs(a, b))
            count = multiply_count(a.offsets, b.offsets, n)
            assert count == padded
            assert count <= n * a.nnzd * b.nnzd

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 40).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.integers(-(n - 1), n - 1), max_size=8, unique=True),
        st.lists(st.integers(-(n - 1), n - 1), max_size=8, unique=True))))
    def test_vectorized_count_equals_overlap_loop(self, case):
        # offset sums reach (-2N, 2N): those pairs must count zero
        n, offs_a, offs_b = case
        want = sum(len(overlap_range(da, db, n)) for da in offs_a for db in offs_b)
        assert multiply_count(offs_a, offs_b, n) == want
        assert type(multiply_count(tuple(offs_a), tuple(offs_b), n)) is int

    def test_empty_overlap_contributes_nothing(self):
        a = rand_matrix(np.random.default_rng(1), 4, offsets=[3])
        b = rand_matrix(np.random.default_rng(2), 4, offsets=[3])
        assert multiply_count(a.offsets, b.offsets, 4) == 0
        assert diag_matmul(a, b).nnzd == 0


def _pairs(a, b):
    return [(da, db, rng, prod) for da, db, rng, prod in pair_products(a, b)]


class TestDenseOracle:
    def test_identity_product(self):
        eye = np.eye(4, dtype=complex)
        assert np.array_equal(dense_matmul_oracle(eye, eye), eye)

    def test_nilpotent_pair(self):
        a = np.array([[0, 1], [0, 0]], dtype=complex)
        b = np.array([[0, 0], [1, 0]], dtype=complex)
        assert np.array_equal(dense_matmul_oracle(a, b), [[1, 0], [0, 0]])

    def test_shape_checks(self):
        with pytest.raises(ShapeError):
            dense_matmul_oracle(np.zeros((2, 3)), np.zeros((3, 2)))
        with pytest.raises(ShapeError):
            dense_matmul_oracle(np.zeros((2, 2)), np.zeros((3, 3)))
