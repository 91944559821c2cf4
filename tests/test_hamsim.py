import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings

from diagsim import DiagMatrix, diag_matmul, diagmat, gen_benchmark, hamsim, identity, to_dense
from diagsim.diagmat import COMPLEX, from_coo
from diagsim.errors import DomainError, VerificationError
from diagsim.hamsim import GridSetup, TaylorConfig, simulate_product, taylor_expm
from diagsim.memory import CacheConfig, SetAssocCache

from conftest import csr_t_oracle, edge_matrices, same_bits
from taylor_oracle import complex_chain


def dense_taylor_oracle(h: np.ndarray, t: float, terms: int) -> np.ndarray:
    """Independent dense reference: sum of (-i t H)^k / k! by repeated matmul."""
    m = np.asarray(h, dtype=complex) * (-1j * t)
    acc = np.eye(h.shape[0], dtype=complex)
    term = np.eye(h.shape[0], dtype=complex)
    for k in range(1, terms + 1):
        term = term @ m / k
        acc = acc + term
    return acc


@pytest.mark.parametrize("model", ["heisenberg", "tfim"])
def test_functional_series_matches_dense_series(model):
    h = gen_benchmark(model, 4)
    u, records = taylor_expm(h, TaylorConfig(t=0.7, terms=12))
    assert len(records) == 12
    want = dense_taylor_oracle(to_dense(h), 0.7, 12)
    assert np.linalg.norm(to_dense(u) - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("model", ["heisenberg", "tfim"])
def test_functional_series_is_bit_identical_to_per_diagonal_chain(model):
    h = gen_benchmark(model, 6)
    u, records = taylor_expm(h, TaylorConfig(t=0.5, eps=1e-8))
    want, _ = complex_chain(h, 0.5, terms=len(records))
    assert u.offsets == want.offsets
    assert u.values.tobytes() == want.values.tobytes()


def test_functional_chain_builds_no_diagonal_views(monkeypatch):
    h = gen_benchmark("heisenberg", 6)
    h = DiagMatrix.packed(h.dim, h.offsets, h.values.copy())  # no views cached yet

    def refuse(*args):
        raise AssertionError("built a per-diagonal view")

    monkeypatch.setattr(diagmat, "Diagonal", refuse)
    u, _ = taylor_expm(h, TaylorConfig(t=0.5, eps=1e-8))
    diag_matmul(u, h)
    diag_matmul(h, u)


@pytest.mark.parametrize("model, qubits", [("heisenberg", 4), ("tfim", 5), ("maxcut", 6)])
def test_simulated_series_is_bit_identical_to_functional(model, qubits):
    # the grid model only counts: both paths take every product from diag_matmul
    h = gen_benchmark(model, qubits)
    grid = GridSetup(rows=4, cols=4)
    u_sim, sim = taylor_expm(h, TaylorConfig(t=0.5, eps=1e-8), grid)
    u_fun, fun = taylor_expm(h, TaylorConfig(t=0.5, eps=1e-8))
    assert u_sim.offsets == u_fun.offsets
    assert u_sim.values.tobytes() == u_fun.values.tobytes()
    assert [(r.nnzd, r.nnze) for r in sim] == [(r.nnzd, r.nnze) for r in fun]
    assert sum(r.counters["multiplies"] for r in sim) > 0


def test_iteration_nnze_counts_nonzero_entries():
    h = gen_benchmark("heisenberg", 4)
    _, records = taylor_expm(h, TaylorConfig(t=0.5, terms=4))
    t_k = identity(h.dim)
    m = h.scaled(-0.5j)
    for k, record in enumerate(records, start=1):
        t_k = diag_matmul(t_k, m).scaled(1.0 / k)
        assert record.nnze == np.count_nonzero(to_dense(t_k))


def test_plan_missing_an_output_diagonal_fails_coverage(monkeypatch):
    h = gen_benchmark("tfim", 4)
    real = hamsim.run_job

    def forgetful(*args, **kwargs):
        result = real(*args, **kwargs)
        return result._replace(offsets=[d for d in result.offsets if d != 0])

    monkeypatch.setattr(hamsim, "run_job", forgetful)
    grid = GridSetup(rows=8, cols=8)
    with pytest.raises(VerificationError, match=r"no job touches: \[0\]"):
        simulate_product(h.dim, h.offsets, h.offsets, diag_matmul(h, h).offsets, grid,
                         SetAssocCache(grid.cache))


def test_each_chain_counts_its_own_distinct_products(monkeypatch):
    # Q and -Q share offsets and the band fills, so a chain repeats products;
    # no plan or grid figure outlives the taylor_expm call that counted it
    h, cfg = gen_benchmark("heisenberg", 4), TaylorConfig(t=1.0, eps=1e-8)
    calls = {"run_job": 0, "charge_job": 0}
    for name in calls:
        real = getattr(hamsim, name)

        def counting(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(hamsim, name, counting)
    grids = [GridSetup(rows=4, cols=4), GridSetup(rows=4, cols=4),
             GridSetup(rows=2, cols=8, cache=CacheConfig(sets=1, ways=3)), GridSetup(rows=4, cols=4)]
    runs = []
    for grid in grids:
        before = dict(calls)
        _, records = taylor_expm(h, cfg, grid)
        runs.append((calls["run_job"] - before["run_job"],
                     calls["charge_job"] - before["charge_job"], records))
    assert runs[0][:2] == runs[1][:2] == runs[3][:2]
    assert runs[0][0] < runs[0][1]  # fewer grid jobs run than charged
    for grid, (_, _, records) in zip(grids, runs):
        _, fields = complex_chain(h, 1.0, eps=1e-8, grid=grid)
        assert [(r.stage_cycles, r.counters, r.mem) for r in records] == [f[3:] for f in fields]
    assert runs[2][2] != runs[0][2] == runs[3][2]


# the couplings' signs, t's sign and a short chain all reach U's signed zeros:
# forming (-i)^k P_k by a complex multiply gives -0.0 where the complex chain
# gives +0.0 in the zero component of a chain's last terms (terms 2, 3, 7 here)
REAL_CASES = [("heisenberg", 4, {}), ("heisenberg", 6, {"jx": 0.8, "jy": 0.8, "jz": -1.3}),
              ("heisenberg", 8, {}), ("tfim", 5, {}), ("tfim", 6, {"g": -0.7}), ("tfim", 8, {}),
              ("maxcut", 4, {}), ("maxcut", 8, {"seed": 3})]


@pytest.mark.parametrize("t, terms", [(0.5, None), (-0.3, None), (1.5, 2), (0.5, 3), (-0.8, 7)])
@pytest.mark.parametrize("model, qubits, couplings", REAL_CASES,
                         ids=[f"{m}-{q}-{i}" for i, (m, q, _) in enumerate(REAL_CASES)])
def test_real_chain_u_is_bit_identical_to_complex_chain(monkeypatch, model, qubits, couplings,
                                                        t, terms):
    h = gen_benchmark(model, qubits, **couplings)
    eps = None if terms else 1e-8
    grid = GridSetup(rows=16, cols=16)
    want, fields = complex_chain(h, t, terms, eps, grid)
    dense = _dense_calls(monkeypatch)
    for use_simulator in (False, True):
        cfg = TaylorConfig(t=t, terms=terms, eps=eps)
        u, records = taylor_expm(h, cfg, grid if use_simulator else None)
        assert [(r.nnzd, r.nnze, r.storage_scalars) for r in records] == [f[:3] for f in fields]
        assert same_bits(u, want)
    # the simulated leg charged every product as the packed chain plans it
    assert [(r.stage_cycles, r.counters, r.mem) for r in records] == [f[3:] for f in fields]
    if model == "maxcut":
        assert not dense  # a diagonal H keeps a diagonal term
    elif qubits == 8 and terms in (None, 7):
        assert dense  # the benchmark's inputs cross the switch


def _dense_calls(monkeypatch) -> list:
    """The R^T shape of every dense product hamsim takes, as it runs."""
    calls, real = [], hamsim._dense_product

    def spy(q_t, r_t):
        calls.append(r_t.shape)
        return real(q_t, r_t)

    monkeypatch.setattr(hamsim, "_dense_product", spy)
    return calls


def _product_dtypes(monkeypatch) -> list:
    """The operand dtypes of every product hamsim takes, as it runs: the packed
    buffers of each diag_matmul, and Q_k^T and R^T of each dense product."""
    seen, packed, dense = [], hamsim.diag_matmul, hamsim._dense_product

    def packed_spy(a, b):
        seen.append((a.values.dtype, b.values.dtype))
        return packed(a, b)

    def dense_spy(q_t, r_t):
        seen.append((q_t.dtype, r_t.dtype))
        return dense(q_t, r_t)

    monkeypatch.setattr(hamsim, "diag_matmul", packed_spy)
    monkeypatch.setattr(hamsim, "_dense_product", dense_spy)
    return seen


@pytest.mark.parametrize("use_simulator", [False, True], ids=["functional", "simulated"])
def test_real_hamiltonian_multiplies_in_float64(monkeypatch, use_simulator):
    seen = _product_dtypes(monkeypatch)
    grid = GridSetup(rows=4, cols=4) if use_simulator else None
    u, _ = taylor_expm(gen_benchmark("tfim", 4), TaylorConfig(t=0.5, terms=6), grid)
    assert seen == [(np.float64, np.float64)] * 6
    assert u.values.dtype == COMPLEX


@pytest.mark.parametrize("use_simulator", [False, True], ids=["functional", "simulated"])
def test_complex_hamiltonian_keeps_the_complex_chain(monkeypatch, use_simulator):
    # X (x) Y has one Y factor, so imaginary entries; Z (x) I adds a real diagonal
    x, y, z = np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1.0, -1.0])
    dense = np.kron(x, y) + 0.5 * np.kron(z, np.eye(2))
    rows, cols = np.nonzero(dense)
    h = from_coo(4, rows, cols, dense[rows, cols])
    seen = _product_dtypes(monkeypatch)
    grid = GridSetup(rows=2, cols=2) if use_simulator else None
    u, _ = taylor_expm(h, TaylorConfig(t=0.7, eps=1e-12), grid)
    assert seen and all(pair == (COMPLEX, COMPLEX) for pair in seen)
    assert np.linalg.norm(to_dense(u) - scipy.linalg.expm(-0.7j * dense), 2) <= 1e-11
    assert same_bits(u, complex_chain(h, 0.7, eps=1e-12)[0])


@pytest.mark.parametrize("k", range(1, 9))
def test_term_is_the_complex_chain_scaling_of_a_product(k):
    # the kernel's products hold no -0.0; a subnormal may still scale to -0.0
    rng = np.random.default_rng(k)
    product = np.concatenate([rng.standard_normal(20), np.zeros(3),
                              5e-324 * rng.integers(-3, 4, 20)]) + 0.0
    complex_product = np.zeros(len(product), COMPLEX)
    complex_product.view(np.float64)[k % 2::2] = product  # its one nonzero component
    r = DiagMatrix.packed(len(product), (0,), product * (1.0 / k))
    got = hamsim._term(r, k).values
    assert got.tobytes() == (complex_product * (1.0 / k)).tobytes()


def test_underflow_after_the_switch_hands_the_chain_back_to_the_packed_kernel(monkeypatch):
    # entries near 1e-108 fill the band at once, and T_3's product holds
    # subnormals that the 1/3 scaling takes to zero (to -0.0 where negative)
    base = np.array([[1.0, -2.0, 0.5, 3.0], [-2.0, -1.0, 1.5, -0.5],
                     [0.5, 1.5, 2.0, -1.0], [3.0, -0.5, -1.0, 0.25]])
    rows, cols = np.nonzero(base)
    h = from_coo(4, rows, cols, base[rows, cols] * 1e-108)
    kinds, packed, dense = [], hamsim.diag_matmul, hamsim._dense_product
    monkeypatch.setattr(hamsim, "diag_matmul", lambda a, b: kinds.append("packed") or packed(a, b))
    monkeypatch.setattr(hamsim, "_dense_product",
                        lambda q_t, r_t: kinds.append("dense") or dense(q_t, r_t))
    u, records = taylor_expm(h, TaylorConfig(t=1.0, terms=6))
    want, fields = complex_chain(h, 1.0, terms=6)
    assert kinds == ["packed", "dense", "dense", "packed", "packed"]  # k = 3 runs twice
    assert [(r.nnzd, r.nnze, r.storage_scalars) for r in records] == fields
    assert same_bits(u, want)


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@pytest.mark.parametrize("signs", ["positive", "mixed"])
@pytest.mark.parametrize("use_simulator", [False, True])
def test_overflow_after_the_switch_raises_as_the_packed_chain_does(monkeypatch, signs,
                                                                   use_simulator):
    # the band fills at k = 1; T_4's product overflows (to -inf, or with NaN
    # where signs mix), and the packed chain's product check names diagonal -3
    base = np.arange(1.0, 17.0).reshape(4, 4)
    if signs == "mixed":
        base[::2, 1::2] *= -1
    rows, cols = np.nonzero(base)
    h = from_coo(4, rows, cols, base[rows, cols])
    dense = _dense_calls(monkeypatch)
    with pytest.raises(DomainError, match=r"^diagonal -3 contains non-finite values$"):
        taylor_expm(h, TaylorConfig(t=1e100, terms=6), GridSetup() if use_simulator else None)
    assert len(dense) == 3  # k = 2, 3 and the overflowing k = 4


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("use_simulator", [False, True])
def test_sum_overflow_after_the_switch_raises_at_its_step(monkeypatch, use_simulator):
    # rows 0 and 5 of H couple at 1.7e308 to a block that squares to -1, so
    # every product stays finite while U's entries in those rows sum, like
    # sinh(1), past the float64 range at k = 3
    g = np.zeros((6, 6))
    g[1:5, 1:5] = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
    g[0, 1:5] = g[5, 1:5] = 1.7e308
    rows, cols = np.nonzero(g)
    h = from_coo(6, rows, cols, g[rows, cols])
    dense = _dense_calls(monkeypatch)
    with pytest.raises(DomainError, match=r"^diagonal -4 contains non-finite values$"):
        taylor_expm(h, TaylorConfig(t=1.0, terms=6), GridSetup() if use_simulator else None)
    assert len(dense) == 2  # k = 2 and 3, as the packed chain stops at k = 3


@settings(max_examples=200, deadline=None)
@given(edge_matrices())
def test_csr_transpose_matches_the_coordinate_oracle(m):
    # built from the diagonals, Q^T may lose explicit zeros, which add nothing
    # to a dense product's sums (test_dense_product_matches_pair_loop_bit_for_bit)
    got, want = hamsim._csr_t(m), csr_t_oracle(m)
    assert got.shape == want.shape and got.dtype == m.values.dtype and got.has_sorted_indices
    got.eliminate_zeros()
    want.eliminate_zeros()
    assert got.indptr.tolist() == want.indptr.tolist()
    assert got.indices.tolist() == want.indices.tolist()
    assert got.data.tobytes() == want.data.tobytes()


def test_a_narrow_term_never_turns_dense(monkeypatch):
    # maxcut's H is diagonal, so every term is; dense, U alone would take 512 MB
    def refuse(*args):
        raise AssertionError("a diagonal term turned dense")

    monkeypatch.setattr(hamsim, "_DenseChain", refuse)
    h = gen_benchmark("maxcut", 12)
    _, records = taylor_expm(h, TaylorConfig(t=0.5, terms=12))
    assert len(records) == 12 and all(r.nnzd == 1 for r in records)
