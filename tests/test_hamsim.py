import numpy as np
import pytest

from diagsim import DiagMatrix, diag_matmul, diagmat, gen_benchmark, hamsim, identity, to_dense
from diagsim.errors import VerificationError
from diagsim.hamsim import CANCEL_EPS, GridSetup, TaylorConfig, simulate_product, taylor_expm
from diagsim.memory import SetAssocCache

from conftest import add_oracle, drop_zero_oracle, scaled_oracle


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
    u, records = taylor_expm(h, TaylorConfig(t=0.7, terms=12, use_simulator=False))
    assert len(records) == 12
    want = dense_taylor_oracle(to_dense(h), 0.7, 12)
    assert np.linalg.norm(to_dense(u) - want) <= 1e-12 * np.linalg.norm(want)


def per_diagonal_taylor(h, t: float, terms: int):
    """The functional chain of taylor_expm on the per-diagonal oracles of
    scaled, add and drop_zero_diagonals."""
    m = scaled_oracle(h, -1j * t)
    u = t_k = identity(h.dim)
    for k in range(1, terms + 1):
        t_k = scaled_oracle(diag_matmul(t_k, m), 1.0 / k)
        if t_k.nnzd:
            peak = max(np.abs(d.values).max() for d in t_k.diagonals)
            t_k = drop_zero_oracle(t_k, CANCEL_EPS * peak)
        u = add_oracle(u, t_k)
        if not t_k.nnzd:
            break
    return u


@pytest.mark.parametrize("model", ["heisenberg", "tfim"])
def test_functional_series_is_bit_identical_to_per_diagonal_chain(model):
    h = gen_benchmark(model, 6)
    u, records = taylor_expm(h, TaylorConfig(t=0.5, eps=1e-8, use_simulator=False))
    want = per_diagonal_taylor(h, 0.5, len(records))
    assert u.offsets == want.offsets
    assert u.values.tobytes() == want.values.tobytes()


def test_functional_chain_builds_no_diagonal_views(monkeypatch):
    h = gen_benchmark("heisenberg", 6)
    h = DiagMatrix.packed(h.dim, h.offsets, h.values.copy())  # no views cached yet

    def refuse(*args):
        raise AssertionError("built a per-diagonal view")

    monkeypatch.setattr(diagmat, "Diagonal", refuse)
    u, _ = taylor_expm(h, TaylorConfig(t=0.5, eps=1e-8, use_simulator=False))
    diag_matmul(u, h)
    diag_matmul(h, u)


@pytest.mark.parametrize("model, qubits", [("heisenberg", 4), ("tfim", 5), ("maxcut", 6)])
def test_simulated_series_is_bit_identical_to_functional(model, qubits):
    # the grid model only counts: both paths take every product from diag_matmul
    h = gen_benchmark(model, qubits)
    grid = GridSetup(rows=4, cols=4)
    u_sim, sim = taylor_expm(h, TaylorConfig(t=0.5, eps=1e-8), grid)
    u_fun, fun = taylor_expm(h, TaylorConfig(t=0.5, eps=1e-8, use_simulator=False))
    assert u_sim.offsets == u_fun.offsets
    assert u_sim.values.tobytes() == u_fun.values.tobytes()
    assert [(r.nnzd, r.nnze) for r in sim] == [(r.nnzd, r.nnze) for r in fun]
    assert sum(r.counters["multiplies"] for r in sim) > 0


def test_iteration_nnze_counts_nonzero_entries():
    h = gen_benchmark("heisenberg", 4)
    _, records = taylor_expm(h, TaylorConfig(t=0.5, terms=4, use_simulator=False))
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
        simulate_product(h, h, grid, SetAssocCache(grid.cache))
