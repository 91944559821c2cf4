import numpy as np
import pytest

from diagsim import gen_benchmark, to_dense
from diagsim.hamsim import TaylorConfig, taylor_expm


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
