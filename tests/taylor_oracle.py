"""The Taylor chain as it ran in complex128 for every H: the tests' oracle.

hamsim.taylor_expm runs the chain of a real H in float64, on P_k = T_k / (-i)^k,
and writes each (-i)^k P_k into U's complex128 sum.  This version keeps the
chain T_k = T_{k-1} (-i t H) / k in complex128 whatever H is, on the
per-diagonal oracles of scaled, add and drop_zero_diagonals, so the two must
agree bit for bit, signed zeros included.
"""

from __future__ import annotations

import numpy as np

from diagsim import diag_matmul, identity, one_norm
from diagsim.hamsim import CANCEL_EPS, term_count_for

from conftest import add_oracle, drop_zero_oracle, scaled_oracle


def complex_chain(h, t: float, terms: int | None = None, eps: float | None = None):
    """(U, the nnzd of each term) of the series of exp(-i t H), K fixed by
    terms or chosen from eps as taylor_expm chooses it."""
    m = scaled_oracle(h, -1j * t)
    k_max = terms if terms is not None else term_count_for(one_norm(m), eps)
    u = t_k = identity(h.dim)
    nnzd = []
    for k in range(1, k_max + 1):
        t_k = scaled_oracle(diag_matmul(t_k, m), 1.0 / k)
        if t_k.nnzd:
            peak = max(np.abs(d.values).max() for d in t_k.diagonals)
            t_k = drop_zero_oracle(t_k, CANCEL_EPS * peak)
        u = add_oracle(u, t_k)
        nnzd.append(t_k.nnzd)
        if not t_k.nnzd:
            break
    return u, nnzd
