"""The Taylor chain as it ran in complex128 for every H: the tests' oracle.

hamsim.taylor_expm runs the chain of a real H in float64, on P_k = T_k / (-i)^k,
writes each (-i)^k P_k into U's complex128 sum, and holds the term and U dense
once the term fills its band.  This version keeps the packed chain
T_k = T_{k-1} (-i t H) / k in complex128 whatever H is, on the per-diagonal
oracles of scaled, add and drop_zero_diagonals, so the two must agree bit for
bit, signed zeros included.  Given a grid, it also plans every product from
its own offsets, as the simulator did while every product was packed.
"""

from __future__ import annotations

import numpy as np

from diagsim import diag_matmul, identity, one_norm
from diagsim.hamsim import CANCEL_EPS, simulate_product, term_count_for
from diagsim.memory import SetAssocCache

from conftest import add_oracle, drop_zero_oracle, scaled_oracle


def complex_chain(h, t: float, terms: int | None = None, eps: float | None = None,
                  grid=None):
    """(U, per term (nnzd, nnze, storage_scalars)) of the series of
    exp(-i t H), K fixed by terms or chosen from eps as taylor_expm chooses it.
    Given a grid, each term's tuple also holds its product's stage cycles,
    counters and MemStats, charged to one cache across the chain, each
    product planned and run on its own."""
    m = scaled_oracle(h, -1j * t)
    k_max = terms if terms is not None else term_count_for(one_norm(m), eps)
    cache = grid and SetAssocCache(grid.cache)
    u = t_k = identity(h.dim)
    records = []
    for k in range(1, k_max + 1):
        product = diag_matmul(t_k, m)
        modeled = ()
        if grid:
            modeled = simulate_product(h.dim, t_k.offsets, m.offsets, product.offsets,
                                       grid, cache, tags=(f"T{k - 1}", "M", f"T{k}"))
        t_k = scaled_oracle(product, 1.0 / k)
        if t_k.nnzd:
            peak = max(np.abs(d.values).max() for d in t_k.diagonals)
            t_k = drop_zero_oracle(t_k, CANCEL_EPS * peak)
        u = add_oracle(u, t_k)
        records.append((t_k.nnzd, t_k.nnze, t_k.storage_scalars, *modeled))
        if not t_k.nnzd:
            break
    return u, records
