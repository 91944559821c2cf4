"""The packed Taylor chain in complex128 for every H: the tests' oracle.

hamsim.taylor_expm runs this chain packed, and once a real H's term fills its
band holds U and the term's one nonzero component dense, in float64.  This
version keeps the packed chain T_k = T_{k-1} (-i t H) / k to the end whatever
H is, on the per-diagonal oracles of scaled, add and drop_zero_diagonals, so
the two must agree bit for bit, signed zeros included.  Given a grid, it also
plans every product from its own offsets, as the simulator did while every
product was packed, and charges every job of it access by access to the
per-access cache of memory_oracle, with no memo.
"""

from __future__ import annotations

from unittest import mock

import numpy as np

from diagsim import blocking, diag_matmul, identity, one_norm
from diagsim.blocking import simulate_product
from diagsim.hamsim import CANCEL_EPS, TERM_CAP

from conftest import add_oracle, drop_zero_oracle, scaled_oracle
from memory_oracle import PerAccessCache, charge_product_oracle, flush_product_oracle


def complex_chain(h, t: float, terms: int | None = None, eps: float | None = None,
                  grid=None):
    """(U, per term (nnzd, nnze, storage_scalars)) of the series of
    exp(-i t H), K fixed by terms or chosen from eps as taylor_expm chooses it:
    the first k whose kept diagonals' peaks, summed in ascending offset, times
    r / (1 - r), r = ||M||_1 / (k + 1) < 1, are at most eps.
    Given a grid, each term's tuple also holds its product's stage cycles,
    counters and MemStats, charged to one per-access cache across the chain,
    each product planned and run on its own."""
    m = scaled_oracle(h, -1j * t)
    norm = one_norm(m)

    def converged(peak_sum: float, k: int) -> bool:
        r = norm / (k + 1)
        return eps is not None and r < 1.0 and peak_sum * r / (1.0 - r) <= eps

    k_max = terms if terms is not None else 0 if converged(1.0, 0) else TERM_CAP
    cache = grid and PerAccessCache(grid.cache)
    u = t_k = identity(h.dim)
    records = []
    for k in range(1, k_max + 1):
        product = diag_matmul(t_k, m)
        modeled = ()
        if grid:
            with mock.patch.object(blocking, "charge_job", charge_product_oracle), \
                    mock.patch.object(blocking, "flush_product", flush_product_oracle):
                modeled = simulate_product(h.dim, t_k.offsets, m.offsets, product.offsets,
                                           grid, cache, tags=(f"T{k - 1}", "M", f"T{k}"))
        t_k = scaled_oracle(product, 1.0 / k)
        if t_k.nnzd:
            peak = max(np.abs(d.values).max() for d in t_k.diagonals)
            t_k = drop_zero_oracle(t_k, CANCEL_EPS * peak)
        u = add_oracle(u, t_k)
        records.append((t_k.nnzd, t_k.nnze, t_k.storage_scalars, *modeled))
        peaks = np.array([np.abs(d.values).max() for d in t_k.diagonals])
        if not t_k.nnzd or converged(np.sum(peaks), k):
            break
    return u, records
