"""Truncated-series matrix exponentiation driven through the grid stack.

exp(-i t H) is approximated by K+1 series terms; each iteration performs one
chained diagonal-space product T_k = T_{k-1} (-i t H) / k, routed through
blocking, the grid simulator, and the memory model when requested.  The
running term is renormalized by 1/k at every step (rather than dividing by
k! at the end) so the chain stays finite for deep truncations, and
cancellation debris below a relative floor is dropped so the diagonal-count
trajectory reflects genuine structure.

When no fixed term count is given, K is the smallest k whose one-norm
remainder bound satisfies ||M||^(k+1) / (k+1)! <= eps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .blocking import make_plan, merge_outputs
from .dataflow import DiagAccumulatorBank, FeedConfig, StageCycles, add_counters, run_job
from .diagmat import (DiagMatrix, drop_zero_diagonals, identity, one_norm,
                      rel_frobenius_error)
from .errors import ConvergenceError, DomainError, VerificationError
from .memory import CacheConfig, MemStats, SetAssocCache, charge_job, flush_product
from .spmspm import diag_matmul

TERM_CAP = 64
CANCEL_EPS = 1e-14


@dataclass(frozen=True)
class TaylorConfig:
    """Series truncation controls: exactly one of terms / eps governs."""

    t: float = 1.0
    terms: int | None = None
    eps: float | None = None
    use_simulator: bool = True

    def __post_init__(self):
        if (self.terms is None) == (self.eps is None):
            raise DomainError("exactly one of terms / eps must be given")
        if self.eps is not None and self.eps <= 0:
            raise DomainError("eps must be positive")
        if self.terms is not None and not (0 <= self.terms <= TERM_CAP):
            raise DomainError(f"terms must lie in [0, {TERM_CAP}]")


@dataclass(frozen=True)
class GridSetup:
    rows: int = 32
    cols: int = 32
    feed: FeedConfig = field(default_factory=FeedConfig)
    cache: CacheConfig = field(default_factory=CacheConfig)
    cuts: tuple[int, ...] | None = None
    a_group_size: int | None = None
    b_group_size: int | None = None
    interleave: int = 1


@dataclass
class IterationRecord:
    k: int
    nnzd: int
    nnze: int
    storage_scalars: int
    savings: float
    stage_cycles: StageCycles
    mem: MemStats
    counters: dict

    @property
    def hit_rate(self) -> float:
        return self.mem.hit_rate


def term_count_for(norm: float, eps: float, cap: int = TERM_CAP) -> int:
    """Smallest K with norm^(K+1) / (K+1)! <= eps."""
    bound = 1.0
    for k in range(cap + 1):
        bound *= norm / (k + 1)
        if bound <= eps:
            return k
    raise ConvergenceError(
        f"one-norm {norm:.4g} needs more than {cap} terms to reach eps={eps:g}")


def taylor_expm(h: DiagMatrix, cfg: TaylorConfig, grid: GridSetup | None = None,
                cache: SetAssocCache | None = None, check: bool = False,
                ) -> tuple[DiagMatrix, list[IterationRecord]]:
    """Approximate exp(-i t H); returns (U, per-iteration records).

    With use_simulator every product runs through the blocked grid model and
    the cache; otherwise the functional kernel is used directly.  check=True
    cross-verifies each simulated product against the functional kernel.
    """
    grid = grid or GridSetup()
    n = h.dim
    m = h.scaled(-1j * cfg.t)
    k_max = cfg.terms if cfg.terms is not None else term_count_for(one_norm(m), cfg.eps)
    if cache is None and cfg.use_simulator:
        cache = SetAssocCache(grid.cache)

    u = identity(n)
    t_k = identity(n)
    records: list[IterationRecord] = []
    for k in range(1, k_max + 1):
        if cfg.use_simulator:
            product, stage, counters, mem = simulate_product(
                t_k, m, grid, cache, tags=(f"T{k - 1}", "M", f"T{k}"))
            if check:
                _verify(product, t_k, m, k)
        else:
            product = diag_matmul(t_k, m)
            stage = StageCycles(0, 0, 0, 0)
            counters = {}
            mem = MemStats()
        t_k = product.scaled(1.0 / k)
        if t_k.nnzd:
            t_k = drop_zero_diagonals(t_k, CANCEL_EPS * np.abs(t_k.values).max())
        u = u.add(t_k)
        records.append(IterationRecord(
            k=k, nnzd=t_k.nnzd, nnze=t_k.nnze, storage_scalars=t_k.storage_scalars,
            savings=1.0 - t_k.storage_scalars / float(n) ** 2,
            stage_cycles=stage, mem=mem, counters=counters,
        ))
        if not t_k.nnzd:
            break  # exact nilpotency: every later term is zero too
    return u, records


def simulate_product(a: DiagMatrix, b: DiagMatrix, grid: GridSetup,
                     cache: SetAssocCache, tags: tuple[str, str, str] = ("A", "B", "C"),
                     trace=None):
    """One full product through plan -> grid jobs -> cache; returns
    (product, summed stage cycles, summed counters, memory stats delta)."""
    a_tag, b_tag, c_tag = tags
    plan = make_plan(a, b, grid.rows, grid.cols, cuts=grid.cuts,
                     a_group_size=grid.a_group_size, b_group_size=grid.b_group_size)
    mem_before = cache.stats.snapshot()
    banks = []
    stage = StageCycles(0, 0, 0, 0)
    counters: dict[str, int] = {}
    for job in plan.jobs:
        bank = DiagAccumulatorBank(a.dim)
        result = run_job(job.a_group.segments, job.b_group.segments, grid.feed,
                         n=a.dim, max_rows=grid.rows, max_cols=grid.cols,
                         interleave=grid.interleave, bank=bank, trace=trace)
        banks.append(bank.vectors)
        stage += result.stage
        add_counters(counters, result.counters)
        charge_job(cache, job, a_tag, b_tag, c_tag, bank.vectors.keys())
    flush_product(cache, c_tag)
    product = merge_outputs(a.dim, banks)
    return product, stage, counters, cache.stats.delta(mem_before)


def _verify(product: DiagMatrix, a: DiagMatrix, b: DiagMatrix, k: int) -> None:
    err = rel_frobenius_error(product, diag_matmul(a, b))
    if err > 1e-12:
        raise VerificationError(
            f"simulated product diverged from the functional kernel at step {k}: "
            f"relative error {err:.3e}")


def records_to_json(records: list[IterationRecord]) -> list[dict]:
    return [
        {
            "k": r.k,
            "nnzd": r.nnzd,
            "nnze": r.nnze,
            "storage_scalars": r.storage_scalars,
            "savings": r.savings,
            "cycles": {
                "preload": r.stage_cycles.preload,
                "compute": r.stage_cycles.compute,
                "popout": r.stage_cycles.popout,
                "total": r.stage_cycles.total,
            },
            "mem": {
                "hits": r.mem.hits,
                "misses": r.mem.misses,
                "dram_reads": r.mem.dram_reads,
                "dram_writes": r.mem.dram_writes,
                "stall_cycles": r.mem.stall_cycles,
            },
            "hit_rate": r.hit_rate,
        }
        for r in records
    ]
