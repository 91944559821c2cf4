"""Truncated-series matrix exponentiation driven through the grid stack.

exp(-i t H) is approximated by K+1 series terms; each iteration performs one
chained diagonal-space product T_k = T_{k-1} (-i t H) / k.  With the
simulator on, each product is also planned into grid jobs, counted by the
closed-form grid model and charged to the memory model (simulate_product);
its values always come from the functional kernel, so U does not depend on
whether the simulator runs.  The
running term is renormalized by 1/k at every step (rather than dividing by
k! at the end) so the chain stays finite for deep truncations, and
cancellation debris below a relative floor is dropped so the diagonal-count
trajectory reflects genuine structure.

When no fixed term count is given, K is the smallest k whose one-norm
remainder bound satisfies ||M||^(k+1) / (k+1)! <= eps.

A real H (every imaginary part zero, as all three generators give) runs the
chain in float64.  With Q = t Re(H), T_k = (-i)^k P_k for the real
P_k = P_{k-1} Q / k, so T_k has one nonzero component, the real one for even
k and the imaginary one for odd k: R_k = +-P_k.  The chain computes
R_k = R_{k-1} Q_k / k, where Q_k is -Q for odd k and Q for even k, and _term
writes R_k into the complex128 term that U adds.  U, the records and the
modeled figures keep every bit the complex chain T_k = T_{k-1} (-i t H) / k
gives them.  In that chain each product of one-component entries is one
real product, equal to the real chain's up to an exact negation.  The
kernel's accumulator starts at +0.0, so every term's other component is
+0.0, and the scaling by 1/k leaves both as _term writes them.  The grid,
plan and memory models read offsets only.  A complex H keeps the complex
chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .blocking import check_cuts, group_sizes, make_plan
from .dataflow import FeedConfig, StageCycles, add_counters, check_interleave, run_job
from .diagmat import COMPLEX, DiagMatrix, drop_below, identity, one_norm
from .errors import ConvergenceError, DomainError, VerificationError
from .memory import CacheConfig, MemStats, SetAssocCache, charge_job, flush_product
from .spmspm import diag_matmul, multiply_count

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

    def __post_init__(self):
        """Check the settings that hold whatever the operands, even if nothing plans."""
        group_sizes(self.rows, self.cols, self.a_group_size, self.b_group_size)
        check_cuts(self.cuts)
        check_interleave(self.interleave)


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


def term_count_for(norm: float, eps: float) -> int:
    """Smallest K <= TERM_CAP with norm^(K+1) / (K+1)! <= eps."""
    bound = 1.0
    for k in range(TERM_CAP + 1):
        bound *= norm / (k + 1)
        if bound <= eps:
            return k
    raise ConvergenceError(
        f"one-norm {norm:.4g} needs more than {TERM_CAP} terms to reach eps={eps:g}")


def taylor_expm(h: DiagMatrix, cfg: TaylorConfig, grid: GridSetup | None = None,
                cache: SetAssocCache | None = None,
                ) -> tuple[DiagMatrix, list[IterationRecord]]:
    """Approximate exp(-i t H); returns (U, per-iteration records).

    With use_simulator every product also runs through the blocked grid
    model and the cache, and its plan is checked to cover the product
    (simulate_product); otherwise only the functional kernel runs.  U is the
    same either way.
    """
    grid = grid or GridSetup()
    n = h.dim
    real = not h.values.imag.any()
    if real:  # the factors Q_k into even and odd k (module docstring)
        q = DiagMatrix.packed(n, h.offset_array, h.values.real * cfg.t)
        factors = (q, q.scaled(-1.0))
    else:
        factors = (h.scaled(-1j * cfg.t),) * 2
    k_max = (cfg.terms if cfg.terms is not None
             else term_count_for(one_norm(factors[0]), cfg.eps))
    if cache is None and cfg.use_simulator:
        cache = SetAssocCache(grid.cache)

    u = identity(n)
    t_k = identity(n, factors[0].values.dtype)
    records: list[IterationRecord] = []
    for k in range(1, k_max + 1):
        m = factors[k % 2]
        if cfg.use_simulator:
            product, stage, counters, mem = simulate_product(
                t_k, m, grid, cache, tags=(f"T{k - 1}", "M", f"T{k}"))
        else:
            product = diag_matmul(t_k, m)
            stage = StageCycles(0, 0, 0, 0)
            counters = {}
            mem = MemStats()
        t_k = product.scaled(1.0 / k)
        mag = np.abs(t_k.values)  # one magnitude pass: the floor, the drop and nnze
        if t_k.nnzd:
            t_k, mag = drop_below(t_k, mag, CANCEL_EPS * mag.max())
        u = u.add(_term(t_k, k) if real else t_k)
        records.append(IterationRecord(
            k=k, nnzd=t_k.nnzd, nnze=int(np.count_nonzero(mag)),
            storage_scalars=t_k.storage_scalars,
            savings=1.0 - t_k.storage_scalars / float(n) ** 2,
            stage_cycles=stage, mem=mem, counters=counters,
        ))
        if not t_k.nnzd:
            break  # exact nilpotency: every later term is zero too
    return u, records


def _term(r: DiagMatrix, k: int) -> DiagMatrix:
    """T_k in complex128 from R_k, its real part for even k and imaginary part
    for odd k: the other part is +0.0, and an odd term's part is +0.0 + R_k,
    as the complex chain's 1/k scaling computes it."""
    values = np.zeros(r.storage_scalars, COMPLEX)
    np.add(0.0 if k % 2 else -0.0, r.values, out=values.view(np.float64)[k % 2::2])
    return DiagMatrix.packed(r.dim, r.offset_array, values)


def simulate_product(a: DiagMatrix, b: DiagMatrix, grid: GridSetup,
                     cache: SetAssocCache, tags: tuple[str, str, str] = ("A", "B", "C"),
                     trace=None):
    """One full product through plan -> grid jobs -> cache; returns
    (product, summed stage cycles, summed counters, memory stats delta).

    The product is diag_matmul(a, b).  The plan must cover it, or
    VerificationError: the jobs' multiplies sum to the product's count, and
    some job touches each of its diagonals.  trace, when given, receives one
    dict per job in schedule order: its plan position and closed-form figures.
    """
    a_tag, b_tag, c_tag = tags
    plan = make_plan(a, b, grid.rows, grid.cols, cuts=grid.cuts,
                     a_group_size=grid.a_group_size, b_group_size=grid.b_group_size)
    mem_before = cache.stats.snapshot()
    stage = StageCycles(0, 0, 0, 0)
    counters: dict[str, int] = {}
    touched: set[int] = set()
    for index, job in enumerate(plan.jobs):
        result = run_job(job.a_group.bounds, job.b_group.bounds, grid.feed,
                         max_rows=grid.rows, max_cols=grid.cols, interleave=grid.interleave)
        stage += result.stage
        add_counters(counters, result.counters)
        touched.update(result.offsets)
        mem = charge_job(cache, job, a_tag, b_tag, c_tag, result.offsets)
        if trace is not None:
            trace({"job": index, "window": job.window, "a_group": job.a_group.group_id,
                   "b_group": job.b_group.group_id, "rows": result.rows, "cols": result.cols,
                   "longest": list(result.longest), "cycles": dict(vars(result.stage)),
                   "counters": dict(result.counters), "mem": vars(mem), "offsets": result.offsets})
    flush_product(cache, c_tag)
    product = diag_matmul(a, b)
    multiplies, want = counters.get("multiplies", 0), multiply_count(a.offsets, b.offsets, a.dim)
    missed = sorted(set(product.offsets) - touched)
    if multiplies != want or missed:
        raise VerificationError(
            f"plan coverage check failed: the jobs perform {multiplies} of the product's "
            f"{want} multiplies; output diagonals no job touches: {missed}")
    return product, stage, counters, cache.stats.delta(mem_before)


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
