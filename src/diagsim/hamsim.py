"""Truncated-series matrix exponentiation driven through the grid stack.

exp(-i t H) is approximated by K+1 series terms; each iteration performs one
chained product T_k = T_{k-1} (-i t H) / k.  Given a GridSetup, each
product is also planned from its operands' offsets into grid jobs, counted by
the closed-form grid model and charged to the memory model
(simulate_product); the chain computes the values either way.  The
running term is renormalized by 1/k at every step (rather than dividing by
k! at the end) so the chain stays finite for deep truncations, and
cancellation debris below a relative floor is dropped so the diagonal-count
trajectory reflects genuine structure.

A product's plan, its jobs' grid figures and its multiply count depend on
nothing but n, the operands' offsets and the GridSetup, so a chain counts
each distinct product once: simulate_product keeps them in a dict that
lives in one taylor_expm call.  Q and -Q share offsets and a term's offsets
stop changing once its band fills, so the expm-sim benchmark's chain
(heisenberg-6, t = 1, 55 products) has 10 distinct products and runs 41
grid jobs in place of 311.  Every product is still charged to the cache,
whose state differs from product to product, and checked against its own
offsets; no figure carries over from one call to the next.

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
+0.0, and the scaling by 1/k leaves both as _term writes them.  A complex H
keeps the complex chain.

Once a real term stores DENSE_FILL n^2 scalars (k < K, and no -0.0 in it or
U), R_k and U are held dense (_DenseChain) and U is packed once, at the end.
A product is then Q_k^T R^T with Q_k^T in CSR, its column indices ascending:
each entry starts at +0.0 and adds its terms in ascending inner index, as
diag_matmul does (spmspm).  Its extra terms each have a zero factor, and
x + -0.0 = x, so the bits are the same and no product holds -0.0.  Only the
1/k scaling can then make a -0.0, by taking a negative entry to zero.  A
step where a nonzero scales to zero, or whose product is not finite, goes
back to the packed chain, which keeps that -0.0 or raises DomainError as it
always does.  Without -0.0, an entry U does not store may read +0.0
(-0.0 + x = +0.0 + x unless x is -0.0), T_k's +0.0 other part changes
nothing, and U += T_k is one real add.  The floor's per-diagonal maxima, the
product's offsets (R_k's, as no nonzero scaled to zero) and the drops go
through one strided sheared view of R_k's band buffer, in which each diagonal
is a column; U is a plain n x n array, filled and gathered diagonal by diagonal.

Per product the dense chain wins from an eighth to a quarter of n^2
(heisenberg and tfim at 6-10 qubits) and whole chains take the same time
switching anywhere from 0.1 to 0.75, so DENSE_FILL is 0.5.  A term that
never fills its band never switches, so a narrow chain allocates no O(n^2).
After the switch the chain holds 48 n^2 bytes (R_k's band buffer 16, U 16,
a product and scipy's copy of R^T 16) where the term alone held at least
4 n^2; the packed chain's accumulator and sums reach about as much
(tracemalloc peak at t = 0.5, packed -> switching: heisenberg-10 78.8 ->
58.3 MiB, tfim-10 80.9 -> 66.3 MiB; the switch adds 32.5 MiB, the exit 18).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from .blocking import check_cuts, group_sizes, make_plan
from .dataflow import FeedConfig, StageCycles, add_counters, check_interleave, run_job
from .diagmat import (COMPLEX, DiagMatrix, diagonal_view, drop_below, from_dense, identity,
                      one_norm)
from .errors import ConvergenceError, DomainError, VerificationError
from .memory import CacheConfig, MemStats, SetAssocCache, charge_job, flush_product
from .spmspm import diag_matmul, multiply_count

TERM_CAP = 64
CANCEL_EPS = 1e-14
DENSE_FILL = 0.5  # share of n^2 a real term stores when the chain turns dense


@dataclass(frozen=True)
class TaylorConfig:
    """Series truncation controls: exactly one of terms / eps governs."""

    t: float = 1.0
    terms: int | None = None
    eps: float | None = None

    def __post_init__(self):
        if (self.terms is None) == (self.eps is None):
            raise DomainError("exactly one of terms / eps must be given")
        if not math.isfinite(self.t):
            raise DomainError(f"t must be finite, got {self.t}")
        if self.eps is not None and not 0 < self.eps < math.inf:
            raise DomainError(f"eps must lie in (0, inf), got {self.eps}")
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

    Given a grid, every product is also planned from its operands' offsets,
    run through the blocked grid model and cache (a fresh one if none is given),
    and its plan checked to cover it (simulate_product).  U is the same either way.
    """
    n = h.dim
    real = not h.values.imag.any()
    if real:  # the factors Q_k into even and odd k (module docstring)
        q = DiagMatrix.packed(n, h.offset_array, h.values.real * cfg.t)
        factors = (q, q.scaled(-1.0))
    else:
        factors = (h.scaled(-1j * cfg.t),) * 2
    k_max = (cfg.terms if cfg.terms is not None
             else term_count_for(one_norm(factors[0]), cfg.eps))
    if cache is None and grid is not None:
        cache = SetAssocCache(grid.cache)
    counted: dict = {}  # this chain's distinct products (simulate_product)

    u = identity(n)
    t_k = identity(n, factors[0].values.dtype)
    dense = None  # the _DenseChain once a real term fills DENSE_FILL of n^2
    offsets = t_k.offset_array
    records: list[IterationRecord] = []
    for k in range(1, k_max + 1):
        m = factors[k % 2]
        stepped = dense and dense.step(k)
        if stepped:
            made, live, nnze = stepped
        else:
            if dense:  # underflow or overflow: the packed chain keeps -0.0 or raises
                t_k, u = from_dense(dense.r_t.T, np.float64), from_dense(dense.u_t.T)
                dense = None
            product = diag_matmul(t_k, m)
            made = product.offsets
            t_k = product.scaled(1.0 / k)
            mag = np.abs(t_k.values)  # one magnitude pass: the floor, the drop and nnze
            if t_k.nnzd:
                t_k, mag = drop_below(t_k, mag, CANCEL_EPS * mag.max())
            u = u.add(_term(t_k, k) if real else t_k)
            live, nnze = t_k.offset_array, int(np.count_nonzero(mag != 0))
        if grid is not None:
            stage, counters, mem = simulate_product(
                n, offsets, m.offsets, made, grid, cache, tags=(f"T{k - 1}", "M", f"T{k}"),
                counted=counted)
        else:
            stage, counters, mem = StageCycles(0, 0, 0, 0), {}, MemStats()
        offsets, scalars = live, n * len(live) - int(np.abs(live).sum())
        records.append(IterationRecord(
            k=k, nnzd=len(live), nnze=nnze, storage_scalars=scalars,
            savings=1.0 - scalars / float(n) ** 2,
            stage_cycles=stage, mem=mem, counters=counters,
        ))
        if not len(live):
            break  # exact nilpotency: every later term is zero too
        if (real and not dense and k < k_max and scalars >= DENSE_FILL * n * n
                and not _negative_zero(t_k.values) and not _negative_zero(u.values)):
            dense, t_k, u = _DenseChain(t_k, u, factors), None, None
    if dense:  # R's buffer goes before U is gathered
        u_t, dense = dense.u_t, None
        u = from_dense(u_t.T)
    return u, records


def _term(r: DiagMatrix, k: int) -> DiagMatrix:
    """T_k in complex128 from R_k, its real part for even k and imaginary part
    for odd k: the other part is +0.0, and an odd term's part is +0.0 + R_k,
    as the complex chain's 1/k scaling computes it."""
    values = np.zeros(r.storage_scalars, COMPLEX)
    np.add(0.0 if k % 2 else -0.0, r.values, out=values.view(np.float64)[k % 2::2])
    return DiagMatrix.packed(r.dim, r.offset_array, values)


def _negative_zero(values: np.ndarray) -> bool:
    """Whether some float64 part of values is -0.0."""
    parts = values.view(np.float64)
    return bool(np.signbit(parts[parts == 0]).any())


def _csr_t(m: DiagMatrix):
    """m^T in CSR, each row's column indices ascending; explicit zeros may go."""
    if not m.nnzd:
        return scipy.sparse.csr_array((m.dim, m.dim), dtype=m.values.dtype)
    m_t = scipy.sparse.diags_array([vec for _, vec in m.offset_views()],
                                   offsets=[-d for d in m.offsets], shape=(m.dim, m.dim),
                                   dtype=m.values.dtype).tocsr()
    m_t.sort_indices()
    return m_t


def _dense_product(q_t, r_t: np.ndarray) -> np.ndarray:
    """(R Q)^T = Q^T R^T from Q^T in CSR (_csr_t): each entry starts at +0.0
    and adds its terms in ascending inner index, the order of spmspm."""
    return q_t @ r_t


def _sheared(buf: np.ndarray, n: int) -> np.ndarray:
    """The (n, 2n - 1) sheared view of a band buffer (_DenseChain): entry
    (j, n - 1 - d) is diagonal d's entry in matrix column j, or a pad entry
    where the diagonal has none.  No two entries share memory."""
    step = buf.strides[0]
    return np.lib.stride_tricks.as_strided(buf, (n, 2 * n - 1), (2 * n * step, step))


class _DenseChain:
    """R_k (float64) in a band buffer and U (complex128) in an n x n array, both
    transposed: R^T in n rows of pitch 2n - 1, each after n - 1 pads, then n - 1
    more pads (_sheared); +0.0 wherever a matrix stores nothing, never -0.0."""

    def __init__(self, r: DiagMatrix, u: DiagMatrix, factors):
        n = self.n = r.dim
        self.u_t = np.zeros((n, n), COMPLEX)
        self.r_buf = np.zeros(n * (2 * n - 1) + n - 1)
        self.r_t = self.r_buf[:n * (2 * n - 1)].reshape(n, 2 * n - 1)[:, n - 1:]
        for grid, m in ((self.u_t, u), (self.r_t, r)):
            for d, vec in m.offset_views():
                diagonal_view(grid.T, d)[:] = vec
        self.q_t = [_csr_t(f) for f in factors]

    def step(self, k: int):
        """R_k from R_{k-1}, the floor and U += T_k; returns the product's
        nonzero offsets, R_k's offsets and its nonzero count.  None, with
        R_{k-1} and U left as they were, if the product is not finite (the
        packed chain raises DomainError) or the scaling takes a nonzero to
        zero; DomainError, as the packed chain's sum raises it, if U is not."""
        product = _dense_product(self.q_t[k % 2], self.r_t)
        nonzero = np.count_nonzero(product != 0)  # a mask counts faster than floats
        product *= 1.0 / k
        if np.count_nonzero(product != 0) < nonzero or not np.isfinite(product).all():
            return None
        np.copyto(self.r_t, product)
        sheared = _sheared(self.r_buf, self.n)
        peak = np.maximum(sheared.max(axis=0), -sheared.min(axis=0))  # of each diagonal
        live = peak > CANCEL_EPS * peak.max()
        dropped = ~live & (peak > 0)
        if dropped.any():
            nonzero -= np.count_nonzero(sheared[:, dropped])
            sheared[:, dropped] = 0.0
        u_part = self.u_t.view(np.float64)[:, k % 2::2]
        u_part += self.r_t
        if not np.isfinite(u_part).all():
            from_dense(self.u_t.T)  # raises the DomainError of the packed chain's sum
        offsets = np.arange(1 - self.n, self.n)  # of the sheared view's columns, reversed
        return offsets[(peak > 0)[::-1]].tolist(), offsets[live[::-1]], int(nonzero)


def simulate_product(n: int, a_offsets, b_offsets, product_offsets, grid: GridSetup,
                     cache: SetAssocCache, tags: tuple[str, str, str] = ("A", "B", "C"),
                     trace=None, counted: dict | None = None):
    """One product of two dim-n matrices, given by their ascending offsets,
    through plan -> grid jobs -> cache; returns (summed stage cycles, summed
    counters, memory stats delta).

    The caller computes the product; product_offsets are its nonzero
    diagonals.  The plan must cover it, or VerificationError: the jobs'
    multiplies sum to the product's count, and some job touches each of those
    diagonals.  trace, when given, receives one dict per job in schedule
    order: its plan position and closed-form figures.  counted, when given,
    keeps each distinct product's plan and grid figures (_count_product) for
    the next product with the same key; every product is still charged to
    the cache and checked against its own offsets.
    """
    a_tag, b_tag, c_tag = tags
    counted = {} if counted is None else counted
    key = (n, np.asarray(a_offsets, np.int64).tobytes(),
           np.asarray(b_offsets, np.int64).tobytes(), grid)
    if key not in counted:
        counted[key] = _count_product(n, a_offsets, b_offsets, grid)
    jobs, results, stage, counters, touched, want = counted[key]
    mem_before = cache.stats.snapshot()
    for index, (job, result) in enumerate(zip(jobs, results)):
        mem = charge_job(cache, job, a_tag, b_tag, c_tag, result.offsets)
        if trace is not None:
            trace({"job": index, "window": job.window, "a_group": job.a_group.group_id,
                   "b_group": job.b_group.group_id, "rows": result.rows, "cols": result.cols,
                   "longest": list(result.longest), "cycles": dict(vars(result.stage)),
                   "counters": dict(result.counters), "mem": vars(mem), "offsets": result.offsets})
    flush_product(cache, c_tag)
    multiplies = counters.get("multiplies", 0)
    missed = sorted(set(product_offsets) - touched)
    if multiplies != want or missed:
        raise VerificationError(
            f"plan coverage check failed: the jobs perform {multiplies} of the product's "
            f"{want} multiplies; output diagonals no job touches: {missed}")
    return stage, dict(counters), cache.stats.delta(mem_before)


def _count_product(n: int, a_offsets, b_offsets, grid: GridSetup):
    """The jobs of one product's plan, each job's RunResult, their summed stage
    cycles and counters, the output offsets they touch and the product's
    multiply count: a pure function of n, the operands' offsets and grid."""
    plan = make_plan(n, a_offsets, b_offsets, grid.rows, grid.cols, cuts=grid.cuts,
                     a_group_size=grid.a_group_size, b_group_size=grid.b_group_size)
    results = [run_job(job.a_group.bounds, job.b_group.bounds, grid.feed, max_rows=grid.rows,
                       max_cols=grid.cols, interleave=grid.interleave) for job in plan.jobs]
    stage = StageCycles(0, 0, 0, 0)
    counters: dict[str, int] = {}
    touched: set[int] = set()
    for result in results:
        stage += result.stage
        add_counters(counters, result.counters)
        touched.update(result.offsets)
    return plan.jobs, results, stage, counters, touched, multiply_count(a_offsets, b_offsets, n)
