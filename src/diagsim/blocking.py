"""Decompose a diagonal-space product into grid-sized jobs.

Two orthogonal strategies compose:

  * row/col-wise blocking: A is split column-wise and B row-wise at shared
    cut indices.  Only same-window pairs are scheduled; a column group of A
    and a row group of B with disjoint index windows share no inner index k,
    so their product is identically zero and never appears in the plan.
  * diagonal blocking: each operand's segments are chunked independently, in
    ascending offset order, into groups no larger than the grid dimension;
    every A-group multiplies every B-group.

Job order is B-group-major: all A-groups run against one B-group before the
next B-group starts, which maximizes reuse of cached A lines.

No value enters a plan: make_plan(n, a_offsets, b_offsets, ...) takes the dim
and the operands' ascending offsets, not the matrices, so a product held in
any form plans alike (hamsim's dense Taylor term included).  A group is one
int64 bounds array, a row (offset, first row, last row) per segment in
ascending offset order, which dataflow.run_job's feed layout relies on.
No program path computes a plan's values job by job; the per-job value
reference lives with the tests.

simulate_product models one product on a GridSetup: plan -> count -> charge
-> check.  make_plan gives the jobs, dataflow.run_job counts each, one
memory.charge_job call charges their line pattern (A group, B group and
output offsets per job), and the jobs' multiplies and touched diagonals must
cover the product's.  The plan, the counts and the pattern depend only on n,
the operands' offsets and the GridSetup, so a chain counts each distinct
product once, into a memo (counted) that lives in one taylor_expm call,
keyed by n, the offsets' int64 bytes and the GridSetup.  An entry holds the
summed stage cycles and counters, the touched offsets, the multiply count,
the line pattern and charge_job's memo of it (memory.product_memo); no Job
or RunResult outlives the call that counts it, which alone may trace them.
Q and -Q share offsets and a term's offsets stop changing once its band
fills, so the expm-sim benchmark's chain (heisenberg-6, t = 1, 41 products)
counts 10 distinct products, 41 grid jobs in place of 227, and its cache
steps those 10 and replays the other 31, met before with the same pattern,
entry state up to the tags and charged lines.  Every product is charged and
checked against its own offsets; nothing carries over from one chain to the
next.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataflow import FeedConfig, check_interleave, fold, run_job
from .diagmat import DiagMatrix, buffer_starts, drop_zero_diagonals
from .errors import PlanError, VerificationError
from .memory import CacheConfig, SetAssocCache, charge_job, flush_product, product_memo
from .spmspm import multiply_count

AUTO_CUT_WINDOW = 4096


@dataclass(frozen=True)
class BlockGroup:
    group_id: int  # unique per operand across windows
    bounds: np.ndarray


@dataclass(frozen=True)
class Job:
    window: int
    a_group: BlockGroup
    b_group: BlockGroup


@dataclass(frozen=True)
class BlockPlan:
    jobs: tuple[Job, ...]


def segment_bounds(n: int, offsets: np.ndarray, lo, hi) -> np.ndarray:
    """Bounds array of the diagonals at int64 offsets of a dim-n matrix cut to
    rows lo..hi-1, where lo and hi are integers or hold one per diagonal.  A
    diagonal left with no row is dropped."""
    first = np.maximum(np.maximum(0, -offsets), lo)
    last = np.minimum(n - 1 - np.maximum(0, offsets), hi - 1)
    return np.stack((offsets, first, last), axis=1)[first <= last]


def check_cuts(cuts, n: int | None = None) -> list[int]:
    """cuts as a list; PlanError unless strictly ascending and, given the
    dim n, strictly inside [1, n - 1]."""
    cuts = list(cuts or [])
    if any(cuts[i] >= cuts[i + 1] for i in range(len(cuts) - 1)):
        raise PlanError(f"cuts must be strictly ascending, got {cuts}")
    if n is not None and any(not (1 <= c <= n - 1) for c in cuts):
        raise PlanError(f"cuts must lie strictly inside [1, {n - 1}], got {cuts}")
    return cuts


def group_sizes(grid_rows: int, grid_cols: int, a_group_size: int | None,
                b_group_size: int | None) -> tuple[int, int]:
    """The A and B group sizes, each defaulting to its grid side; PlanError
    unless 1 <= size <= side, so a side below 1 fails here too."""
    a_gs = grid_cols if a_group_size is None else a_group_size
    b_gs = grid_rows if b_group_size is None else b_group_size
    if not (1 <= a_gs <= grid_cols and 1 <= b_gs <= grid_rows):
        raise PlanError(f"need 1 <= group size <= grid side, got A {a_gs} of "
                        f"{grid_cols} columns, B {b_gs} of {grid_rows} rows")
    return a_gs, b_gs


def default_cuts(n: int) -> list[int]:
    """No cuts up to the buffer-friendly window; equal windows beyond."""
    if n <= AUTO_CUT_WINDOW:
        return []
    return list(range(AUTO_CUT_WINDOW, n, AUTO_CUT_WINDOW))


def make_plan(n: int, a_offsets, b_offsets, grid_rows: int, grid_cols: int,
              cuts=None, a_group_size: int | None = None,
              b_group_size: int | None = None) -> BlockPlan:
    """Compose row/col and diagonal blocking of the product of two dim-n
    matrices, given by their ascending offsets, into a deterministic job list."""
    a_gs, b_gs = group_sizes(grid_rows, grid_cols, a_group_size, b_group_size)
    a_offs, b_offs = (np.asarray(o, dtype=np.int64) for o in (a_offsets, b_offsets))
    cuts = check_cuts(default_cuts(n) if cuts is None else cuts, n)
    edges = [0, *cuts, n]
    jobs = []
    a_count = b_count = 0  # group ids run on across windows
    for w, (lo, hi) in enumerate(zip(edges, edges[1:])):
        # columns lo..hi-1 of A's diagonal d are its rows lo-d..hi-1-d
        a_rows = segment_bounds(n, a_offs, lo - a_offs, hi - a_offs)
        b_rows = segment_bounds(n, b_offs, lo, hi)
        ga = [BlockGroup(a_count + g, a_rows[i: i + a_gs])
              for g, i in enumerate(range(0, len(a_rows), a_gs))]
        gb = [BlockGroup(b_count + g, b_rows[i: i + b_gs])
              for g, i in enumerate(range(0, len(b_rows), b_gs))]
        a_count, b_count = a_count + len(ga), b_count + len(gb)
        jobs.extend(Job(w, ag, bg) for bg in gb for ag in ga)
    return BlockPlan(tuple(jobs))


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


def simulate_product(n: int, a_offsets, b_offsets, product_offsets, grid: GridSetup,
                     cache: SetAssocCache, tags: tuple[str, str, str] = ("A", "B", "C"),
                     trace=None, counted: dict | None = None):
    """One product of two dim-n matrices, given by their ascending offsets,
    through plan -> grid jobs -> cache; returns (summed stage cycles, summed
    counters, memory stats delta).

    The caller computes the product; product_offsets are its nonzero
    diagonals.  The plan must cover it, or VerificationError: the jobs'
    multiplies sum to the product's count, and some job touches each of those
    diagonals.  counted, when given, is the memo of distinct products (module
    docstring).  trace, when given, receives one dict per job in schedule
    order, its plan position and closed-form figures, from a fresh count.
    """
    a_tag, b_tag, c_tag = tags
    counted = {} if counted is None else counted
    key = (n, np.asarray(a_offsets, np.int64).tobytes(),
           np.asarray(b_offsets, np.int64).tobytes(), grid)
    if key not in counted or trace is not None:
        jobs = make_plan(n, a_offsets, b_offsets, grid.rows, grid.cols, cuts=grid.cuts,
                         a_group_size=grid.a_group_size, b_group_size=grid.b_group_size).jobs
        results = [run_job(job.a_group.bounds, job.b_group.bounds, grid.feed, max_rows=grid.rows,
                           max_cols=grid.cols, interleave=grid.interleave) for job in jobs]
        pattern = tuple((job.a_group.group_id, job.b_group.group_id, tuple(result.offsets))
                        for job, result in zip(jobs, results))
        counted.setdefault(key, (*fold((result.stage, result.counters) for result in results),
                                 {d for *_, offsets in pattern for d in offsets},
                                 multiply_count(a_offsets, b_offsets, n),
                                 pattern, product_memo(pattern)))
    stage, counters, touched, want, pattern, memo = counted[key]
    mem_before = cache.stats.snapshot()
    deltas = charge_job(cache, pattern, memo, a_tag, b_tag, c_tag)
    if trace is not None:
        for index, (job, result, mem) in enumerate(zip(jobs, results, deltas)):
            trace({"job": index, "window": job.window, "a_group": job.a_group.group_id,
                   "b_group": job.b_group.group_id, "rows": result.rows, "cols": result.cols,
                   "longest": list(result.longest), "cycles": dict(vars(result.stage)),
                   "counters": dict(result.counters), "mem": dict(vars(mem)),
                   "offsets": result.offsets})
    flush_product(cache, c_tag)
    multiplies = counters.get("multiplies", 0)
    missed = sorted(set(product_offsets) - touched)
    if multiplies != want or missed:
        raise VerificationError(
            f"plan coverage check failed: the jobs perform {multiplies} of the product's "
            f"{want} multiplies; output diagonals no job touches: {missed}")
    return stage, dict(counters), cache.stats.delta(mem_before)


def merge_outputs(n: int, banks) -> DiagMatrix:
    """Sum per-offset partial vectors across jobs in schedule order, in one buffer.

    No program path calls it; it stays because the benchmark's tracer wraps it
    by name.
    """
    offsets = sorted(set().union(*banks))
    starts = buffer_starts(n, offsets).tolist()
    slices = {d: slice(lo, hi) for d, lo, hi in zip(offsets, starts, starts[1:])}
    # every slot gets a full-length partial, and -0.0 + x is x bit for bit
    values = np.full(starts[-1], complex(-0.0, -0.0))
    for bank in banks:
        for dc, vec in bank.items():
            values[slices[dc]] += vec
    return drop_zero_diagonals(DiagMatrix.packed(n, offsets, values))
