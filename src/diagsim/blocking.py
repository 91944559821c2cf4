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

No value enters a plan: a group is one int64 bounds array, a row (offset,
first row, last row) per segment in ascending offset order, which
dataflow.run_job's feed layout relies on.  job_product and merge_outputs
compute a plan's values job by job from the operands: the tests' per-job
reference, which no modeled figure reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagmat import COMPLEX, DiagMatrix, buffer_starts, diag_length, drop_zero_diagonals
from .errors import PlanError

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


def segment_bounds(m: DiagMatrix, lo, hi) -> np.ndarray:
    """Bounds array of m's diagonals cut to rows lo..hi-1, where lo and hi are
    integers or hold one per diagonal.  A diagonal left with no row is dropped."""
    d = m.offset_array
    first = np.maximum(np.maximum(0, -d), lo)
    last = np.minimum(m.dim - 1 - np.maximum(0, d), hi - 1)
    return np.stack((d, first, last), axis=1)[first <= last]


def segment_values(m: DiagMatrix, offset: int, first: int, last: int) -> np.ndarray:
    """The values on rows first..last of m's diagonal at offset (a view)."""
    row0 = max(0, -offset)
    return m.diagonal(offset).values[first - row0: last + 1 - row0]


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


def make_plan(a: DiagMatrix, b: DiagMatrix, grid_rows: int, grid_cols: int,
              cuts=None, a_group_size: int | None = None,
              b_group_size: int | None = None) -> BlockPlan:
    """Compose row/col and diagonal blocking into a deterministic job list."""
    if a.dim != b.dim:
        raise PlanError(f"dim mismatch: {a.dim} vs {b.dim}")
    a_gs, b_gs = group_sizes(grid_rows, grid_cols, a_group_size, b_group_size)
    n = a.dim
    cuts = check_cuts(default_cuts(n) if cuts is None else cuts, n)
    edges = [0, *cuts, n]
    jobs = []
    a_count = b_count = 0  # group ids run on across windows
    for w, (lo, hi) in enumerate(zip(edges, edges[1:])):
        # columns lo..hi-1 of A's diagonal d are its rows lo-d..hi-1-d
        a_rows = segment_bounds(a, lo - a.offset_array, hi - a.offset_array)
        b_rows = segment_bounds(b, lo, hi)
        ga = [BlockGroup(a_count + g, a_rows[i: i + a_gs])
              for g, i in enumerate(range(0, len(a_rows), a_gs))]
        gb = [BlockGroup(b_count + g, b_rows[i: i + b_gs])
              for g, i in enumerate(range(0, len(b_rows), b_gs))]
        a_count, b_count = a_count + len(ga), b_count + len(gb)
        jobs.extend(Job(w, ag, bg) for bg in gb for ag in ga)
    return BlockPlan(tuple(jobs))


# -- functional reference for job outputs --------------------------------------


def job_product(a: DiagMatrix, b: DiagMatrix, a_bounds: np.ndarray,
                b_bounds: np.ndarray) -> tuple[dict[int, np.ndarray], int]:
    """Exact product of a job's segments, read from a and b, by output offset.

    A row r of A's segment meets B's segment where row r + dA is one of its
    rows; both segments lie in bounds, so that intersection is the overlap
    range cut to the segments.  dataflow.run_job counts the same multiply
    set in closed form, and a cycle-stepped grid must fire it one-to-one.
    Returns the products summed by output offset, and the multiply count.
    """
    out: dict[int, np.ndarray] = {}
    multiplies = 0
    b_rows = b_bounds.tolist()
    for da, a_lo, a_hi in a_bounds.tolist():
        for db, b_lo, b_hi in b_rows:
            r_lo = max(a_lo, b_lo - da)
            r_hi = min(a_hi, b_hi - da)
            if r_hi < r_lo:
                continue
            multiplies += r_hi - r_lo + 1
            dc = da + db
            vec = out.get(dc)
            if vec is None:
                vec = np.zeros(diag_length(a.dim, dc), dtype=COMPLEX)
                out[dc] = vec
            c0 = max(0, -dc)
            vec[r_lo - c0: r_hi + 1 - c0] += (segment_values(a, da, r_lo, r_hi)
                                              * segment_values(b, db, r_lo + da, r_hi + da))
    return out, multiplies


def merge_outputs(n: int, banks) -> DiagMatrix:
    """Sum per-offset partial vectors across jobs in schedule order, in one buffer."""
    offsets = sorted(set().union(*banks))
    starts = buffer_starts(n, offsets).tolist()
    slices = {d: slice(lo, hi) for d, lo, hi in zip(offsets, starts, starts[1:])}
    # every slot gets a full-length partial, and -0.0 + x is x bit for bit
    values = np.full(starts[-1], complex(-0.0, -0.0))
    for bank in banks:
        for dc, vec in bank.items():
            values[slices[dc]] += vec
    return drop_zero_diagonals(DiagMatrix.packed(n, offsets, values), 0.0)
