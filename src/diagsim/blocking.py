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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagmat import DiagMatrix, buffer_starts, drop_zero_diagonals
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
