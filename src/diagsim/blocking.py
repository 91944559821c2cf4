"""Decompose a diagonal-space product into grid-sized jobs.

Two orthogonal strategies compose:

  * row/col-wise blocking: A is split column-wise and B row-wise at shared
    cut indices.  Only same-window pairs are scheduled; a column group of A
    and a row group of B with disjoint index windows share no inner index k,
    so their product is identically zero and never appears in the plan.
  * diagonal blocking: each operand's diagonals (or segments) are chunked
    independently into groups no larger than the grid dimension; every
    A-group multiplies every B-group.

Job order is B-group-major: all A-groups run against one B-group before the
next B-group starts, which maximizes reuse of cached A lines.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .diagmat import COMPLEX, DiagMatrix, buffer_starts, diag_length, drop_zero_diagonals
from .errors import PlanError

AUTO_CUT_WINDOW = 4096


@dataclass(frozen=True)
class DiagSegment:
    """A contiguous slice of one diagonal; values[k] sits at row row_start + k."""

    offset: int
    row_start: int
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.values)

    def first_coord(self) -> tuple[int, int]:
        """(i, j) of the first element; later coordinates self-increment."""
        return self.row_start, self.row_start + self.offset


@dataclass(frozen=True)
class BlockGroup:
    group_id: int
    kind: str  # "A" | "B"
    segments: tuple[DiagSegment, ...]

    @property
    def offsets(self) -> tuple[int, ...]:
        return tuple(s.offset for s in self.segments)


@dataclass(frozen=True)
class Job:
    window: int
    a_group: BlockGroup
    b_group: BlockGroup


@dataclass(frozen=True)
class BlockPlan:
    dim: int
    jobs: tuple[Job, ...]
    grid_rows: int
    grid_cols: int

    def to_json(self) -> str:
        doc = {
            "dim": self.dim,
            "grid": {"rows": self.grid_rows, "cols": self.grid_cols},
            "jobs": [
                {
                    "window": j.window,
                    "a_group": j.a_group.group_id,
                    "b_group": j.b_group.group_id,
                    "a_offsets": list(j.a_group.offsets),
                    "b_offsets": list(j.b_group.offsets),
                }
                for j in self.jobs
            ],
        }
        return json.dumps(doc, indent=2, sort_keys=True)


def whole_segments(m: DiagMatrix) -> list[DiagSegment]:
    """Each stored diagonal as one full-length segment."""
    return [DiagSegment(d.offset, d.row_start(), d.values) for d in m.diagonals]


def _check_cuts(cuts, n: int) -> list[int]:
    cuts = list(cuts or [])
    if any(cuts[i] >= cuts[i + 1] for i in range(len(cuts) - 1)):
        raise PlanError(f"cuts must be strictly ascending, got {cuts}")
    if any(not (1 <= c <= n - 1) for c in cuts):
        raise PlanError(f"cuts must lie strictly inside [1, {n - 1}], got {cuts}")
    return cuts


def partition_rowcol(a: DiagMatrix, b: DiagMatrix, cuts) -> tuple[list[list[DiagSegment]], list[list[DiagSegment]]]:
    """Split A column-wise and B row-wise at the same cut indices.

    Returns per-window segment lists; window w of A pairs only with window w
    of B.  Segment lengths are bounded by the window width.
    """
    n = a.dim
    cuts = _check_cuts(cuts, n)
    bounds = [0] + cuts + [n]
    windows = list(zip(bounds[:-1], bounds[1:]))
    a_groups = [_window_segments(a, lo, hi, by_col=True) for lo, hi in windows]
    b_groups = [_window_segments(b, lo, hi, by_col=False) for lo, hi in windows]
    return a_groups, b_groups


def _window_segments(m: DiagMatrix, lo: int, hi: int, by_col: bool) -> list[DiagSegment]:
    segs = []
    for diag in m.diagonals:
        r0 = diag.row_start()
        if by_col:
            j0 = r0 + diag.offset
            k_lo = max(j0, lo) - j0
            k_hi = min(j0 + len(diag.values) - 1, hi - 1) - j0
        else:
            k_lo = max(r0, lo) - r0
            k_hi = min(r0 + len(diag.values) - 1, hi - 1) - r0
        if k_hi < k_lo:
            continue
        segs.append(DiagSegment(diag.offset, r0 + k_lo, diag.values[k_lo: k_hi + 1]))
    return segs


def partition_diagonals(segments: list[DiagSegment], group_size: int, kind: str,
                        id_base: int = 0) -> list[BlockGroup]:
    """Chunk segments (ascending offset order) into groups of at most group_size."""
    if group_size < 1:
        raise PlanError(f"group_size must be >= 1, got {group_size}")
    ordered = sorted(segments, key=lambda s: (s.offset, s.row_start))
    groups = []
    for g, start in enumerate(range(0, len(ordered), group_size)):
        groups.append(BlockGroup(id_base + g, kind, tuple(ordered[start: start + group_size])))
    return groups


def default_cuts(n: int) -> list[int]:
    """No cuts up to the buffer-friendly window; equal windows beyond."""
    if n <= AUTO_CUT_WINDOW:
        return []
    return list(range(AUTO_CUT_WINDOW, n, AUTO_CUT_WINDOW))


def make_plan(a: DiagMatrix, b: DiagMatrix, grid_rows: int, grid_cols: int,
              cuts=None, a_group_size: int | None = None,
              b_group_size: int | None = None) -> BlockPlan:
    """Compose row/col and diagonal blocking into a deterministic job list."""
    if grid_rows < 1 or grid_cols < 1:
        raise PlanError("grid dimensions must be >= 1")
    if a.dim != b.dim:
        raise PlanError(f"dim mismatch: {a.dim} vs {b.dim}")
    a_gs = a_group_size or grid_cols
    b_gs = b_group_size or grid_rows
    if a_gs > grid_cols or b_gs > grid_rows:
        raise PlanError("group size may not exceed the grid dimension")
    win_a, win_b = partition_rowcol(a, b, default_cuts(a.dim) if cuts is None else cuts)

    jobs = []
    a_count = b_count = 0  # group ids run on across windows
    for w, (segs_a, segs_b) in enumerate(zip(win_a, win_b)):
        ga = partition_diagonals(segs_a, a_gs, "A", id_base=a_count)
        gb = partition_diagonals(segs_b, b_gs, "B", id_base=b_count)
        a_count, b_count = a_count + len(ga), b_count + len(gb)
        for bg in gb:
            for ag in ga:
                jobs.append(Job(w, ag, bg))
    return BlockPlan(a.dim, tuple(jobs), grid_rows, grid_cols)


# -- functional reference for job outputs --------------------------------------


def job_product(n: int, a_segments, b_segments,
                out: dict[int, np.ndarray] | None = None) -> tuple[dict[int, np.ndarray], int]:
    """Exact product restricted to a job's segments, keyed by output offset.

    A row r of A's segment meets B's segment where row r + dA is one of its
    rows; both segments lie in bounds, so that intersection is the overlap
    range cut to the segments.  The grid simulator must reproduce this
    multiply set one-to-one.  Products are added into out (a fresh dict when
    absent); returns it with the multiply count.
    """
    out = {} if out is None else out
    multiplies = 0
    b_sorted = [(s.offset, s.row_start, s.row_start + len(s.values) - 1, s.values)
                for s in sorted(b_segments, key=lambda s: (s.offset, s.row_start))]
    for seg_a in sorted(a_segments, key=lambda s: (s.offset, s.row_start)):
        da, a_lo, a_vals = seg_a.offset, seg_a.row_start, seg_a.values
        a_hi = a_lo + len(a_vals) - 1
        for db, b_lo, b_hi, b_vals in b_sorted:
            r_lo = max(a_lo, b_lo - da)
            r_hi = min(a_hi, b_hi - da)
            if r_hi < r_lo:
                continue
            multiplies += r_hi - r_lo + 1
            dc = da + db
            vec = out.get(dc)
            if vec is None:
                vec = np.zeros(diag_length(n, dc), dtype=COMPLEX)
                out[dc] = vec
            prod = (a_vals[r_lo - a_lo: r_hi + 1 - a_lo]
                    * b_vals[r_lo + da - b_lo: r_hi + 1 + da - b_lo])
            c0 = max(0, -dc)
            vec[r_lo - c0: r_hi + 1 - c0] += prod
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
