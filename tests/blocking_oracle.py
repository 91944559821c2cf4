"""The blocking planner as it was written diagonal by diagonal, and the
per-job value reference: the tests' oracles.

blocking.make_plan cuts all of an operand's diagonals to a window at once,
from the offset array.  This version clips one diagonal at a time through
the index range of its values, sorts each window's segments by (offset,
first row) and chunks them into groups, as the planner did while every
segment was a Python object carrying a view of its values.  Both must give
the same jobs in the same order: window, group ids and bounds rows.

job_product computes one job's values from the operands and its bounds;
merged over a plan's jobs with blocking.merge_outputs, it must give the
product, and it must fire the multiplies that dataflow.run_job counts.
"""

from __future__ import annotations

import numpy as np

from diagsim.diagmat import COMPLEX, diag_length


def window_segments(m, lo: int, hi: int, by_col: bool) -> list[tuple[int, int, int]]:
    """(offset, first row, last row) of each diagonal of m cut to columns
    (by_col) or rows lo..hi-1; a diagonal left with no row is dropped."""
    segs = []
    for diag in m.diagonals:
        r0 = max(0, -diag.offset)
        if by_col:
            j0 = r0 + diag.offset
            k_lo = max(j0, lo) - j0
            k_hi = min(j0 + len(diag.values) - 1, hi - 1) - j0
        else:
            k_lo = max(r0, lo) - r0
            k_hi = min(r0 + len(diag.values) - 1, hi - 1) - r0
        if k_hi < k_lo:
            continue
        segs.append((diag.offset, r0 + k_lo, r0 + k_hi))
    return segs


def _chunks(segs: list, size: int) -> list[list]:
    ordered = sorted(segs)  # by (offset, first row)
    return [ordered[start: start + size] for start in range(0, len(ordered), size)]


def plan_jobs(a, b, cuts, a_group_size: int, b_group_size: int) -> list[tuple]:
    """(window, A group id, B group id, A bounds rows, B bounds rows) of each
    job, B-group-major within a window; group ids run on across windows."""
    edges = [0, *cuts, a.dim]
    jobs = []
    a_count = b_count = 0
    for w, (lo, hi) in enumerate(zip(edges, edges[1:])):
        ga = _chunks(window_segments(a, lo, hi, by_col=True), a_group_size)
        gb = _chunks(window_segments(b, lo, hi, by_col=False), b_group_size)
        for j, b_segs in enumerate(gb):
            for i, a_segs in enumerate(ga):
                jobs.append((w, a_count + i, b_count + j,
                             [list(s) for s in a_segs], [list(s) for s in b_segs]))
        a_count, b_count = a_count + len(ga), b_count + len(gb)
    return jobs


def segment_values(m, offset: int, first: int, last: int) -> np.ndarray:
    """The values on rows first..last of m's diagonal at offset (a view)."""
    lo = int(m.starts[m.offsets.index(offset)]) - max(0, -offset)
    return m.values[lo + first: lo + last + 1]


def job_product(a, b, a_bounds: np.ndarray,
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
