"""The blocking planner as it was written diagonal by diagonal: the tests' oracle.

blocking.make_plan cuts all of an operand's diagonals to a window at once,
from the offset array.  This version clips one diagonal at a time through
the index range of its values, sorts each window's segments by (offset,
first row) and chunks them into groups, as the planner did while every
segment was a Python object carrying a view of its values.  Both must give
the same jobs in the same order: window, group ids and bounds rows.
"""

from __future__ import annotations


def window_segments(m, lo: int, hi: int, by_col: bool) -> list[tuple[int, int, int]]:
    """(offset, first row, last row) of each diagonal of m cut to columns
    (by_col) or rows lo..hi-1; a diagonal left with no row is dropped."""
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
