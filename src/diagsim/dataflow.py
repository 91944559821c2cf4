"""Grid model of the diagonal processing grid, counted in closed form per job.

Columns carry operand-A diagonal segments (fed from the top), rows carry
operand-B segments (fed from the left), each named by a row of a bounds array
(blocking module docstring); a descending feed reverses the rows' ascending
offset order.  Feeds start one cycle apart in grid order and inject one
element per cycle, so element k of column c transits the cell at row r
exactly at cycle c + k + r: the classic systolic wavefront.  Each cell
compares the column index of the transiting A operand with the row index of
the transiting B operand and multiplies on equality; on a mismatch the
smaller-indexed operand moves on while the larger is retained as pending
state until its partner arrives (indices along a stream only grow, so a
passed-over operand can never match later).

The model is stall-free: operand flow is never throttled, and retention is
bookkeeping rather than backpressure.  Each stream is trailed by an end
marker that flows through the same cells; a cell releases an end marker only
once the opposing stream's marker has also reached it, so the pair of end
waves sweeps the grid and drains through the far corner.  The marker
departure time D satisfies D(r,c) = max(D(r-1,c), D(r,c-1)) + 1 with edge
values fixed by the feed lengths, which telescopes to the
position-independent total R + C + L_max - 1.

Because nothing stalls, every figure of a job has a closed form, and run_job
computes them from the bounds alone; no value reaches it.  With R rows,
C columns, A-column lengths La and B-row lengths Lb:

  * multiplies = sum over (A segment, B segment) pairs of the rows r that
    both cover: r_lo = max(a_lo, b_lo - dA), r_hi = min(a_hi, b_hi - dA);
  * touched output offsets = dA + dB over the pairs with a nonempty range;
  * fifo reads = fifo writes = R * sum(La) + C * sum(Lb) + multiplies: each
    cell sees La[c] + Lb[r] operand transits, and each product crosses the
    depth-1 output FIFO once (reaching its accumulator one cycle later);
  * active DPE cycles = sum over cells of max(La[c], Lb[r]), since both
    streams reach cell (r, c) first at cycle r + c;
  * dynamic preload = R + C - 1, the cycle after the far corner first holds
    both operands.

The product's values come from the caller (spmspm.diag_matmul, or hamsim's
dense Taylor product); no job computes values.  The per-job value reference
and a per-cycle stepper of the same grid live with the tests as the oracles
these closed forms are held to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, GridCapacityError


@dataclass(frozen=True)
class FeedConfig:
    """Feed order per operand; the default is A top-down in ascending offset
    order and B left-right in descending order."""

    a_order: str = "ascending"
    b_order: str = "descending"

    def __post_init__(self):
        for order in (self.a_order, self.b_order):
            if order not in ("ascending", "descending"):
                raise DomainError(f"feed order must be ascending or descending, got {order!r}")


@dataclass(frozen=True)
class StageCycles:
    """Stage cycle counts; stages overlap, so compute/popout may go negative.

    preload ends when every cell has seen both wavefront heads; compute ends
    when the feeds finish; popout ends when the grid drains.  total is the
    end-to-end count.
    """

    preload: int
    compute: int
    popout: int
    total: int

    def __add__(self, other: "StageCycles") -> "StageCycles":
        return StageCycles(self.preload + other.preload, self.compute + other.compute,
                           self.popout + other.popout, self.total + other.total)


def longest_diagonal(a_lengths: list[int], b_lengths: list[int]) -> tuple[str, int, int]:
    """(side, length, 1-based feed position) of the longest fed diagonal.

    Ties across sides resolve to B (the operand whose shape stays fixed
    across chained products); ties within a side take the first position.
    """
    best_a = max(a_lengths, default=0)
    best_b = max(b_lengths, default=0)
    if best_b >= best_a:
        return "B", best_b, b_lengths.index(best_b) + 1
    return "A", best_a, a_lengths.index(best_a) + 1


def predict_cycles(rows: int, cols: int, length: int, position: int) -> StageCycles:
    """Closed-form stage cycles for a stall-free single job.

    preload = R + C - 1; compute = L + p - R - C + 1 with p the feed position
    of the longest diagonal; popout = R + C - 1 - p.  The stages telescope to
    the position-independent total R + C + L - 1.
    """
    preload = rows + cols - 1
    compute = length + position - rows - cols + 1
    popout = rows + cols - 1 - position
    return StageCycles(preload, compute, popout, rows + cols + length - 1)


class RunResult(NamedTuple):
    """One job's figures: stage cycles, event counters, the output offsets it
    touches (ascending), the grid shape and the longest fed diagonal."""

    stage: StageCycles
    counters: dict
    offsets: list[int]
    rows: int
    cols: int
    longest: tuple[str, int, int]


def add_counters(total: dict, counters: dict) -> None:
    """Fold one job's counters into a running total, in place.

    active_dpes is the peak grid size in use, so it takes the maximum; every
    other counter is an event count and sums.
    """
    for key, val in counters.items():
        if key == "active_dpes":
            total[key] = max(total.get(key, 0), val)
        else:
            total[key] = total.get(key, 0) + val


def fold(parts) -> tuple[StageCycles, dict]:
    """The summed stage cycles and counters (add_counters) of (stage, counters) pairs."""
    stage, counters = StageCycles(0, 0, 0, 0), {}
    for part, part_counters in parts:
        stage += part
        add_counters(counters, part_counters)
    return stage, counters


def check_interleave(interleave: int) -> None:
    if interleave < 1:
        raise GridCapacityError(f"interleave must be at least 1, got {interleave}")


def run_job(a_bounds: np.ndarray, b_bounds: np.ndarray, feed: FeedConfig = FeedConfig(), *,
            max_rows: int | None = None, max_cols: int | None = None,
            interleave: int = 1) -> RunResult:
    """Count one grid job of two bounds arrays, each of at least one row as
    blocking.make_plan's groups are, in closed form (module docstring).

    interleave > 1 deals a single A segment round-robin over that many
    columns (the pipelined single-diagonal layout).  Raises
    GridCapacityError when the job does not fit the grid or the interleave
    does not apply.
    """
    check_interleave(interleave)
    a_len = (a_bounds[:, 2] - a_bounds[:, 1] + 1).tolist()
    b_len = (b_bounds[:, 2] - b_bounds[:, 1] + 1).tolist()
    if feed.a_order == "descending":
        a_len.reverse()
    if feed.b_order == "descending":
        b_len.reverse()
    if interleave > 1:
        if len(a_len) != 1:
            raise GridCapacityError("pipelined interleave applies to single-diagonal jobs only")
        if interleave > a_len[0]:
            # a wider interleave would build empty columns that still occupy
            # cells and stagger the feeds
            raise GridCapacityError(
                f"interleave {interleave} exceeds the {a_len[0]}-element A segment")
        a_len = [(a_len[0] - p + interleave - 1) // interleave for p in range(interleave)]
    rows, cols = len(b_len), len(a_len)
    if max_cols is not None and cols > max_cols:
        raise GridCapacityError(f"{cols} A segments exceed the {max_cols}-column grid")
    if max_rows is not None and rows > max_rows:
        raise GridCapacityError(f"{rows} B segments exceed the {max_rows}-row grid")
    longest = longest_diagonal(a_len, b_len)
    stage = predict_cycles(rows, cols, *longest[1:])
    # one row per A segment, one column per B segment: offset, first and last row
    da, a_lo, a_hi = a_bounds.T[:, :, None]
    db, b_lo, b_hi = b_bounds.T
    r_lo = np.maximum(a_lo, b_lo - da)
    r_hi = np.minimum(a_hi, b_hi - da)
    live = r_hi >= r_lo
    multiplies = int((r_hi - r_lo + 1)[live].sum())
    offsets = np.unique((da + db)[live]).tolist()
    fifo = rows * sum(a_len) + cols * sum(b_len) + multiplies
    counters = {
        "multiplies": multiplies,
        "fifo_reads": fifo,
        "fifo_writes": fifo,
        "active_dpe_cycles": int(np.maximum.outer(b_len, a_len).sum()),
        "active_dpes": rows * cols,
        "dyn_preload": stage.preload,
    }
    return RunResult(stage, counters, offsets, rows, cols, longest)
