"""Per-cycle stepper of the diagonal processing grid: the tests' oracle.

dataflow.run_job counts each job in closed form.  This module steps the same
grid one cycle at a time, as the dataflow module docstring describes it:
streams enter one cycle apart, every cell matches transiting A and B
operands by index, and end markers drain through the far corner.  A job is
two operand matrices and two bounds arrays, as dataflow.run_job takes them;
each stream reads its values from its matrix by its bounds row, as
blocking_oracle.job_product does.  The stepper fires every partial product
with its value, so it checks the closed-form stage cycles, counters and
touched output offsets, and job_product's per-job values, against an
independent model.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from diagsim.dataflow import FeedConfig, StageCycles, longest_diagonal, predict_cycles
from diagsim.diagmat import COMPLEX, diag_length
from diagsim.errors import GridCapacityError

from blocking_oracle import segment_values


class SimulatorError(RuntimeError):
    """Internal simulator invariant violated (livelock, FIFO overwrite)."""


def _zero_counters():
    return {
        "multiplies": 0, "fifo_reads": 0, "fifo_writes": 0,
        "active_dpe_cycles": 0, "active_dpes": 0,
        "dyn_preload": 0,
    }


class PartialProduct:
    """One multiplier output: value plus the output coordinate it lands on."""

    __slots__ = ("value", "i", "j")

    def __init__(self, value: complex, i: int, j: int):
        self.value = value
        self.i = i
        self.j = j


class DiagAccumulatorBank:
    """Per-output-offset reduction buffers, N - |d| long, zero-initialized."""

    def __init__(self, n: int):
        self.n = n
        self.vectors: dict[int, np.ndarray] = {}

    def add(self, i: int, j: int, value: complex) -> None:
        dc = j - i
        vec = self.vectors.get(dc)
        if vec is None:
            vec = np.zeros(diag_length(self.n, dc), dtype=COMPLEX)
            self.vectors[dc] = vec
        vec[i - max(0, -dc)] += value


class _Stream:
    """One fed diagonal segment, a bounds row of matrix m: coordinates
    self-increment from the first element, optionally strided for the
    pipelined single-diagonal layout."""

    __slots__ = ("offset", "i0", "j0", "values", "stride")

    def __init__(self, m, bound, stride: int = 1, phase: int = 0):
        offset, first, last = bound
        self.offset = offset
        self.i0 = first + phase
        self.j0 = first + offset + phase
        self.values = segment_values(m, offset, first, last)[phase::stride]
        self.stride = stride

    def __len__(self):
        return len(self.values)


class _Cell:
    __slots__ = ("pending_a", "pending_b", "a_done", "b_done", "seen_a", "seen_b")

    def __init__(self):
        self.pending_a: dict[int, tuple[int, complex]] = {}  # j -> (i, value)
        self.pending_b: dict[int, tuple[int, complex]] = {}  # i -> (j, value)
        self.a_done = False
        self.b_done = False
        self.seen_a = False
        self.seen_b = False


def _ordered(bounds, order: str) -> list:
    """Bounds rows in grid order: as given (ascending offsets), or reversed."""
    rows = bounds.tolist()
    return rows if order == "ascending" else rows[::-1]


class DpeGrid:
    """R x C grid of comparator cells wired to staggered feed schedules."""

    def __init__(self, a, b, a_bounds, b_bounds, feed: FeedConfig = FeedConfig(),
                 max_rows: int | None = None, max_cols: int | None = None,
                 interleave: int = 1):
        a_segs = _ordered(a_bounds, feed.a_order)
        b_segs = _ordered(b_bounds, feed.b_order)
        if interleave < 1:
            raise GridCapacityError(f"interleave must be at least 1, got {interleave}")
        if interleave > 1:
            if len(a_segs) != 1:
                raise GridCapacityError("pipelined interleave applies to single-diagonal jobs only")
            _, first, last = a_segs[0]
            if interleave > last - first + 1:
                # a wider interleave would build empty columns that still
                # occupy cells and stagger the feeds
                raise GridCapacityError(
                    f"interleave {interleave} exceeds the {last - first + 1}-element A segment")
            self.a_streams = [_Stream(a, a_segs[0], interleave, p) for p in range(interleave)]
        else:
            self.a_streams = [_Stream(a, s) for s in a_segs]
        self.b_streams = [_Stream(b, s) for s in b_segs]
        self.rows = len(self.b_streams)
        self.cols = len(self.a_streams)
        if max_cols is not None and self.cols > max_cols:
            raise GridCapacityError(f"{self.cols} A segments exceed the {max_cols}-column grid")
        if max_rows is not None and self.rows > max_rows:
            raise GridCapacityError(f"{self.rows} B segments exceed the {max_rows}-row grid")
        self.n = a.dim
        self.feed = feed

    def d_c(self, r: int, c: int) -> int:
        """Output offset the cell at (row, col) contributes to."""
        return self.b_streams[r].offset + self.a_streams[c].offset

    def a_lengths(self):
        return [len(s) for s in self.a_streams]

    def b_lengths(self):
        return [len(s) for s in self.b_streams]


class StepResult(NamedTuple):
    stage: StageCycles
    counters: dict
    bank: DiagAccumulatorBank
    products: list[PartialProduct] | None


def step_job(a, b, a_bounds, b_bounds, feed: FeedConfig = FeedConfig(), *,
             max_rows: int | None = None, max_cols: int | None = None,
             interleave: int = 1, collect_products: bool = False, trace=None) -> StepResult:
    """Step one grid job of a's and b's segments named by two bounds arrays
    to drain; accumulate its products by output offset.

    The stage split comes from predict_cycles on the stepped grid's shape;
    the total and every counter are measured.
    """
    bank = DiagAccumulatorBank(a.dim)
    if not len(a_bounds) or not len(b_bounds):
        return StepResult(StageCycles(0, 0, 0, 0), _zero_counters(), bank, [])
    grid = DpeGrid(a, b, a_bounds, b_bounds, feed,
                   max_rows=max_rows, max_cols=max_cols, interleave=interleave)
    stage = predict_cycles(grid.rows, grid.cols,
                           *longest_diagonal(grid.a_lengths(), grid.b_lengths()))
    sim = GridRun(grid, bank, collect_products=collect_products, trace=trace)
    total = sim.drain()
    stage = StageCycles(stage.preload, stage.compute, stage.popout, total)
    return StepResult(stage, sim.counters, sim.bank, sim.products)


class GridRun:
    """Steppable execution of one grid job.

    step() advances a single cycle and returns the partial products fired in
    it; drain() steps until the grid has emptied and returns the total cycle
    count.
    """

    def __init__(self, grid: DpeGrid, bank: DiagAccumulatorBank | None = None,
                 collect_products: bool = False, trace=None):
        self.grid = grid
        self.bank = bank or DiagAccumulatorBank(grid.n)
        self.trace = trace
        self.products: list[PartialProduct] | None = [] if collect_products else None
        self.counters = _zero_counters()
        self.counters["active_dpes"] = grid.rows * grid.cols
        self.cells = [[_Cell() for _ in range(grid.cols)] for _ in range(grid.rows)]
        self.cycle = 0
        # end markers: grid coordinate once entered, None before, "out" after
        self._end_a_row: list[int | None] = [None] * grid.cols
        self._end_b_col: list[int | None] = [None] * grid.rows
        self._ends_left = grid.rows + grid.cols
        self._first_both_max = -1
        self._last_end_cycle = -1
        self._idle_guard = grid.rows + grid.cols + max(grid.a_lengths() + grid.b_lengths()) + 8
        self._fired: list[PartialProduct] = []

    @property
    def finished(self) -> bool:
        return self._ends_left == 0

    def step(self) -> list[PartialProduct]:
        """Advance one cycle; returns the partial products it produced."""
        if self.finished:
            return []
        grid = self.grid
        rows, cols = grid.rows, grid.cols
        cells = self.cells
        counters = self.counters
        a_len = grid.a_lengths()
        b_len = grid.b_lengths()
        trace = self.trace
        t = self.cycle
        self._fired = []
        progressed = False
        transits = 0
        both_cells = 0
        # -- A-side transits: element k of column c visits row t - c - k
        for c in range(cols):
            stream = grid.a_streams[c]
            r_hi = min(rows - 1, t - c)
            r_lo = max(0, t - c - (a_len[c] - 1))
            if r_hi < r_lo:
                continue
            j_base = stream.j0
            stride = stream.stride
            values = stream.values
            for r in range(r_lo, r_hi + 1):
                k = t - c - r
                j = j_base + stride * k
                i = stream.i0 + stride * k
                cell = cells[r][c]
                if not cell.seen_a:
                    cell.seen_a = True
                    if cell.seen_b:
                        self._first_both_max = max(self._first_both_max, t)
                partner = cell.pending_b.pop(j, None)
                if partner is not None:
                    self._fire(r, c, i, partner[0], values[k] * partner[1], t)
                else:
                    cell.pending_a[j] = (i, values[k])
                    if trace is not None:
                        trace({"cycle": t, "dpe": [r, c], "action": "transit_a", "j": j})
                pend_b = cell.pending_b
                while pend_b:
                    head = next(iter(pend_b))
                    if head < j:
                        del pend_b[head]  # passed over: can never match a later j
                    else:
                        break
                transits += 1
            progressed = True
        # -- B-side transits: element m of row r visits col t - r - m
        for r in range(rows):
            stream = grid.b_streams[r]
            c_hi = min(cols - 1, t - r)
            c_lo = max(0, t - r - (b_len[r] - 1))
            if c_hi < c_lo:
                continue
            i_base = stream.i0
            values = stream.values
            for c in range(c_lo, c_hi + 1):
                m = t - r - c
                i = i_base + m
                j = stream.j0 + m
                cell = cells[r][c]
                if not cell.seen_b:
                    cell.seen_b = True
                    if cell.seen_a:
                        self._first_both_max = max(self._first_both_max, t)
                partner = cell.pending_a.pop(i, None)
                if partner is not None:
                    self._fire(r, c, partner[0], j, partner[1] * values[m], t)
                else:
                    cell.pending_b[i] = (j, values[m])
                    if trace is not None:
                        trace({"cycle": t, "dpe": [r, c], "action": "transit_b", "i": i})
                pend_a = cell.pending_a
                while pend_a:
                    head = next(iter(pend_a))
                    if head < i:
                        del pend_a[head]
                    else:
                        break
                transits += 1
                # same-cycle co-transit counts the cell once
                if 0 <= t - c - r < a_len[c]:
                    both_cells += 1
            progressed = True
        counters["fifo_writes"] += transits
        counters["fifo_reads"] += transits
        counters["active_dpe_cycles"] += transits - both_cells
        # -- end markers arrive (set exhaustion flags) ...
        for c in range(cols):
            if self._end_a_row[c] is None and t == c + a_len[c]:
                self._end_a_row[c] = 0
                cells[0][c].a_done = True
                if trace is not None:
                    trace({"cycle": t, "dpe": [0, c], "action": "end_a"})
                progressed = True
        for r in range(rows):
            if self._end_b_col[r] is None and t == r + b_len[r]:
                self._end_b_col[r] = 0
                cells[r][0].b_done = True
                if trace is not None:
                    trace({"cycle": t, "dpe": [r, 0], "action": "end_b"})
                progressed = True
        # -- ... and depart once the opposing stream is exhausted here too
        moved_a = [(c, pos) for c, pos in enumerate(self._end_a_row)
                   if isinstance(pos, int) and cells[pos][c].b_done]
        moved_b = [(r, pos) for r, pos in enumerate(self._end_b_col)
                   if isinstance(pos, int) and cells[r][pos].a_done]
        for c, pos in moved_a:
            cells[pos][c].pending_a.clear()
            if pos + 1 >= rows:
                self._end_a_row[c] = "out"
                self._ends_left -= 1
                self._last_end_cycle = t
            else:
                self._end_a_row[c] = pos + 1
                cells[pos + 1][c].a_done = True
            progressed = True
        for r, pos in moved_b:
            cells[r][pos].pending_b.clear()
            if pos + 1 >= cols:
                self._end_b_col[r] = "out"
                self._ends_left -= 1
                self._last_end_cycle = t
            else:
                self._end_b_col[r] = pos + 1
                cells[r][pos + 1].b_done = True
            progressed = True
        if not progressed and not self.finished:
            self._idle_guard -= 1
            if self._idle_guard <= 0:
                raise SimulatorError(f"livelock: grid failed to drain by cycle {t}")
        self.cycle = t + 1
        if self.finished:
            counters["dyn_preload"] = self._first_both_max + 1
        return self._fired

    def drain(self) -> int:
        """Run to completion; returns the measured total cycle count."""
        bound = 4 * self._idle_guard + 64
        while not self.finished:
            self.step()
            if self.cycle > bound:
                raise SimulatorError("runaway simulation; grid failed to drain")
        return self._last_end_cycle + 1

    def _fire(self, r: int, c: int, i: int, j: int, value: complex, t: int) -> None:
        if j - i != self.grid.d_c(r, c):
            raise SimulatorError("partial product off its offset-sum diagonal")
        self.bank.add(i, j, value)
        counters = self.counters
        counters["multiplies"] += 1
        # the product crosses the depth-1 output FIFO on its way out
        counters["fifo_writes"] += 1
        counters["fifo_reads"] += 1
        product = PartialProduct(value, i, j)
        self._fired.append(product)
        if self.products is not None:
            self.products.append(product)
        if self.trace is not None:
            self.trace({"cycle": t, "dpe": [r, c], "action": "multiply", "i": i, "j": j})
