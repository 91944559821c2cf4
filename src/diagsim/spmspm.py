"""Functional (timing-free) diagonal-space matrix multiplication.

The product of the diagonal at offset dA with the diagonal at offset dB
lands entirely on the output diagonal at offset dA + dB; the set of output
offsets is therefore contained in the Minkowski sum of the operand offset
sets.  Per (dA, dB) pair the element-wise product runs over the row range
where A, B and C positions are all in-bounds:

    A holds (r, r + dA), B holds (r + dA, r + dA + dB), C gets (r, r + dA + dB)

which pins r to [max(0, -dA, -(dA+dB)), N-1 - max(0, dA, dA+dB)].  This
module is the single source of index truth; the grid simulator must produce
the identical multiply set.

``diag_matmul`` does the work as dense array operations on whole diagonals.
A diagonal is laid out as a length-N vector, zero-padded outside its natural
length, in one of two ways: *by row* (position j holds the entry in matrix
row j) or *by column* (position j holds the entry in column j).  The kernel
loops over the diagonals of the operand with fewer of them (the narrow one;
A on a tie) and, per step, multiplies one of its diagonals into every laid-out
diagonal of the other (wide) operand with a single array operation:

* narrow A: B and C are laid out by row, and for each dA in ascending order
  ``C[dA + dB, r] += A_dA[r] * B[dB, r + dA]`` for all dB at once;
* narrow B: A and C are laid out by column, and for each dB in descending
  order ``C[dA + dB, k + dB] += A[dA, k] * B_dB[k]`` for all dA at once.

Padding is zero and inputs are finite, so the out-of-range positions of a
step only ever add zeros.  Pairs whose offset sum falls outside the matrix
multiply padding alone and go to one scratch row that is discarded.

Accumulation order: every output diagonal receives its terms in ascending dA,
the order of a loop over (dA, dB) pairs in ascending dA then dB, so results
are bit-reproducible and agree with that loop.  (Descending dB is ascending
dA for a fixed dA + dB, and the wide operand's blocks are visited in the
matching direction.)

Memory: operands are read from their flat value buffers (see ``diagmat``):
a block of the wide operand is one buffer slice scattered into its layout,
and a narrow diagonal is a slice view.  The accumulator holds one length-N row
per output offset plus the scratch row; the wide operand is laid out
``BLOCK`` diagonals at a time, so other temporaries stay within about
BLOCK x N values.  The kept (not all-zero) rows are gathered into one
exact-length buffer that becomes the product's value buffer as it is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagmat import COMPLEX, DiagMatrix
from .errors import ShapeError

# diagonals of the wide operand laid out, and multiplied, per array operation
BLOCK = 64


def minkowski(da: set[int] | list[int] | tuple[int, ...], db) -> tuple[int, ...]:
    """All pairwise offset sums, deduplicated and sorted."""
    return tuple(sorted({a + b for a in da for b in db}))


@dataclass(frozen=True)
class OverlapRange:
    """Inclusive row range [r_lo, r_hi] of valid products; empty when r_lo > r_hi."""

    r_lo: int
    r_hi: int

    def __len__(self) -> int:
        return max(0, self.r_hi - self.r_lo + 1)

    def __bool__(self) -> bool:
        return self.r_hi >= self.r_lo


def overlap_range(da: int, db: int, n: int) -> OverlapRange:
    """Row range over which diagonals at offsets da (in A) and db (in B) interact."""
    r_lo = max(0, -da, -(da + db))
    r_hi = n - 1 - max(0, da, da + db)
    return OverlapRange(r_lo, r_hi)


def multiply_count(offsets_a, offsets_b, n: int) -> int:
    """Scalar multiplies a full diagonal-space product performs."""
    return sum(len(overlap_range(da, db, n)) for da in offsets_a for db in offsets_b)


def _window(offsets: np.ndarray, n: int, by_col: bool) -> np.ndarray:
    """(len(offsets), n) mask of the positions each diagonal fills when laid out.

    Row-major order over the mask is the order of the diagonals' values
    concatenated, so one boolean index scatters or gathers them all.
    """
    start = np.maximum(0, offsets if by_col else -offsets)
    j = np.arange(n)
    return (j >= start[:, None]) & (j < (start + n - np.abs(offsets))[:, None])


def _layout(m: DiagMatrix, lo: int, hi: int, by_col: bool) -> np.ndarray:
    """Diagonals lo..hi-1 of m as the rows of a zero-padded (hi - lo, n) array."""
    mask = _window(m.offset_array[lo:hi], m.dim, by_col)
    out = np.zeros(mask.shape, dtype=COMPLEX)
    out[mask] = m.values[m.starts[lo]:m.starts[hi]]
    return out


def diag_matmul(a: DiagMatrix, b: DiagMatrix) -> DiagMatrix:
    """C = A @ B computed entirely in diagonal space.

    Output diagonals keep their full natural length; head/tail zeros from
    partial overlaps stay stored.  Only diagonals that end up exactly zero
    everywhere are dropped.
    """
    if a.dim != b.dim:
        raise ShapeError(f"dim mismatch: {a.dim} vs {b.dim}")
    n = a.dim
    if not a.nnzd or not b.nnzd:
        return DiagMatrix(n, ())
    sums = a.offset_array[:, None] + b.offset_array[None, :]
    out_offsets = np.unique(sums)
    out_offsets = out_offsets[np.abs(out_offsets) < n]
    slot = np.searchsorted(out_offsets, sums)
    slot[np.abs(sums) >= n] = len(out_offsets)  # the scratch row
    acc = np.zeros((len(out_offsets) + 1, n), dtype=COMPLEX)
    by_col = a.nnzd > b.nnzd
    if by_col:
        b_starts = b.starts.tolist()
        for i0 in range(0, a.nnzd, BLOCK):
            wide = _layout(a, i0, min(i0 + BLOCK, a.nnzd), by_col=True)
            for j in range(b.nnzd - 1, -1, -1):
                db, b_vals = b.offsets[j], b.values[b_starts[j]:b_starts[j + 1]]
                lo, hi = max(0, -db), n - max(0, db)
                acc[slot[i0:i0 + BLOCK, j], lo + db:hi + db] += wide[:, lo:hi] * b_vals
    else:
        a_starts = a.starts.tolist()
        for j1 in range(b.nnzd, 0, -BLOCK):
            j0 = max(0, j1 - BLOCK)
            wide = _layout(b, j0, j1, by_col=False)
            for i, da in enumerate(a.offsets):
                a_vals = a.values[a_starts[i]:a_starts[i + 1]]
                lo, hi = max(0, -da), n - max(0, da)
                acc[slot[i, j0:j1], lo:hi] += a_vals * wide[:, lo + da:hi + da]
    keep = acc[:-1].any(axis=1)
    mask = _window(out_offsets, n, by_col) & keep[:, None]
    values = acc[:-1][mask]
    del acc
    return DiagMatrix.packed(n, out_offsets[keep], values)


def dense_matmul_oracle(a, b) -> np.ndarray:
    """Textbook dense product in 64-bit complex; the verification oracle."""
    ga = np.asarray(a, dtype=COMPLEX)
    gb = np.asarray(b, dtype=COMPLEX)
    if ga.ndim != 2 or ga.shape[0] != ga.shape[1]:
        raise ShapeError(f"square input required, got {ga.shape}")
    if ga.shape != gb.shape:
        raise ShapeError(f"shape mismatch: {ga.shape} vs {gb.shape}")
    return ga @ gb
