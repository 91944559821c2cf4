"""Functional (timing-free) diagonal-space matrix multiplication.

The product of the diagonal at offset dA with the diagonal at offset dB
lands entirely on the output diagonal at offset dA + dB; the set of output
offsets is therefore contained in the Minkowski sum of the operand offset
sets.  Per (dA, dB) pair the element-wise product runs over the row range
where A, B and C positions are all in-bounds:

    A holds (r, r + dA), B holds (r + dA, r + dA + dB), C gets (r, r + dA + dB)

which pins r to [max(0, -dA, -(dA+dB)), N-1 - max(0, dA, dA+dB)].  The same
range, cut to two segments' bounds, sets dataflow.run_job's multiply count
and the tests' per-job value reference.  simulate_product checks the jobs'
summed count against multiply_count; the tests hold both to the per-cycle
grid stepper.

``diag_matmul`` does the work as dense array operations on whole diagonals,
each laid out by column: a length-N vector whose position k holds the entry
in matrix column k, zero-padded outside its natural length.  A is laid out
``BLOCK`` diagonals at a time, and B's diagonals stream past each block in
descending dB, each multiplying every diagonal of the block in one array
operation: ``C[dA + dB, k + dB] += A[dA, k] * B_dB[k]`` for all dA at once.
B is the looped operand because in the Taylor chain (hamsim) it is the
Hamiltonian, whose few diagonals set the loop count, while A is the widening
series term.  Padding is zero and inputs are finite, so the out-of-range
positions of a step only ever add zeros.  Pairs whose offset sum falls
outside the matrix multiply padding alone and go to one scratch row that is
discarded.

Accumulation order: every output diagonal receives its terms in ascending dA,
the order of a loop over (dA, dB) pairs in ascending dA then dB, so results
are bit-reproducible and, for real operands, bit-identical to that loop; a
complex product may round differently by the shape of numpy's call.
(Descending dB is ascending dA for a fixed dA + dB, and A's blocks are
visited in ascending order.)  Ascending dA is ascending inner index, from an
accumulator at +0.0: the order hamsim's dense Taylor product keeps, which is
why that product is bit-identical to this one (hamsim module docstring).

Real operands: when every imaginary part of both operands is +-0.0 (one
``.imag.any()`` per operand), A's block layout, B's diagonals and the step
products are float64, and they accumulate into the accumulator's real plane.
This is bit-identical to the complex path.  In a complex product of such
values a*b the extra terms Im(a)Im(b), Re(a)Im(b) and Im(a)Re(b) are exact
zeros, so its real part is Re(a)Re(b) rounded once (a zero's sign aside) and
its imaginary part is a zero.  An accumulator that starts at +0.0 never holds
-0.0: +0.0 + -0.0 is +0.0, and x + (-x) is +0.0 under round-to-nearest.  So
adding a zero of either sign leaves every entry's bits as they were, the real
plane receives the same sums as in the complex path, and the imaginary plane
stays +0.0.  Overflow gives the same infinities, and the same DomainError.

Memory: operands are read from their flat value buffers (see ``diagmat``):
a block of A is one buffer slice scattered into its layout, and a diagonal
of B is a slice view (of one contiguous copy of B's real parts on the real
path).  The accumulator is one flat buffer, read as one length-N row per
output offset plus the scratch row; other temporaries stay within about
BLOCK x N values.  After the loop the kept (not all-zero) rows move forward
into packed order, in ascending offset, inside the accumulator.  Row i's
values start at i N + max(0, d) and pack to the summed lengths of the kept
rows before it, at most i N, so no move overwrites a value not yet moved.
``ndarray.resize`` then shrinks the accumulator to the packed length, and it
becomes the product's value buffer as it is: no padding is retained and no
second buffer is built.
"""

from __future__ import annotations

import numpy as np

from .diagmat import COMPLEX, DiagMatrix, buffer_starts
from .errors import ShapeError

# diagonals of A laid out, and multiplied, per array operation
BLOCK = 64


def multiply_count(offsets_a, offsets_b, n: int) -> int:
    """Scalar multiplies a full diagonal-space product performs: the summed
    overlap range lengths, n - max(0, dA, dC) - max(0, -dA, -dC) when
    positive, over all pairs with dC = dA + dB."""
    da = np.asarray(offsets_a, dtype=np.int64)[:, None]
    dc = da + np.asarray(offsets_b, dtype=np.int64)
    lengths = n - np.maximum(0, np.maximum(da, dc)) - np.maximum(0, -np.minimum(da, dc))
    return int(np.maximum(lengths, 0).sum())


def _window(offsets: np.ndarray, n: int) -> np.ndarray:
    """(len(offsets), n) mask of the columns each diagonal fills when laid out.

    Row-major order over the mask is the order of the diagonals' values
    concatenated, so one boolean index scatters them all.
    """
    start = np.maximum(0, offsets)
    j = np.arange(n)
    return (j >= start[:, None]) & (j < (start + n - np.abs(offsets))[:, None])


def _layout(m: DiagMatrix, values: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Diagonals lo..hi-1 of m, read from values (m's buffer or its real
    parts), as the rows of a zero-padded (hi - lo, n) array."""
    mask = _window(m.offset_array[lo:hi], m.dim)
    out = np.zeros(mask.shape, dtype=values.dtype)
    out[mask] = values[m.starts[lo]:m.starts[hi]]
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
    sums = a.offset_array[:, None] + b.offset_array[None, :]
    out_offsets = np.unique(sums)
    out_offsets = out_offsets[np.abs(out_offsets) < n]
    slot = np.searchsorted(out_offsets, sums)
    slot[np.abs(sums) >= n] = len(out_offsets)  # the scratch row
    flat = np.zeros((len(out_offsets) + 1) * n, dtype=COMPLEX)
    if a.values.imag.any() or b.values.imag.any():
        a_values, b_values, acc = a.values, b.values, flat
    else:  # real operands (module docstring)
        a_values, b_values, acc = a.values.real, b.values.real.copy(), flat.real
    acc = acc.reshape(-1, n)
    b_starts = b.starts.tolist()
    for i0 in range(0, a.nnzd, BLOCK):
        block = _layout(a, a_values, i0, min(i0 + BLOCK, a.nnzd))
        for j in range(b.nnzd - 1, -1, -1):
            db, b_vals = b.offsets[j], b_values[b_starts[j]:b_starts[j + 1]]
            lo, hi = max(0, -db), n - max(0, db)
            acc[slot[i0:i0 + BLOCK, j], lo + db:hi + db] += block[:, lo:hi] * b_vals
    kept = np.flatnonzero(acc[:-1].any(axis=1))
    del acc  # the last view of flat: resize may move it
    offsets = out_offsets[kept]
    starts = buffer_starts(n, offsets)
    sources = kept * n + np.maximum(offsets, 0)
    for to, src, length in zip(starts.tolist(), sources.tolist(), np.diff(starts).tolist()):
        flat[to:to + length] = flat[src:src + length]
    flat.resize(starts[-1], refcheck=False)
    return DiagMatrix.packed(n, offsets, flat)


def dense_matmul_oracle(a, b) -> np.ndarray:
    """Textbook dense product in 64-bit complex; the verification oracle."""
    ga = np.asarray(a, dtype=COMPLEX)
    gb = np.asarray(b, dtype=COMPLEX)
    if ga.ndim != 2 or ga.shape[0] != ga.shape[1]:
        raise ShapeError(f"square input required, got {ga.shape}")
    if ga.shape != gb.shape:
        raise ShapeError(f"shape mismatch: {ga.shape} vs {gb.shape}")
    return ga @ gb
