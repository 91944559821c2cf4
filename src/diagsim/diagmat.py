"""Diagonal-sparse matrix container and core operations.

A square matrix is stored as its nonzero diagonals only.  Each diagonal is
identified by its offset d = col - row and has natural length N - |d|; no
padding is ever stored.  Entry values[r] of the diagonal at offset d sits at
matrix position (row, col) with

    row = r + max(0, -d),   col = row + d.

All other modules inherit this indexing convention.

Storage: ``offsets``, a strictly increasing tuple of ints (also kept as the
int64 array ``offset_array``), and ``values``, one flat complex128 buffer
holding the diagonals back to back in that order: diagonal i is
``values[starts[i]:starts[i + 1]]``, ``starts`` being 0 and the running sum
of the lengths.  Operations on the buffer alone are a fixed number of numpy
calls.

Everything else walks the diagonals through ``offset_views()``, (offset,
view) pairs of the buffer, and ``diagonal_view(grid, d)``, diagonal d of a
grid: no conversion builds an index array over the entries.  ``add`` adds
each run of diagonals that stays back to back in the union of the offsets at
once, as a complex chain's U and term share most offsets.  One per-diagonal
record surface remains, because the benchmark (``perfbench/``) builds and
compares matrices through it: the ``Diagonal`` record, the list constructor
``DiagMatrix(dim, diagonals)``, and ``diagonals``, the same views as
``Diagonal``s, which the library never writes through.

Every construction checks 1 <= dim < 2**63, integer offsets strictly increasing
inside (-N, N), a contiguous complex128 buffer of length sum(N - |d|) and
finite values, naming the failing diagonal.
``DiagMatrix(dim, diagonals)`` first converts each Diagonal's values to
complex128 and length-checks them, then packs them;
``DiagMatrix.packed(dim, offsets, values)`` takes a buffer as it is and
rejects anything else.  ``from_coo`` turns entries into diagonals for the
Pauli generator and the Matrix Market reader; ``from_dense`` keeps each
diagonal of a grid that holds a nonzero, signed zeros included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError

COMPLEX = np.complex128


def diag_length(n: int, d: int) -> int:
    """Number of stored entries on the diagonal at offset d of an n x n matrix."""
    if n < 1:
        raise DomainError(f"matrix dim must be positive, got {n}")
    if abs(d) >= n:
        raise DomainError(f"offset {d} out of range for dim {n}")
    return n - abs(d)


def buffer_starts(n: int, offsets) -> np.ndarray:
    """0 and the running sum of the diagonal lengths: where each one starts."""
    return np.concatenate(([0], np.cumsum(n - np.abs(np.asarray(offsets, dtype=np.int64)))))


def _offset_array(offsets) -> np.ndarray:
    """offsets as a fresh int64 array; DomainError naming any that is not an integer."""
    offs = np.asarray(offsets)
    if offs.dtype.kind not in "iu" and offs.size:
        bad = [d for d in offsets if isinstance(d, bool) or not isinstance(d, (int, np.integer))]
        raise DomainError(f"diagonal offset {(bad or list(offsets))[0]} is not an integer")
    return offs.astype(np.int64)


@dataclass(frozen=True)
class Diagonal:
    """One stored diagonal: signed offset plus its dense value vector."""

    offset: int
    values: np.ndarray


class DiagMatrix:
    """Square matrix as sorted offsets plus one flat value buffer; never mutated."""

    __slots__ = ("dim", "offsets", "offset_array", "values", "starts")

    def __init__(self, dim: int, diagonals=()):
        """Convert and length-check each Diagonal, naming it, then pack them."""
        diagonals = tuple(diagonals)
        self.dim, self.offsets = dim, tuple(diag.offset for diag in diagonals)
        _offset_array(self.offsets)  # before the lengths use them
        parts = [np.asarray(diag.values, dtype=COMPLEX) for diag in diagonals]
        for diag, vec in zip(diagonals, parts):
            if vec.shape != (diag_length(dim, diag.offset),):
                raise ShapeError(f"diagonal {diag.offset} of dim-{dim} matrix needs "
                                 f"{dim - abs(diag.offset)} values, got shape {vec.shape}")
        self.values = np.concatenate([np.empty(0, COMPLEX), *parts])
        self.__post_init__()

    @classmethod
    def packed(cls, dim: int, offsets, values: np.ndarray) -> "DiagMatrix":
        """Build from sorted offsets and the flat buffer of their values (not copied)."""
        m = cls.__new__(cls)
        m.dim, m.offsets, m.values = dim, offsets, values
        m.__post_init__()
        return m

    def __post_init__(self):
        """Check the offsets and the buffer; perfbench traces this name as validate."""
        n = self.dim
        if not 1 <= n < 2**63:  # lengths are int64
            raise DomainError(f"dim must lie in [1, 2**63), got {n}")
        offs = _offset_array(self.offsets)
        if (offs[1:] <= offs[:-1]).any():
            raise DomainError("diagonal offsets must be strictly increasing")
        self.offsets, self.offset_array = tuple(offs.tolist()), offs
        for d in self.offsets[:1] + self.offsets[-1:]:  # the outermost two
            diag_length(n, d)
        self.starts = buffer_starts(n, offs)
        values, total = self.values, int(self.starts[-1])
        if not (type(values) is np.ndarray and values.dtype == COMPLEX
                and values.shape == (total,) and values.flags.c_contiguous):
            raise ShapeError(f"{len(offs)} diagonals of a dim-{n} matrix need a contiguous "
                             f"complex128 buffer of {total} values, got {values!r:.60}")
        finite = np.isfinite(values.view(np.float64))  # faster than on complex128
        if not finite.all():
            entry = np.argmin(finite) // 2  # two parts per entry
            i = np.searchsorted(self.starts, entry, side="right") - 1
            raise DomainError(f"diagonal {self.offsets[i]} contains non-finite values")

    # -- queries -------------------------------------------------------------

    @property
    def diagonals(self) -> tuple[Diagonal, ...]:
        """The stored diagonals as views into the buffer."""
        return tuple(Diagonal(d, vec) for d, vec in self.offset_views())

    def offset_views(self) -> list[tuple[int, np.ndarray]]:
        """(offset, view of its values) of each stored diagonal, in offset order."""
        bounds = self.starts.tolist()
        return [(d, self.values[lo:hi]) for d, lo, hi in zip(self.offsets, bounds, bounds[1:])]

    @property
    def nnzd(self) -> int:
        """Number of stored (nonzero) diagonals."""
        return len(self.offsets)

    @property
    def storage_scalars(self) -> int:
        """Total stored scalar count: sum of N - |d| over stored diagonals."""
        return len(self.values)

    @property
    def nnze(self) -> int:
        """Count of entries that are actually nonzero."""
        return int(np.count_nonzero(self.values))

    def scaled(self, factor: complex) -> "DiagMatrix":
        return DiagMatrix.packed(self.dim, self.offset_array, self.values * factor)

    def add(self, other: "DiagMatrix") -> "DiagMatrix":
        """Diagonal-wise sum on the sorted union of the offsets; exact-zero
        result diagonals are dropped."""
        if self.dim != other.dim:
            raise ShapeError(f"dim mismatch: {self.dim} vs {other.dim}")
        both = np.sort(np.concatenate((self.offset_array, other.offset_array)))
        offsets = both[np.diff(both, prepend=-self.dim) > 0]
        starts = buffer_starts(self.dim, offsets)
        # -0.0 in both parts of every entry, as -0.0 + x is x bit for bit
        values = np.full(2 * starts[-1], -0.0).view(COMPLEX)
        for m in (self, other):
            # each maximal run of m's diagonals that stays contiguous in the union
            shift = starts[np.searchsorted(offsets, m.offset_array)] - m.starts[:-1]
            first = np.flatnonzero(np.diff(shift, prepend=-1))
            lo, hi = m.starts[first], m.starts[np.append(first[1:], m.nnzd)]
            for i, j, to in zip(lo.tolist(), hi.tolist(), (lo + shift[first]).tolist()):
                seg = values[to:to + j - i]
                np.add(seg, m.values[i:j], out=seg)
        return drop_zero_diagonals(DiagMatrix.packed(self.dim, offsets, values))


def diagonal_view(grid: np.ndarray, d: int) -> np.ndarray:
    """Diagonal d of a grid, strided or not, as a view that is writable
    when grid is: entry r is grid[r + max(0, -d), r + max(0, d)]."""
    view = grid.diagonal(d)
    view.flags.writeable = grid.flags.writeable
    return view


def identity(n: int) -> DiagMatrix:
    return DiagMatrix.packed(n, (0,), np.ones(n, dtype=COMPLEX))


def from_coo(n: int, rows, cols, values) -> DiagMatrix:
    """Matrix of dim n from entries at distinct positions (rows[k], cols[k]).

    Each value is stored, not added, in its slot on diagonal col - row, so its
    signed zeros survive; other slots hold +0.0; all-zero diagonals are dropped.
    """
    rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
    offsets, slot = np.unique(cols - rows, return_inverse=True)
    starts = buffer_starts(n, offsets)
    buf = np.zeros(starts[-1], dtype=COMPLEX)
    buf[starts[slot] + np.minimum(rows, cols)] = values
    return drop_zero_diagonals(DiagMatrix.packed(n, offsets, buf))


def from_dense(rows) -> DiagMatrix:
    """Compress a dense square grid; only diagonals with a nonzero survive."""
    grid = np.asarray(rows, dtype=COMPLEX)
    if grid.ndim != 2 or grid.shape[0] != grid.shape[1]:
        raise ShapeError(f"square input required, got shape {grid.shape}")
    n = grid.shape[0]
    offsets = [d for d in range(1 - n, n) if diagonal_view(grid, d).any()]
    return DiagMatrix.packed(n, offsets, np.concatenate(
        [np.empty(0, COMPLEX), *(diagonal_view(grid, d) for d in offsets)]))


def to_dense(m: DiagMatrix) -> np.ndarray:
    """Expand to a dense grid; exact inverse of from_dense."""
    grid = np.zeros((m.dim, m.dim), dtype=COMPLEX)
    for d, vec in m.offset_views():
        diagonal_view(grid, d)[:] = vec
    return grid


def drop_zero_diagonals(m: DiagMatrix) -> DiagMatrix:
    """Remove the diagonals whose entries are all zero."""
    if not m.nnzd:
        return m
    return drop_below(m, np.abs(m.values), 0.0)[0]


def drop_below(m: DiagMatrix, mag: np.ndarray,
               eps: float) -> tuple[DiagMatrix, np.ndarray, np.ndarray]:
    """m without the diagonals whose largest entry of mag, the magnitudes of
    m's values, is <= eps; mag cut to the diagonals kept; and the kept
    diagonals' largest entries, by offset.  m has a diagonal."""
    peak = np.maximum.reduceat(mag, m.starts[:-1])
    live = peak > eps
    if live.all():
        return m, mag, peak
    keep = np.repeat(live, np.diff(m.starts))
    return DiagMatrix.packed(m.dim, m.offset_array[live], m.values[keep]), mag[keep], peak[live]


def one_norm(m: DiagMatrix) -> float:
    """Max absolute column sum, accumulated diagonal by diagonal in offset order."""
    sums = np.zeros(m.dim)
    for d, vec in m.offset_views():
        sums[max(0, d):m.dim + min(0, d)] += np.abs(vec)  # the columns diagonal d crosses
    return float(sums.max())
