"""Diagonal-sparse matrix container and core operations.

A square matrix is stored as its nonzero diagonals only.  Each diagonal is
identified by its offset d = col - row and has natural length N - |d|; no
padding is ever stored.  Entry values[r] of the diagonal at offset d sits at
matrix position (row, col) with

    row = r + max(0, -d),   col = row + d.

All other modules inherit this indexing convention.

Storage: ``offsets``, a strictly increasing tuple of ints (also kept as the
int64 array ``offset_array``), and ``values``, one flat float64 or complex128
buffer holding the diagonals back to back in that order: diagonal i is
``values[starts[i]:starts[i + 1]]``, ``starts`` being 0 and the running sum
of the lengths.  Whole-matrix operations are a fixed number of numpy calls
on the buffer, and their results take numpy's promoted dtype: a real matrix
stays real under real scaling, sums and products, and meets a complex one in
complex128.  A float64 entry x stands for the complex x + 0j.

The program reads the packed buffer only; the diaq writers walk it diagonal
by diagonal through ``offset_views()``, (offset, view) pairs.  One
per-diagonal record surface remains, because the benchmark (``perfbench/``)
builds and compares matrices through it: the ``Diagonal`` record, the list
constructor ``DiagMatrix(dim, diagonals)``, and ``diagonals``, the same views
as ``Diagonal``s, built on first use and cached, which the library never
writes through.

Every construction checks 1 <= dim < 2**63, integer offsets strictly increasing
inside (-N, N), a contiguous float64 or complex128 buffer of length
sum(N - |d|) and finite values, naming the failing diagonal.
``DiagMatrix(dim, diagonals)`` first converts each Diagonal's values to
complex128 and length-checks them, then packs them;
``DiagMatrix.packed(dim, offsets, values)`` takes a buffer as it is and
rejects anything else.  ``from_coo`` turns entries into diagonals for the
Pauli generator and the Matrix Market reader; ``from_dense`` gathers them
from a grid, keeping the grid's signed zeros.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError

COMPLEX = np.complex128
DTYPES = (np.dtype(np.float64), np.dtype(COMPLEX))  # the buffer dtypes


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

    __slots__ = ("dim", "offsets", "offset_array", "values", "starts", "_views")

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
        if not (type(values) is np.ndarray and values.dtype in DTYPES
                and values.shape == (total,) and values.flags.c_contiguous):
            raise ShapeError(f"{len(offs)} diagonals of a dim-{n} matrix need a contiguous "
                             f"float64 or complex128 buffer of {total} values, "
                             f"got {values!r:.60}")
        finite = np.isfinite(values.view(np.float64))  # faster than on complex128
        if not finite.all():
            entry = np.argmin(finite) // (values.itemsize // 8)  # float64s per entry
            i = np.searchsorted(self.starts, entry, side="right") - 1
            raise DomainError(f"diagonal {self.offsets[i]} contains non-finite values")
        self._views = None

    # -- queries -------------------------------------------------------------

    @property
    def diagonals(self) -> tuple[Diagonal, ...]:
        """The stored diagonals as views into the buffer (built once, cached)."""
        if self._views is None:
            self._views = tuple(Diagonal(d, vec) for d, vec in self.offset_views())
        return self._views

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

    def coordinates(self) -> tuple[np.ndarray, np.ndarray]:
        """(rows, cols): the matrix position of every buffer entry."""
        return _coordinates(self.offset_array, self.starts)

    def scaled(self, factor: complex) -> "DiagMatrix":
        return DiagMatrix.packed(self.dim, self.offset_array, self.values * factor)

    def add(self, other: "DiagMatrix") -> "DiagMatrix":
        """Diagonal-wise sum; exact-zero result diagonals are dropped."""
        offsets, values = _combine(self, other)
        return drop_zero_diagonals(DiagMatrix.packed(self.dim, offsets, values))


def _combine(a: DiagMatrix, b: DiagMatrix) -> tuple[np.ndarray, np.ndarray]:
    """The sorted union of the offsets of a and b, and the buffer of a + b on it."""
    if a.dim != b.dim:
        raise ShapeError(f"dim mismatch: {a.dim} vs {b.dim}")
    both = np.sort(np.concatenate((a.offset_array, b.offset_array)))
    offsets = both[np.diff(both, prepend=-a.dim) > 0]
    starts = buffer_starts(a.dim, offsets)
    dtype = np.result_type(a.values, b.values)
    # -0.0 in every float64 of the buffer, as -0.0 + x is x bit for bit
    values = np.full(starts[-1] * (dtype.itemsize // 8), -0.0).view(dtype)
    for m in (a, b):
        # each maximal run of m's diagonals that stays contiguous in the union
        shift = starts[np.searchsorted(offsets, m.offset_array)] - m.starts[:-1]
        first = np.flatnonzero(np.diff(shift, prepend=-1))
        lo, hi = m.starts[first], m.starts[np.append(first[1:], m.nnzd)]
        for i, j, to in zip(lo.tolist(), hi.tolist(), (lo + shift[first]).tolist()):
            seg = values[to:to + j - i]
            np.add(seg, m.values[i:j], out=seg)
    return offsets, values


def _entry_index(starts: np.ndarray, block_starts: np.ndarray) -> np.ndarray:
    """block_starts[i] plus the position within diagonal i, for every entry of the
    buffer whose diagonals start at starts."""
    return np.arange(starts[-1]) + np.repeat(block_starts - starts[:-1], np.diff(starts))


def _coordinates(offsets: np.ndarray, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) of every entry of the buffer laid out by offsets and starts."""
    return (_entry_index(starts, np.maximum(0, -offsets)),
            _entry_index(starts, np.maximum(0, offsets)))


def identity(n: int, dtype=COMPLEX) -> DiagMatrix:
    return DiagMatrix.packed(n, (0,), np.ones(n, dtype=dtype))


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


def from_dense(rows, dtype=COMPLEX) -> DiagMatrix:
    """Compress a dense square grid into a buffer of dtype (float64 or
    complex128); only diagonals with a nonzero survive."""
    grid = np.asarray(rows, dtype=dtype)
    if grid.ndim != 2 or grid.shape[0] != grid.shape[1]:
        raise ShapeError(f"square input required, got shape {grid.shape}")
    n, (rows, cols) = grid.shape[0], np.nonzero(grid)
    offsets = np.unique(cols - rows)
    del rows, cols  # before the gather's own indices
    return DiagMatrix.packed(n, offsets, grid[_coordinates(offsets, buffer_starts(n, offsets))])


def to_dense(m: DiagMatrix) -> np.ndarray:
    """Expand to a dense grid; exact inverse of from_dense."""
    grid = np.zeros((m.dim, m.dim), dtype=COMPLEX)
    grid[m.coordinates()] = m.values
    return grid


def drop_zero_diagonals(m: DiagMatrix) -> DiagMatrix:
    """Remove the diagonals whose entries are all zero."""
    if not m.nnzd:
        return m
    return drop_below(m, np.abs(m.values), 0.0)[0]


def drop_below(m: DiagMatrix, mag: np.ndarray, eps: float) -> tuple[DiagMatrix, np.ndarray]:
    """m without the diagonals whose largest entry of mag, the magnitudes of
    m's values, is <= eps; and mag cut to the diagonals kept.  m has a diagonal."""
    live = np.maximum.reduceat(mag, m.starts[:-1]) > eps
    if live.all():
        return m, mag
    keep = np.repeat(live, np.diff(m.starts))
    return DiagMatrix.packed(m.dim, m.offset_array[live], m.values[keep]), mag[keep]


def one_norm(m: DiagMatrix) -> float:
    """Max absolute column sum, accumulated diagonal by diagonal in offset order."""
    return float(np.bincount(m.coordinates()[1], weights=np.abs(m.values), minlength=m.dim).max())
