"""Diagonal-sparse matrix container and core operations.

A square matrix is stored as its nonzero diagonals only.  Each diagonal is
identified by its offset d = col - row and keeps a dense value vector of
natural length N - |d|; no padding is ever stored.  Entry values[r] of the
diagonal at offset d sits at matrix position (row, col) with

    row = r + max(0, -d),   col = row + d.

All other modules inherit this indexing convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


def _as_values(values, n: int, d: int) -> np.ndarray:
    vec = np.asarray(values, dtype=COMPLEX)
    if vec.ndim != 1 or vec.shape[0] != diag_length(n, d):
        raise ShapeError(
            f"diagonal {d} of dim-{n} matrix needs {diag_length(n, d)} values, "
            f"got shape {vec.shape}"
        )
    if not np.all(np.isfinite(vec)):
        raise DomainError(f"diagonal {d} contains non-finite values")
    return vec


def _flat(diags) -> np.ndarray:
    """Every stored value of diags, concatenated in order."""
    return np.concatenate([d.values for d in diags])


@dataclass(frozen=True)
class Diagonal:
    """One stored diagonal: signed offset plus its dense value vector."""

    offset: int
    values: np.ndarray

    def row_start(self) -> int:
        """Matrix row of values[0]."""
        return max(0, -self.offset)


@dataclass(frozen=True)
class DiagMatrix:
    """Immutable square matrix held as sorted nonzero diagonals."""

    dim: int
    diagonals: tuple[Diagonal, ...] = field(default_factory=tuple)

    def __post_init__(self):
        n = self.dim
        if n < 1:
            raise DomainError(f"dim must be positive, got {n}")
        checked = list(self.diagonals)
        prev = None
        for i, diag in enumerate(checked):
            d, vec = diag.offset, diag.values
            if prev is not None and d <= prev:
                raise DomainError("diagonal offsets must be strictly increasing")
            prev = d
            if not (type(d) is int and type(vec) is np.ndarray and vec.dtype == COMPLEX
                    and vec.ndim == 1 and -n < d < n and vec.shape[0] == n - abs(d)):
                checked[i] = Diagonal(int(d), _as_values(vec, n, d))
        if checked and not np.isfinite(_flat(checked)).all():
            for diag in checked:
                _as_values(diag.values, n, diag.offset)  # names the bad diagonal
        object.__setattr__(self, "diagonals", tuple(checked))

    @staticmethod
    def from_diagonals(dim: int, diags: dict[int, np.ndarray]) -> "DiagMatrix":
        """Build from an offset -> values mapping (sorted internally)."""
        return DiagMatrix(dim, tuple(Diagonal(d, diags[d]) for d in sorted(diags)))

    # -- queries -------------------------------------------------------------

    @property
    def offsets(self) -> tuple[int, ...]:
        return tuple(d.offset for d in self.diagonals)

    @property
    def nnzd(self) -> int:
        """Number of stored (nonzero) diagonals."""
        return len(self.diagonals)

    @property
    def storage_scalars(self) -> int:
        """Total stored scalar count: sum of N - |d| over stored diagonals."""
        return sum(len(d.values) for d in self.diagonals)

    @property
    def nnze(self) -> int:
        """Count of entries that are actually nonzero."""
        return int(sum(np.count_nonzero(d.values) for d in self.diagonals))

    def diagonal(self, offset: int) -> Diagonal | None:
        for d in self.diagonals:
            if d.offset == offset:
                return d
        return None

    def get(self, i: int, j: int) -> complex:
        """Entry (i, j) without densifying."""
        if not (0 <= i < self.dim and 0 <= j < self.dim):
            raise DomainError(f"index ({i}, {j}) out of range for dim {self.dim}")
        diag = self.diagonal(j - i)
        if diag is None:
            return 0j
        return complex(diag.values[i - diag.row_start()])

    def astype(self, dtype) -> "DiagMatrix":
        """Value-precision cast (used by the float32 datapath mode)."""
        return DiagMatrix(
            self.dim,
            tuple(
                Diagonal(d.offset, d.values.astype(dtype).astype(COMPLEX))
                for d in self.diagonals
            ),
        )

    def conj_transpose(self) -> "DiagMatrix":
        """Conjugate transpose, diagonal-wise: offset d maps to -d, reversed."""
        return DiagMatrix.from_diagonals(
            self.dim,
            {-d.offset: np.conj(d.values) for d in self.diagonals},
        )

    def scaled(self, factor: complex) -> "DiagMatrix":
        return DiagMatrix(
            self.dim,
            tuple(Diagonal(d.offset, d.values * factor) for d in self.diagonals),
        )

    def add(self, other: "DiagMatrix") -> "DiagMatrix":
        """Diagonal-wise sum; exact-zero result diagonals are dropped."""
        if self.dim != other.dim:
            raise ShapeError(f"dim mismatch: {self.dim} vs {other.dim}")
        acc: dict[int, np.ndarray] = {d.offset: d.values.copy() for d in self.diagonals}
        for d in other.diagonals:
            if d.offset in acc:
                acc[d.offset] = acc[d.offset] + d.values
            else:
                acc[d.offset] = d.values.copy()
        out = DiagMatrix.from_diagonals(self.dim, acc)
        return drop_zero_diagonals(out, 0.0)


def identity(n: int) -> DiagMatrix:
    return DiagMatrix(n, (Diagonal(0, np.ones(n, dtype=COMPLEX)),))


def zero(n: int) -> DiagMatrix:
    return DiagMatrix(n, ())


def from_dense(rows) -> DiagMatrix:
    """Compress a dense square grid; only diagonals with a nonzero survive."""
    grid = np.asarray(rows, dtype=COMPLEX)
    if grid.ndim != 2 or grid.shape[0] != grid.shape[1]:
        raise ShapeError(f"square input required, got shape {grid.shape}")
    n = grid.shape[0]
    diags: dict[int, np.ndarray] = {}
    for d in range(-(n - 1), n):
        vec = np.diagonal(grid, offset=d)
        if np.any(vec != 0):
            diags[d] = np.array(vec, dtype=COMPLEX)
    return DiagMatrix.from_diagonals(n, diags)


def to_dense(m: DiagMatrix) -> np.ndarray:
    """Expand to a dense grid; exact inverse of from_dense."""
    grid = np.zeros((m.dim, m.dim), dtype=COMPLEX)
    for diag in m.diagonals:
        r0 = diag.row_start()
        rows = np.arange(r0, r0 + len(diag.values))
        grid[rows, rows + diag.offset] = diag.values
    return grid


def drop_zero_diagonals(m: DiagMatrix, eps: float = 0.0) -> DiagMatrix:
    """Remove diagonals whose largest magnitude entry is <= eps."""
    if eps < 0:
        raise DomainError("eps must be nonnegative")
    if not m.diagonals:
        return m
    starts = np.cumsum([0] + [len(d.values) for d in m.diagonals[:-1]])
    peaks = np.maximum.reduceat(np.abs(_flat(m.diagonals)), starts)
    kept = tuple(d for d, live in zip(m.diagonals, (peaks > eps).tolist()) if live)
    return m if len(kept) == m.nnzd else DiagMatrix(m.dim, kept)


def one_norm(m: DiagMatrix) -> float:
    """Max absolute column sum, accumulated diagonal-wise."""
    col_sums = np.zeros(m.dim, dtype=np.float64)
    for diag in m.diagonals:
        r0 = diag.row_start()
        cols = np.arange(r0, r0 + len(diag.values)) + diag.offset
        col_sums[cols] += np.abs(diag.values)
    return float(col_sums.max()) if m.dim else 0.0


def rel_frobenius_error(got: DiagMatrix, ref: DiagMatrix) -> float:
    """||got - ref||_F / ||ref||_F, accumulated diagonal-wise (never densifies)."""
    if got.dim != ref.dim:
        raise ShapeError(f"dim mismatch: {got.dim} vs {ref.dim}")
    unmatched = {d.offset: d.values for d in got.diagonals}
    diff_sq = ref_sq = 0.0
    for diag in ref.diagonals:
        delta = unmatched.pop(diag.offset, 0.0) - diag.values
        diff_sq += float(np.vdot(delta, delta).real)
        ref_sq += float(np.vdot(diag.values, diag.values).real)
    diff_sq += sum(float(np.vdot(v, v).real) for v in unmatched.values())
    return diff_sq ** 0.5 / max(ref_sq ** 0.5, 1e-300)
