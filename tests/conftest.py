import json
from dataclasses import dataclass

import numpy as np
import pytest

from diagsim import DiagMatrix, Diagonal
from diagsim.blocking import segment_bounds


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
    """Row range over which diagonals at offsets da (in A) and db (in B) interact:
    the per-pair oracle of spmspm.multiply_count and the pair loop below."""
    r_lo = max(0, -da, -(da + db))
    r_hi = n - 1 - max(0, da, da + db)
    return OverlapRange(r_lo, r_hi)


def diag_matrix(n, diags: dict[int, np.ndarray]) -> DiagMatrix:
    """DiagMatrix of dim n from an offset -> values mapping, in any key order."""
    return DiagMatrix(n, tuple(Diagonal(d, diags[d]) for d in sorted(diags)))


def float64_copy(m: DiagMatrix) -> DiagMatrix:
    """m's real parts in a float64 buffer: the matrix whose complex128 twin,
    each x as x + 0j, is m when m is real."""
    return DiagMatrix.packed(m.dim, m.offsets, m.values.real.copy())


def same_bits(got: DiagMatrix, want: DiagMatrix) -> bool:
    """Same dim, offsets and value bits (so -0.0 differs from 0.0)."""
    return (got.dim, got.offsets) == (want.dim, want.offsets) and \
        got.values.tobytes() == want.values.tobytes()


def rand_matrix(rng, n, offsets=None, k=None, real=False):
    """Random diagonal matrix; offsets drawn without replacement if absent."""
    if offsets is None:
        k = k or int(rng.integers(1, min(2 * n - 1, 9) + 1))
        k = min(k, 2 * n - 1)
        offsets = sorted(rng.choice(np.arange(-(n - 1), n), size=k, replace=False).tolist())
    diags = {}
    for d in offsets:
        vec = rng.standard_normal(n - abs(d))
        if not real:
            vec = vec + 1j * rng.standard_normal(n - abs(d))
        diags[int(d)] = vec
    return diag_matrix(n, diags)


def rand_hermitian(rng, n, k=None):
    m = rand_matrix(rng, n, k=k)
    upper = {d.offset: d.values for d in m.diagonals if d.offset > 0}
    diags = {0: rng.standard_normal(n) + 0j}
    for d, vec in upper.items():
        diags[d] = vec
        diags[-d] = np.conj(vec)
    return diag_matrix(n, diags)


def whole_segments(m):
    """Bounds array of every stored diagonal, whole: a one-job grid's operand."""
    return segment_bounds(m.dim, m.offset_array, 0, m.dim)


def pair_products(a, b):
    """Yield (da, db, rng, elementwise product over rng) for every contributing pair.

    The pair-loop oracle of the diagonal-space product: one step per (da, db)
    pair, in ascending da then ascending db.
    """
    n = a.dim
    for diag_a in a.diagonals:
        da = diag_a.offset
        a0 = max(0, -da)
        for diag_b in b.diagonals:
            db = diag_b.offset
            rng = overlap_range(da, db, n)
            if not rng:
                continue
            b0 = max(0, -db)
            a_slice = diag_a.values[rng.r_lo - a0: rng.r_hi + 1 - a0]
            b_slice = diag_b.values[rng.r_lo + da - b0: rng.r_hi + 1 + da - b0]
            yield da, db, rng, a_slice * b_slice


def pair_loop_matmul(a, b) -> dict[int, np.ndarray]:
    """Offset -> values of A @ B summed pair by pair; all-zero diagonals dropped."""
    n = a.dim
    out: dict[int, np.ndarray] = {}
    for da, db, rng, prod in pair_products(a, b):
        dc = da + db
        vec = out.setdefault(dc, np.zeros(n - abs(dc), dtype=complex))
        c0 = max(0, -dc)
        vec[rng.r_lo - c0: rng.r_hi + 1 - c0] += prod
    return {d: v for d, v in sorted(out.items()) if np.any(v != 0)}


# DiagMatrix.scaled, .add and drop_zero_diagonals as they were written diagonal
# by diagonal, before the matrix became one flat buffer: the packed versions' oracles


def scaled_oracle(m, factor):
    return DiagMatrix(m.dim, tuple(Diagonal(d.offset, d.values * factor) for d in m.diagonals))


def drop_zero_oracle(m, eps=0.0):
    return DiagMatrix(m.dim, tuple(d for d in m.diagonals if np.abs(d.values).max() > eps))


def add_oracle(a, b):
    acc = {d.offset: d.values.copy() for d in a.diagonals}
    for d in b.diagonals:
        acc[d.offset] = acc[d.offset] + d.values if d.offset in acc else d.values.copy()
    return drop_zero_oracle(diag_matrix(a.dim, acc))


def diaq_json_oracle(m) -> bytes:
    """DiaQ JSON bytes built entry by entry through json.dumps: the writer's oracle."""
    doc = {
        "n": m.dim,
        "diags": [
            {"offset": d.offset,
             "values": [[float(v.real), float(v.imag)] for v in d.values]}
            for d in m.diagonals
        ],
    }
    return json.dumps(doc, separators=(",", ":")).encode() + b"\n"


@pytest.fixture
def corner_matrix():
    """4x4 matrix with a full main diagonal and the two corner diagonals."""
    a, b, c, d, e, f = (1 + 0j, 2 + 0j, 3 + 0j, 4 + 0j, 5 + 0j, 6 + 0j)
    dense = np.zeros((4, 4), dtype=complex)
    dense[0, 0], dense[1, 1], dense[2, 2], dense[3, 3] = a, c, d, f
    dense[0, 3] = b
    dense[3, 0] = e
    return dense
