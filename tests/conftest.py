import io
import json
import operator
import struct
from dataclasses import dataclass

import numpy as np
import pytest
import scipy.io
import scipy.linalg
import scipy.sparse
from hypothesis import settings, strategies as st

from diagsim import COMPLEX, DiagMatrix, Diagonal, diag_matmul, diagio, hamsim, to_dense
from diagsim.blocking import segment_bounds
from diagsim.diagmat import buffer_starts, diag_length, from_coo
from diagsim.errors import ShapeError
from diagsim.hamsim import DEFAULT_EPS

# no per-example deadline (timings vary with the host), and a failure prints
# the blob that replays it with @reproduce_failure
settings.register_profile("diagsim", deadline=None, print_blob=True)
settings.load_profile("diagsim")


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


def same_bits(got: DiagMatrix, want: DiagMatrix) -> bool:
    """Same dim, offsets and value bits (so -0.0 differs from 0.0)."""
    return (got.dim, got.offsets) == (want.dim, want.offsets) and \
        got.values.tobytes() == want.values.tobytes()


# (model, qubits) of the segmented-series tests
SEGMENT_CASES = [("heisenberg", 4), ("heisenberg", 6), ("tfim", 5), ("tfim", 6)]


def check_segmented_u(u: DiagMatrix, step: DiagMatrix, h: DiagMatrix, t: float,
                      segments: int) -> None:
    """u is step times itself segments - 1 times, left to right, by diag_matmul,
    bit for bit, and lies within segments times one chain's bound of exp(-i t H):
    2 eps + 1e-12 per chain, as the benchmark's expm_bound allows, and the
    errors of a product of near-unitary factors add."""
    power = step
    for _ in range(segments - 1):
        power = diag_matmul(power, step)
    assert same_bits(u, power)
    err = np.linalg.norm(to_dense(u) - scipy.linalg.expm(-1j * t * to_dense(h)), 2)
    assert err <= segments * (2 * DEFAULT_EPS + 1e-12)


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


def read_diaq_json_oracle(path: str) -> DiagMatrix:
    """DiaQ JSON read by json alone, every number a Python object: the reader's
    oracle.  Like the reader, it takes true and false for no numbers."""
    def pairs_array(obj: dict) -> dict:
        if "values" in obj:
            if any(type(x) is bool for x in np.array(obj["values"], dtype=object).flat):
                raise ShapeError('"values" holds true or false, not numbers')
            obj["values"] = np.array(obj["values"])
        return obj

    def integer(value) -> int:
        if type(value) is bool:
            raise ShapeError(f"{str(value).lower()} is not an integer")
        return operator.index(value)

    with open(path) as fh, diagio.reading(path):
        doc = json.load(fh, object_hook=pairs_array)
        n = integer(doc["n"])
        diags = sorted(((integer(d["offset"]), d["values"]) for d in doc["diags"]),
                       key=lambda diag: diag[0])
        for d, pairs in diags:
            if pairs.dtype.kind not in "iuf" or pairs.shape != (diag_length(n, d), 2):
                raise ShapeError(f"diagonal {d} of dim-{n} matrix needs {diag_length(n, d)} "
                                 f"[re, im] number pairs, got shape {pairs.shape}")
        values = np.concatenate([np.empty((0, 2))] + [pairs for _, pairs in diags],
                                dtype=np.float64)
        return DiagMatrix.packed(n, [d for d, _ in diags], values.view(COMPLEX).ravel())


def read_diaq_oracle(path: str) -> DiagMatrix:
    """DiaQ binary read whole into one bytes object, then walked diagonal by
    diagonal: the binary reader's oracle, error messages included."""
    with open(path, "rb") as fh:
        blob = fh.read()
    with diagio.reading(path):
        if blob[:5] != b"DIAQ1":
            raise ShapeError("bad magic, not a DiaQ binary file")
        if len(blob) < 21:
            raise ShapeError(f"{len(blob)} bytes, shorter than the 21-byte header")
        n, count = struct.unpack_from("<QQ", blob, 5)
        pos, offsets, parts = 21, [], []
        for i in range(count):
            if pos + 8 > len(blob):
                raise ShapeError(f"file ends before diagonal {i} of {count}")
            (offset,) = struct.unpack_from("<q", blob, pos)
            length = diag_length(n, offset)
            pos += 8
            if pos + 16 * length > len(blob):
                raise ShapeError(f"diagonal {offset} runs past the end of the file")
            offsets.append(offset)
            parts.append(np.frombuffer(blob, "<c16", count=length, offset=pos))
            pos += 16 * length
        if pos != len(blob):
            raise ShapeError(f"{len(blob) - pos} trailing bytes")
        return DiagMatrix.packed(n, offsets, np.concatenate([np.empty(0, COMPLEX), *parts]))


# The grid conversions as they were written before they walked the diagonals,
# through the matrix position of every buffer entry: their bit-for-bit oracles


def entry_coordinates(offsets: np.ndarray, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) of every entry of the buffer laid out by offsets and starts."""
    def index(block_starts):  # block_starts[i] plus the position within diagonal i
        return np.arange(starts[-1]) + np.repeat(block_starts - starts[:-1], np.diff(starts))

    return index(np.maximum(0, -offsets)), index(np.maximum(0, offsets))


def coordinates(m) -> tuple[np.ndarray, np.ndarray]:
    return entry_coordinates(m.offset_array, m.starts)


def to_dense_oracle(m) -> np.ndarray:
    grid = np.zeros((m.dim, m.dim), dtype=COMPLEX)
    grid[coordinates(m)] = m.values
    return grid


def from_dense_oracle(grid: np.ndarray) -> DiagMatrix:
    grid = np.asarray(grid, dtype=COMPLEX)
    n, (rows, cols) = grid.shape[0], np.nonzero(grid)
    offsets = np.unique(cols - rows)
    return DiagMatrix.packed(n, offsets, grid[entry_coordinates(offsets, buffer_starts(n, offsets))])


def one_norm_oracle(m) -> float:
    return float(np.bincount(coordinates(m)[1], weights=np.abs(m.values), minlength=m.dim).max())


def csr_t_oracle(m, t: float):
    """(t Re m)^T in CSR with every stored entry kept, each row's column indices
    ascending."""
    rows, cols = coordinates(m)
    m_t = scipy.sparse.csr_array((m.values.real * t, (cols, rows)), shape=(m.dim, m.dim))
    m_t.sort_indices()
    return m_t


def matrix_market_oracle(m) -> bytes:
    rows, cols = coordinates(m)
    nonzero = m.values != 0
    coo = scipy.sparse.coo_matrix((m.values[nonzero].astype(COMPLEX, copy=False),
                                   (rows[nonzero], cols[nonzero])), shape=(m.dim, m.dim))
    text = io.BytesIO()
    scipy.io.mmwrite(text, coo)
    return text.getvalue()


# float64 parts a conversion must carry bit for bit: signed zeros, subnormals
# and values at both ends of the range
EDGE_PARTS = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-300, -1e300, 1.0, -2.5])


@st.composite
def edge_matrices(draw) -> DiagMatrix:
    """A matrix of dim 1..12, with no diagonals up to all 2n - 1, whose real
    and imaginary parts mix EDGE_PARTS with random normals."""
    n = draw(st.integers(1, 12))
    offsets = sorted(draw(st.lists(st.integers(1 - n, n - 1), unique=True, max_size=2 * n - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count = 2 * int(buffer_starts(n, offsets)[-1])
    parts = np.where(rng.random(count) < 0.5, rng.choice(EDGE_PARTS, count),
                     rng.standard_normal(count))
    return DiagMatrix.packed(n, offsets, parts.view(COMPLEX))


@pytest.fixture
def corner_matrix():
    """4x4 matrix with a full main diagonal and the two corner diagonals."""
    a, b, c, d, e, f = (1 + 0j, 2 + 0j, 3 + 0j, 4 + 0j, 5 + 0j, 6 + 0j)
    dense = np.zeros((4, 4), dtype=complex)
    dense[0, 0], dense[1, 1], dense[2, 2], dense[3, 3] = a, c, d, f
    dense[0, 3] = b
    dense[3, 0] = e
    return dense


def split_h(monkeypatch, dense: np.ndarray, layout: str) -> tuple[DiagMatrix, int]:
    """H from a real dense grid ("whole"), or from the direct sum of the grid
    with a copy of itself ("split"), the grid's states at the even states and
    the copy's, reversed, at the odd ones, each copy one block of the dense
    chain; and the number of blocks.  Diagonal d of the grid and -d of the
    copy lie on diagonal 2d, so a symmetric grid's diagonals fall below the
    floor together."""
    if layout == "split":
        n = len(dense)
        pair = np.zeros((2 * n, 2 * n))
        pair[:n, :n] = pair[n:, n:] = dense
        order = np.empty(2 * n, np.int64)
        order[0::2], order[1::2] = np.arange(n), np.arange(2 * n - 1, n - 1, -1)
        dense = pair[np.ix_(order, order)]
        monkeypatch.setattr(hamsim, "MIN_BLOCK", 1)
    rows, cols = np.nonzero(dense)
    return from_coo(len(dense), rows, cols, dense[rows, cols]), 1 + (layout == "split")
