"""File formats: DiaQ binary, DiaQ JSON, and Matrix Market interop.

DiaQ binary layout (little-endian throughout):

    magic "DIAQ1" (5 bytes)
    u64 N, u64 diagonal count
    per diagonal, ascending offset: i64 offset, then (N - |offset|) f64 pairs (re, im)

DiaQ JSON layout (one line without spaces, then a newline):

    {"n":N,"diags":[{"offset":d,"values":[[re,im],...]},...]}

with the diagonals in ascending offset and every float written as Python's
``repr`` writes it, as ``json.dumps`` does; ``repr`` reads back to the same
double, so both formats round-trip bit-exactly, signed zeros included.  The
writer formats each distinct (re, im) pair of a diagonal once, since
Hamiltonian diagonals hold few distinct values.

Matrix Market coordinate files never densify: duplicate entries are summed,
each entry goes to the diagonal at offset col - row, and a diagonal whose
summed values are all zero is dropped, as ``from_dense`` drops it.  Memory is
O(nnz + stored diagonal entries).  Only ``array`` (dense) files go through
``from_dense``.

Every reader reports a malformed file (short header, a diagonal running past
the end, a missing key, a value that is not a numeric [re, im] pair, a
non-square matrix) as ShapeError, and contents out of range (offsets, dim,
non-finite values) as DomainError, both naming the file.
"""

from __future__ import annotations

import json
import operator
import os
import struct
import tempfile
from contextlib import contextmanager

import numpy as np
import scipy.io
import scipy.sparse

from .diagmat import COMPLEX, DiagMatrix, Diagonal, diag_length, from_dense
from .errors import DomainError, ShapeError

MAGIC = b"DIAQ1"
HEADER = len(MAGIC) + 16


@contextmanager
def _reading(path: str):
    """Re-raise what a malformed file makes a reader raise as one error naming it."""
    try:
        yield
    except DomainError as exc:
        raise DomainError(f"{path}: {exc}") from exc
    except KeyError as exc:
        raise ShapeError(f"{path}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:  # ShapeError, json and mmread errors
        raise ShapeError(f"{path}: {exc}") from exc


def write_diaq(m: DiagMatrix, path: str) -> None:
    chunks = [MAGIC, struct.pack("<QQ", m.dim, m.nnzd)]
    for diag in m.diagonals:
        chunks += [struct.pack("<q", diag.offset), diag.values.astype("<c16").tobytes()]
    _atomic_write(path, b"".join(chunks))


def read_diaq(path: str) -> DiagMatrix:
    with open(path, "rb") as fh:
        blob = fh.read()
    with _reading(path):
        if blob[:len(MAGIC)] != MAGIC:
            raise ShapeError("bad magic, not a DiaQ binary file")
        if len(blob) < HEADER:
            raise ShapeError(f"{len(blob)} bytes, shorter than the {HEADER}-byte header")
        n, count = struct.unpack_from("<QQ", blob, len(MAGIC))
        pos = HEADER
        diags = []
        for i in range(count):
            if pos + 8 > len(blob):
                raise ShapeError(f"file ends before diagonal {i} of {count}")
            (offset,) = struct.unpack_from("<q", blob, pos)
            length = diag_length(n, offset)
            pos += 8
            if pos + 16 * length > len(blob):
                raise ShapeError(f"diagonal {offset} runs past the end of the file")
            values = np.frombuffer(blob, "<c16", count=length, offset=pos).astype(COMPLEX)
            diags.append(Diagonal(offset, values))
            pos += 16 * length
        if pos != len(blob):
            raise ShapeError(f"{len(blob) - pos} trailing bytes")
        return DiagMatrix(n, tuple(diags))


def write_diaq_json(m: DiagMatrix, path: str) -> None:
    diags = ",".join(f'{{"offset":{d.offset},"values":[{_json_pairs(d.values)}]}}'
                     for d in m.diagonals)
    _atomic_write(path, f'{{"n":{m.dim},"diags":[{diags}]}}\n'.encode())


def _json_pairs(values: np.ndarray) -> str:
    """values as json.dumps writes [[re, im], ...], without the outer brackets.

    Pairs are compared as raw bytes, so -0.0 and 0.0 stay distinct.
    """
    distinct, inverse = np.unique(values.view("V16"), return_inverse=True)
    text = np.array(["[%r,%r]" % (re, im)
                     for re, im in distinct.view(np.float64).reshape(-1, 2).tolist()],
                    dtype=object)
    return ",".join(text[inverse])


def read_diaq_json(path: str) -> DiagMatrix:
    with open(path) as fh, _reading(path):
        doc = json.load(fh)
        diags = sorted((Diagonal(operator.index(d["offset"]), _complex_pairs(d["values"]))
                        for d in doc["diags"]), key=lambda d: d.offset)
        return DiagMatrix(operator.index(doc["n"]), tuple(diags))


def _complex_pairs(values) -> np.ndarray:
    """complex128 vector of a list of [re, im] numbers, bit-exact."""
    pairs = np.array(values)
    if pairs.dtype.kind not in "biuf" or pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ShapeError("values must be a list of [re, im] number pairs")
    return pairs.astype(np.float64).view(COMPLEX).ravel()


def write_matrix_market(m: DiagMatrix, path: str) -> None:
    rows, cols, vals = [], [], []
    for diag in m.diagonals:
        r0 = diag.row_start()
        idx = np.arange(r0, r0 + len(diag.values))
        rows.append(idx)
        cols.append(idx + diag.offset)
        vals.append(diag.values)
    if rows:
        coo = scipy.sparse.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(m.dim, m.dim),
        )
    else:
        coo = scipy.sparse.coo_matrix((m.dim, m.dim), dtype=COMPLEX)
    with tempfile.NamedTemporaryFile(dir=os.path.dirname(path) or ".",
                                     suffix=".mtx", delete=False) as tmp:
        scipy.io.mmwrite(tmp, coo)
        tmp_path = tmp.name
    os.replace(tmp_path, path)


def read_matrix_market(path: str) -> DiagMatrix:
    with _reading(path):
        mat = scipy.io.mmread(path)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ShapeError(f"square matrix required, got {mat.shape}")
        if not scipy.sparse.issparse(mat):
            return from_dense(mat)
        return _coo_diagonals(scipy.sparse.coo_matrix(mat))


def _coo_diagonals(coo: scipy.sparse.coo_matrix) -> DiagMatrix:
    """Sum duplicates, then scatter each offset's entries into its diagonal."""
    n = coo.shape[0]
    coo.sum_duplicates()
    offsets = coo.col.astype(np.int64) - coo.row
    order = np.argsort(offsets, kind="stable")
    index = np.minimum(coo.row, coo.col)[order]
    values = coo.data.astype(COMPLEX)[order]
    distinct, starts = np.unique(offsets[order], return_index=True)
    ends = [*starts[1:].tolist(), len(order)]
    diags = []
    for d, lo, hi in zip(distinct.tolist(), starts.tolist(), ends):
        vec = np.zeros(n - abs(d), dtype=COMPLEX)
        vec[index[lo:hi]] = values[lo:hi]
        if vec.any():
            diags.append(Diagonal(d, vec))
    return DiagMatrix(n, tuple(diags))


_FORMATS = {
    "diaq": (read_diaq, write_diaq),
    "json": (read_diaq_json, write_diaq_json),
    "mtx": (read_matrix_market, write_matrix_market),
}


def sniff_format(path: str) -> str:
    if path.endswith(".json"):
        return "json"
    if path.endswith((".mtx", ".mm")):
        return "mtx"
    return "diaq"


def load_matrix(path: str, fmt: str | None = None) -> DiagMatrix:
    reader, _ = _FORMATS[fmt or sniff_format(path)]
    return reader(path)


def save_matrix(m: DiagMatrix, path: str, fmt: str | None = None) -> None:
    _, writer = _FORMATS[fmt or sniff_format(path)]
    writer(m, path)


def _atomic_write(path: str, data: bytes) -> None:
    """Write-to-temp then rename; partial files are never left behind."""
    fd, tmp_path = tempfile.mkstemp(dir=os.path.dirname(path) or ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise
