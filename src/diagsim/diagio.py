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

Every format holds complex128 values; a float64-buffered matrix is written
as its complex128 twin, each x as x + 0j, byte for byte.

Matrix Market coordinate files never densify: duplicate entries are summed,
then ``diagmat.from_coo`` puts each on the diagonal at offset col - row and
drops a diagonal whose sums are all zero, as ``from_dense`` drops it.  Memory
is O(nnz + stored diagonal entries).  Only ``array`` (dense) files go through
``from_dense``.  The writer walks the diagonals, writing their nonzero entries
only, so a stored zero (or -0.0) on a kept diagonal reads back as +0.0.

Every reader reports a malformed file (short header, a diagonal running past
the end, a missing key, a value that is not a numeric [re, im] pair, a
non-square matrix) as ShapeError, and contents out of range (offsets, dim,
non-finite values) as DomainError, both naming the file.
"""

from __future__ import annotations

import io
import json
import operator
import os
import struct
import tempfile
from contextlib import contextmanager

import numpy as np
import scipy.io
import scipy.sparse

from .diagmat import COMPLEX, DiagMatrix, diag_length, from_coo, from_dense
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
    for d, vec in m.offset_views():
        chunks += [struct.pack("<q", d), vec.astype("<c16").tobytes()]
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
        offsets, parts = [], []
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


def write_diaq_json(m: DiagMatrix, path: str) -> None:
    diags = ",".join(f'{{"offset":{d},"values":[{_json_pairs(vec)}]}}'
                     for d, vec in m.offset_views())
    _atomic_write(path, f'{{"n":{m.dim},"diags":[{diags}]}}\n'.encode())


def _json_pairs(values: np.ndarray) -> str:
    """values as json.dumps writes [[re, im], ...], without the outer brackets.

    Pairs are compared as raw bytes, so -0.0 and 0.0 stay distinct.
    """
    distinct, inverse = np.unique(values.astype(COMPLEX, copy=False).view("V16"),
                                  return_inverse=True)
    text = np.array(["[%r,%r]" % (re, im)
                     for re, im in distinct.view(np.float64).reshape(-1, 2).tolist()],
                    dtype=object)
    return ",".join(text[inverse])


def read_diaq_json(path: str) -> DiagMatrix:
    """The parser hands each diagonal's object to _pairs_array as it closes,
    so one diagonal's pairs at a time are Python floats."""
    with open(path) as fh, _reading(path):
        doc = json.load(fh, object_hook=_pairs_array)
        n = operator.index(doc["n"])
        diags = sorted(((operator.index(d["offset"]), d["values"]) for d in doc["diags"]),
                       key=lambda diag: diag[0])
        for d, pairs in diags:
            if pairs.dtype.kind not in "biuf" or pairs.shape != (diag_length(n, d), 2):
                raise ShapeError(f"diagonal {d} of dim-{n} matrix needs {diag_length(n, d)} "
                                 f"[re, im] number pairs, got shape {pairs.shape}")
        values = np.concatenate([np.empty((0, 2))] + [pairs for _, pairs in diags],
                                dtype=np.float64)
        return DiagMatrix.packed(n, [d for d, _ in diags], values.view(COMPLEX).ravel())


def _pairs_array(obj: dict) -> dict:
    """A JSON object with its "values" member as an array, if it has one."""
    if "values" in obj:
        obj["values"] = np.array(obj["values"])
    return obj


def write_matrix_market(m: DiagMatrix, path: str) -> None:
    """Coordinate file of the nonzero entries, by diagonal then row (zeros are not written)."""
    parts = [(d, np.flatnonzero(vec), vec) for d, vec in m.offset_views()]
    rows = np.concatenate([np.empty(0, np.int64)] + [at + max(0, -d) for d, at, _ in parts])
    cols = np.concatenate([np.empty(0, np.int64)] + [at + max(0, d) for d, at, _ in parts])
    values = np.concatenate([np.empty(0, COMPLEX)] + [vec[at] for _, at, vec in parts])
    coo = scipy.sparse.coo_matrix((values, (rows, cols)), shape=(m.dim, m.dim))
    text = io.BytesIO()
    scipy.io.mmwrite(text, coo)
    _atomic_write(path, text.getvalue())


def read_matrix_market(path: str) -> DiagMatrix:
    with _reading(path):
        mat = scipy.io.mmread(path)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ShapeError(f"square matrix required, got {mat.shape}")
        if not scipy.sparse.issparse(mat):
            return from_dense(mat)
        coo = scipy.sparse.coo_matrix(mat)
        coo.sum_duplicates()
        return from_coo(coo.shape[0], coo.row, coo.col, coo.data)


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
    try:
        fd, tmp_path = tempfile.mkstemp(dir=os.path.dirname(path) or ".")
    except OSError as exc:  # name the file asked for, not the temporary one
        raise type(exc)(exc.errno, exc.strerror, path) from exc
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise
