"""File formats: DiaQ binary, DiaQ JSON, and Matrix Market interop.

DiaQ binary layout (little-endian throughout):

    magic "DIAQ1" (5 bytes)
    u64 N, u64 diagonal count
    per diagonal, ascending offset: i64 offset, then (N - |offset|) f64 pairs (re, im)

DiaQ JSON layout (one line without spaces, then a newline):

    {"n":N,"diags":[{"offset":d,"values":[[re,im],...]},...]}

with the diagonals in ascending offset and every float written as Python's
``repr`` writes it, as ``json.dumps`` does; ``repr`` reads back to the same
double, so both formats round-trip bit-exactly, signed zeros included.
A Hamiltonian's diagonals hold long runs of few distinct pairs: the writer
splits the diagonals starting in each JSON_BATCH-entry window into runs of
equal raw bits and formats each distinct pair once, and the reader parses
each distinct pair text of a compact ``"values"`` array once if its first KiB
is at most half distinct texts, each two ``_NUMBER`` tokens (those whose
``float()`` is json's value).  json reads the rest (mostly distinct pairs,
which it parses as fast, and any text with a backslash), so values and errors
are json's.

The binary reader reads each diagonal into its slice of the matrix's one
value buffer, sized from the file (a pipe is read whole first), so no header
makes it allocate more than the file holds.  Writers pass their pieces to
``os.writev`` uncopied, into a temporary file renamed over the target.

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
import re
import stat
import struct
import tempfile
from collections.abc import Iterable
from contextlib import contextmanager
from itertools import chain

import numpy as np
import scipy.sparse

from .diagmat import COMPLEX, DiagMatrix, diag_length, from_coo, from_dense
from .errors import DomainError, ShapeError

MAGIC = b"DIAQ1"
HEADER = len(MAGIC) + 16
JSON_BATCH = 2**14  # the JSON writer takes the diagonals starting in each such window
IOV_MAX = max(os.sysconf("SC_IOV_MAX"), 16)  # buffers per os.writev; -1 is no fixed limit


@contextmanager
def reading(path: str):
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
    data = memoryview(m.values).cast("B")
    bounds = (16 * m.starts).tolist()
    chunks = [MAGIC + struct.pack("<QQ", m.dim, m.nnzd)]
    for d, lo, hi in zip(m.offsets, bounds, bounds[1:]):
        chunks += [struct.pack("<q", d), data[lo:hi]]
    atomic_write(path, [chunks])


def read_diaq(path: str) -> DiagMatrix:
    with open(path, "rb") as fh, reading(path):
        if not stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh = io.BytesIO(fh.read())  # a pipe tells its size only once read
        size = fh.seek(0, io.SEEK_END)
        fh.seek(0)
        head = fh.read(HEADER)
        if head[:len(MAGIC)] != MAGIC:
            raise ShapeError("bad magic, not a DiaQ binary file")
        if len(head) < HEADER:
            raise ShapeError(f"{len(head)} bytes, shorter than the {HEADER}-byte header")
        n, count = struct.unpack_from("<QQ", head, len(MAGIC))
        values = np.empty(max(size - HEADER - 8 * count, 0) // 16, COMPLEX)  # a valid file's
        pos, filled, offsets = HEADER, 0, []
        for i in range(count):
            if pos + 8 > size:
                raise ShapeError(f"file ends before diagonal {i} of {count}")
            (offset,) = struct.unpack("<q", fh.read(8))
            length = diag_length(n, offset)
            pos += 8 + 16 * length
            fits = filled + length <= len(values)  # else more values than the header allows
            if pos > size or fits and fh.readinto(values[filled:filled + length]) < 16 * length:
                raise ShapeError(f"diagonal {offset} runs past the end of the file")
            if not fits:  # read on to the error a later check gives
                fh.seek(16 * length, io.SEEK_CUR)
            offsets.append(offset)
            filled += length
        if pos != size:
            raise ShapeError(f"{size - pos} trailing bytes")
        return DiagMatrix.packed(n, offsets, values)


def write_diaq_json(m: DiagMatrix, path: str) -> None:
    first = np.flatnonzero(np.diff(m.starts[:-1] // JSON_BATCH, prepend=-1)).tolist()
    batches = (_json_diagonals(m, i, j) for i, j in zip(first, first[1:] + [m.nnzd]))
    atomic_write(path, chain([[b'{"n":%d,"diags":[' % m.dim]], batches, [[b"]}\n"]]))


def _json_diagonals(m: DiagMatrix, i: int, j: int) -> list:
    """Diagonals i to j - 1 as json.dumps writes them: one text per distinct
    value, told by raw bits (so -0.0 and 0.0 stay distinct), once per run."""
    lo, hi = int(m.starts[i]), int(m.starts[j])
    pairs = m.values[lo:hi]
    real, imag = pairs.view(np.uint64).reshape(-1, 2).T
    breaks = np.empty(hi - lo, bool)
    breaks[0], breaks[1:] = True, (real[1:] != real[:-1]) | (imag[1:] != imag[:-1])
    breaks[m.starts[i:j] - lo] = True  # no run crosses a diagonal start
    at = np.flatnonzero(breaks)
    order = np.lexsort((imag[at], real[at]))  # real bits first
    real, imag = real[at[order]], imag[at[order]]
    new = np.r_[True, (real[1:] != real[:-1]) | (imag[1:] != imag[:-1])]
    ids = (np.cumsum(new) - 1)[np.argsort(order)]  # of each run's value, in place
    runs = np.array([b"[%r,%r]," % (z.real, z.imag) for z in pairs[at[order[new]]].tolist()],
                    object)[ids].tolist()  # each distinct value formatted once
    lengths = np.diff(at, append=hi - lo).tolist()
    cuts = np.searchsorted(at, m.starts[i:j + 1] - lo).tolist()
    chunks = []
    for k, d, r0, r1 in zip(range(i, j), m.offsets[i:j], cuts, cuts[1:]):
        text = memoryview(b"".join(map(operator.mul, runs[r0:r1], lengths[r0:r1])))[:-1]
        chunks += [b',{"offset":%d,"values":['[not k:] % d, text, b"]}"]  # no first comma
    return chunks


def read_diaq_json(path: str) -> DiagMatrix:
    with open(path) as fh, reading(path):
        doc = _parse(fh)
        n = _integer(doc["n"])
        diags = sorted(((_integer(d["offset"]), d["values"]) for d in doc["diags"]),
                       key=lambda diag: diag[0])
        for d, pairs in diags:
            if pairs.dtype.kind not in "iuf" or pairs.shape != (diag_length(n, d), 2):
                raise ShapeError(f"diagonal {d} of dim-{n} matrix needs {diag_length(n, d)} "
                                 f"[re, im] number pairs, got shape {pairs.shape}")
        offsets = [d for d, _ in diags]
        values = np.concatenate([np.empty((0, 2))] + [v for _, v in diags], dtype=np.float64)
        del doc, diags  # so the checks of DiagMatrix.packed peak over one copy of the values
        return DiagMatrix.packed(n, offsets, values.view(COMPLEX).ravel())


_NUMBER = r"(?:0|-?[1-9][0-9]{0,17}|-?(?:0|[1-9][0-9]*)(?=[.eE])(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?)"
_PAIR = re.compile(f"{_NUMBER},{_NUMBER}")  # not -0 (json's int 0), no int of 19 digits


def _parse(fh):
    """json.load(fh, object_hook=_pairs_array), certified arrays aside."""
    text, cut, skeleton, last = fh.read(), {}, [], 0
    keys = [at.end() for at in re.finditer('"values":', text)] if "\\" not in text else []
    for start, stop in zip(keys, keys[1:] + [len(text)]):  # no backslash: no string holds "\0"
        head = text[start + 2:start + 1026].split("]]")[0].split("],[")
        if (not text.startswith("[[", start) or 2 * len(set(head)) > len(head)
                or (end := text.find("]]", start, stop)) < 0):
            continue  # not compact, mostly distinct (json parses those as fast), or unclosed
        pairs = text[start + 2:end].split("],[")
        ids = dict.fromkeys(pairs)
        if not all(map(_PAIR.fullmatch, ids)):
            continue  # left to json, which judges what is not two numbers
        table = np.array([float(t) for pair in ids for t in pair.split(",")]).view(COMPLEX)
        ids = dict(zip(ids, range(len(ids))))
        skeleton += [text[last:start], json.dumps(f"\0{len(cut)}")]  # a placeholder for
        cut[f"\0{len(cut)}"] = table, np.fromiter(map(ids.__getitem__, pairs),  # table[ids]
                                                  np.min_scalar_type(len(ids)), len(pairs))
        last = end + 2
    skeleton.append(text[last:])
    del text  # then join the pieces: json parses the skeleton alone
    skeleton = "".join(skeleton)
    bools = "true" in skeleton or "false" in skeleton  # a certified array holds numbers only

    def hook(obj: dict) -> dict:
        if type(values := obj.get("values")) is str and values in cut:
            obj["values"] = np.take(*cut.pop(values)).view(np.float64).reshape(-1, 2)
            return obj
        return _pairs_array(obj, bools)

    try:
        return json.loads(skeleton, object_hook=hook)
    except json.JSONDecodeError:  # its position counts in the skeleton: take json's own
        fh.seek(0)
        return json.load(fh, object_hook=hook)


def _pairs_array(obj: dict, bools: bool) -> dict:
    """A JSON object with its "values" member as an array, if it has one."""
    if "values" in obj:  # numpy would take true and false for 1 and 0
        if bools and any(type(x) is bool for x in np.array(obj["values"], dtype=object).flat):
            raise ShapeError('"values" holds true or false, not numbers')
        obj["values"] = np.array(obj["values"])
    return obj


def _integer(value) -> int:
    if type(value) is bool:  # operator.index takes true and false for 1 and 0
        raise ShapeError(f"{str(value).lower()} is not an integer")
    return operator.index(value)


def write_matrix_market(m: DiagMatrix, path: str) -> None:
    """Coordinate file of the nonzero entries, by diagonal then row (zeros are not written)."""
    from scipy.io import mmwrite  # scipy.io loads slowly, and only these two functions use it
    parts = [(d, np.flatnonzero(vec), vec) for d, vec in m.offset_views()]
    rows = np.concatenate([np.empty(0, np.int64)] + [at + max(0, -d) for d, at, _ in parts])
    cols = np.concatenate([np.empty(0, np.int64)] + [at + max(0, d) for d, at, _ in parts])
    values = np.concatenate([np.empty(0, COMPLEX)] + [vec[at] for _, at, vec in parts])
    coo = scipy.sparse.coo_matrix((values, (rows, cols)), shape=(m.dim, m.dim))
    text = io.BytesIO()
    mmwrite(text, coo)
    atomic_write(path, text.getvalue())


def read_matrix_market(path: str) -> DiagMatrix:
    from scipy.io import mmread
    with reading(path):
        mat = mmread(path)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ShapeError(f"square matrix required, got {mat.shape}")
        if not scipy.sparse.issparse(mat):
            return from_dense(mat)
        coo = scipy.sparse.coo_matrix(mat)
        coo.sum_duplicates()
        return from_coo(coo.shape[0], coo.row, coo.col, coo.data)


FORMATS = {  # name -> (reader, writer); the names are the CLI's format choices
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
    reader, _ = FORMATS[fmt or sniff_format(path)]
    return reader(path)


def save_matrix(m: DiagMatrix, path: str, fmt: str | None = None) -> None:
    _, writer = FORMATS[fmt or sniff_format(path)]
    writer(m, path)


def atomic_write(path: str, data: bytes | Iterable[list]) -> None:
    """Write data, or each group of buffers through os.writev, to a temp file, then
    rename; no partial file."""
    try:
        fd, tmp_path = tempfile.mkstemp(dir=os.path.dirname(path) or ".")
    except OSError as exc:  # name the file asked for, not the temporary one
        raise type(exc)(exc.errno, exc.strerror, path) from exc
    try:
        umask = os.umask(0o077)  # only read by setting; a file made meanwhile gets 0o077
        os.umask(umask)
        with os.fdopen(fd, "wb", buffering=0):  # closes fd
            os.fchmod(fd, 0o666 & ~umask)  # mkstemp's 0600 would outlive the rename
            for group in [[data]] if isinstance(data, bytes) else data:
                _writev(fd, group)
                del group  # written: not held while the next group is made
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def _writev(fd: int, buffers: list) -> None:
    """All of buffers (each len() bytes long), IOV_MAX at a time, resuming after a
    partial write with the rest of the buffer it cut."""
    i = 0
    while i < len(buffers):
        sent = os.writev(fd, buffers[i:i + IOV_MAX])
        while i < len(buffers) and sent >= len(buffers[i]):
            sent -= len(buffers[i])
            i += 1
        if sent:
            buffers[i] = memoryview(buffers[i])[sent:]
