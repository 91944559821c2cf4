import json
import os
import re
import struct
import tempfile
import threading
import tracemalloc
import types
from unittest import mock

import numpy as np
import pytest
import scipy.io
import scipy.sparse
from hypothesis import given, settings, strategies as st

from diagsim import COMPLEX, DiagMatrix, from_dense, gen_benchmark, to_dense
from diagsim import diagio
from diagsim.diagio import (MAGIC, load_matrix, read_diaq, read_diaq_json,
                            read_matrix_market, save_matrix, sniff_format,
                            write_diaq, write_diaq_json, write_matrix_market)
from diagsim.diagmat import buffer_starts
from diagsim.errors import DomainError, ShapeError
from diagsim.hamsim import TaylorConfig, taylor_expm
from diagsim.spmspm import diag_matmul

from conftest import (EDGE_PARTS, diag_matrix, diaq_json_oracle, edge_matrices,
                      matrix_market_oracle, rand_matrix, read_diaq_json_oracle,
                      read_diaq_oracle, same_bits)


def matrices_equal(a: DiagMatrix, b: DiagMatrix) -> bool:
    """Same dim, offsets and value bits (so -0.0 differs from 0.0)."""
    if a.dim != b.dim or a.offsets != b.offsets:
        return False
    return all(da.values.tobytes() == db.values.tobytes()
               for da, db in zip(a.diagonals, b.diagonals))


def from_parts(re, im) -> np.ndarray:
    """complex128 vector with exactly these real and imaginary floats."""
    return np.column_stack([re, im]).astype(np.float64).view(complex).ravel()


@pytest.fixture
def sample():
    return rand_matrix(np.random.default_rng(73), 10, k=4)


def test_binary_round_trip(tmp_path, sample):
    path = str(tmp_path / "m.diaq")
    write_diaq(sample, path)
    assert matrices_equal(read_diaq(path), sample)


def test_binary_layout(tmp_path):
    m = diag_matrix(2, {1: np.array([3 + 4j])})
    path = str(tmp_path / "m.diaq")
    write_diaq(m, path)
    blob = open(path, "rb").read()
    assert blob[:5] == b"DIAQ1"
    assert int.from_bytes(blob[5:13], "little") == 2       # dim
    assert int.from_bytes(blob[13:21], "little") == 1      # diagonal count
    assert int.from_bytes(blob[21:29], "little", signed=True) == 1
    assert np.frombuffer(blob[29:], dtype="<f8").tolist() == [3.0, 4.0]


def test_binary_round_trip_keeps_signed_zeros(tmp_path):
    m = diag_matrix(3, {
        0: from_parts([-0.0, 2.0, 0.0], [-1.0, -0.0, 0.0]),
        1: from_parts([-0.0, 0.0], [-0.0, 0.0]),
    })
    path = str(tmp_path / "z.diaq")
    write_diaq(m, path)
    assert matrices_equal(read_diaq(path), m)


def test_bad_magic(tmp_path):
    path = str(tmp_path / "bogus.diaq")
    with open(path, "wb") as fh:
        fh.write(b"NOPE!" + b"\0" * 16)
    with pytest.raises(ShapeError):
        read_diaq(path)


def test_json_round_trip(tmp_path, sample):
    path = str(tmp_path / "m.json")
    write_diaq_json(sample, path)
    assert matrices_equal(read_diaq_json(path), sample)


def _json_cases() -> dict[str, DiagMatrix]:
    rng = np.random.default_rng(5)
    return {
        "random": rand_matrix(rng, 12, k=5),
        "random-real": rand_matrix(rng, 9, k=3, real=True),
        "signed-zero": diag_matrix(3, {
            -1: from_parts([-0.0, 1.0], [1.0, -0.0]),
            0: from_parts([-0.0, 0.0, -0.0], [-0.0, 0.0, 0.0])}),
        "subnormal": diag_matrix(2, {
            0: from_parts([5e-324, -2.5e-320], [2.2250738585072014e-308 / 3, -5e-324]),
            1: from_parts([1e-310], [0.0])}),
        "extreme": diag_matrix(3, {
            0: from_parts([1e300, -1e300, 1.7976931348623157e308], [1e-300, -1e-300, 1e300]),
            2: from_parts([-9.99e299], [1.0000000000000002e-300])}),
        "distinct": diag_matrix(64, {
            d: rng.standard_normal(64 - abs(d)) + 1j * rng.standard_normal(64 - abs(d))
            for d in (-63, -7, 0, 5, 40)}),
        "repeated": diag_matrix(64, {
            d: rng.choice([0.0, 0.5, -1.25 + 0.1j, 1e-17j], size=64 - abs(d)) + 0j
            for d in (-3, 0, 1, 63)}),
        "dim1": diag_matrix(1, {0: np.array([0.1 - 0.3j])}),
        "empty": DiagMatrix(7, ()),
    }


JSON_CASES = _json_cases()


@pytest.mark.parametrize("name", JSON_CASES)
def test_json_writer_matches_json_dumps(tmp_path, name):
    m = JSON_CASES[name]
    path = str(tmp_path / f"{name}.json")
    write_diaq_json(m, path)
    assert open(path, "rb").read() == diaq_json_oracle(m)
    assert matrices_equal(read_diaq_json(path), m)


def test_json_reader_sorts_diagonals(tmp_path):
    path = tmp_path / "unsorted.json"
    path.write_text('{"n": 3, "diags": [{"offset": 1, "values": [[1, 2], [3, -0.0]]},'
                    ' {"offset": -2, "values": [[5e-324, 0]]}]}')
    m = read_diaq_json(str(path))
    assert m.offsets == (-2, 1)
    assert m.diagonals[1].values.tobytes() == from_parts([1.0, 3.0], [2.0, -0.0]).tobytes()


@settings(max_examples=200)
@given(edge_matrices())
def test_json_writer_and_reader_match_the_oracles_bit_for_bit(m):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.json")
        write_diaq_json(m, path)
        with open(path, "rb") as fh:
            assert fh.read() == diaq_json_oracle(m)
        assert same_bits(read_diaq_json(path), m)


@st.composite
def run_matrices(draw) -> DiagMatrix:
    """A matrix of dim 1..40 with up to 6 diagonals whose buffer is runs over
    an alphabet of 2-4 values, parts drawn from +-0.0, a subnormal and a few
    numbers (so x + 0j and x - 0j): runs cross diagonal starts."""
    n = draw(st.integers(1, 40))
    offsets = sorted(draw(st.lists(st.integers(1 - n, n - 1), unique=True, max_size=6)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    alphabet = rng.choice([0.0, -0.0, 1.0, -2.5, 1e-300, 5e-324], (draw(st.integers(2, 4)), 2))
    total = int(buffer_starts(n, offsets)[-1])
    picks = np.repeat(rng.integers(0, len(alphabet), total), rng.geometric(0.2, total))[:total]
    return DiagMatrix.packed(n, offsets, alphabet[picks].view(COMPLEX).ravel())


@settings(max_examples=300)
@given(run_matrices(), st.sampled_from([1, 3, 16, diagio.JSON_BATCH]))
def test_json_writer_matches_the_oracle_on_runs(json_fuzz_path, m, batch):
    # batches of a few entries cut the buffer between and inside runs
    with mock.patch.object(diagio, "JSON_BATCH", batch):
        write_diaq_json(m, json_fuzz_path)
    with open(json_fuzz_path, "rb") as fh:
        assert fh.read() == diaq_json_oracle(m)


def test_json_writer_on_diagonals_longer_than_a_batch(tmp_path):
    n = diagio.JSON_BATCH + 300
    rng = np.random.default_rng(11)
    offsets = (-n + 1, -5, 0, 2)
    total = int(buffer_starts(n, offsets)[-1])
    alphabet = from_parts([0.5, -0.0, 0.5, 0.0], [0.0, 0.0, -0.0, 1e-300])
    picks = np.repeat(rng.integers(0, 4, total), rng.geometric(0.01, total))[:total]
    m = DiagMatrix.packed(n, offsets, alphabet[picks])
    path = str(tmp_path / "long.json")
    write_diaq_json(m, path)
    assert open(path, "rb").read() == diaq_json_oracle(m)


def _refuse_json_values(monkeypatch):
    """Make any "values" array that json parses into Python objects fail the read."""
    def refuse(obj, bools):
        assert "values" not in obj, "json parsed a canonical values array"
        return obj

    monkeypatch.setattr(diagio, "_pairs_array", refuse)


@pytest.mark.parametrize("model", ["heisenberg", "tfim", "maxcut"])
def test_hamiltonian_json_values_are_not_parsed_by_json(tmp_path, monkeypatch, model):
    m = gen_benchmark(model, 6)
    path = str(tmp_path / f"{model}.json")
    write_diaq_json(m, path)
    _refuse_json_values(monkeypatch)
    assert matrices_equal(read_diaq_json(path), m)


def test_json_number_tokens_read_as_json_reads_them(tmp_path, monkeypatch):
    path = tmp_path / "tokens.json"
    path.write_text('{"n":12,"diags":[{"offset":0,"values":[[1E5,-0e0],[7,2.5E-1]%s]}]}'
                    % (",[0,-0.0]" * 10))
    want = from_parts([1e5, 7.0] + [0.0] * 10, [-0.0, 0.25] + [-0.0] * 10)
    _refuse_json_values(monkeypatch)
    assert read_diaq_json(str(path)).values.tobytes() == want.tobytes()


@pytest.fixture(scope="module")
def json_fuzz_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("json-fuzz") / "f.json")


# tokens json reads as ints, as floats (NaN and Infinity non-finite) or as no
# number, or refuses; and "values" members that are no list of number pairs
MUTANT_TOKENS = ["-0", "-0.0", "0e0", "1234567890123456789", "-98765432109876543210", "1E5",
                 "2.5e-3", ".5", "01", "+1", "1.", "NaN", "Infinity", "-Infinity", "true",
                 "false", "null", '"1"']
MUTANT_VALUES = ["[[1,0,0]]", "[[1]]", "[]", "[[]]", '[["1","0"]]', '"0"', "[1,0]",
                 "[[1,0],[2]]", "[[[1,0]]]", "[[1,0]"]
# members a placeholder for a certified array could be taken for
LOOKALIKES = ["0", "1", "2", '"\\u00000"', '"\\u00001"']
NUMBER = re.compile(r"-?[0-9][0-9.eE+-]*")


@st.composite
def palette_matrices(draw) -> DiagMatrix:
    """Dim 1..40 and up to 6 diagonals whose values, as a Hamiltonian's, come
    from a few pairs: parts of EDGE_PARTS and random normals."""
    n = draw(st.integers(1, 40))
    offsets = sorted(draw(st.lists(st.integers(1 - n, n - 1), unique=True, max_size=6)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    palette = np.where(rng.random(8) < 0.5, rng.choice(EDGE_PARTS, 8), rng.standard_normal(8))
    picks = rng.integers(0, draw(st.integers(1, 3)), int(buffer_starts(n, offsets)[-1]))
    return DiagMatrix.packed(n, offsets, palette.view(COMPLEX)[picks])


@st.composite
def diaq_json_texts(draw) -> str:
    """Writer output, possibly re-dumped with indents, spaces or shuffled keys,
    then possibly with number tokens or whole "values" members swapped out."""
    text = diaq_json_oracle(draw(palette_matrices())).decode()
    layout = draw(st.sampled_from(["canonical", "shuffled", "indent", "spaces"]))
    if layout != "canonical":
        doc = json.loads(text)
        if layout == "shuffled":
            draw(st.randoms()).shuffle(doc["diags"])
            doc = {"diags": [dict(reversed(d.items())) for d in doc["diags"]], "n": doc["n"]}
        text = json.dumps(doc, indent=1 if layout == "indent" else None,
                          separators=(",", ":") if layout == "shuffled" else None)
    swap = draw(st.sampled_from(["nothing", "tokens", "values"]))
    if swap == "tokens":
        spans, pool = [m.span() for m in NUMBER.finditer(text)], st.sampled_from(MUTANT_TOKENS)
    else:  # a "values" member starts at its first "[" and, if compact, ends at its "]]"
        spans = [(at.end(), text.find("]]", at.end()) + 2)
                 for at in re.finditer('"values":', text) if text.startswith("[[", at.end())]
        pool = st.sampled_from(MUTANT_VALUES) | st.sampled_from(LOOKALIKES)
    if swap != "nothing" and spans:
        swaps = draw(st.lists(st.tuples(st.integers(0, len(spans) - 1), pool),
                              min_size=1, max_size=3))
        for i, new in sorted(dict(swaps).items(), reverse=True):
            text = text[:spans[i][0]] + new + text[spans[i][1]:]
    return text


def _read_outcome(reader, path: str):
    """(dim, offsets, value bytes) of the matrix read, or (error type, message)."""
    try:
        m = reader(path)
    except Exception as exc:  # the two readers must fail alike
        return type(exc), str(exc)
    return m.dim, m.offsets, m.values.tobytes()


@pytest.mark.parametrize("token", MUTANT_TOKENS)
def test_json_reader_matches_the_json_only_oracle_on_each_token(tmp_path, token):
    # in arrays the reader would certify if the token were a plain float
    path = str(tmp_path / "token.json")
    with open(path, "w") as fh:
        fh.write('{"n":9,"diags":[{"offset":0,"values":[[1.5,%s]%s]},{"offset":1,"values":[%s]}]}'
                 % (token, ",[0.5,-0.0]" * 8, ",".join(["[0.5,-0.0]"] * 8)))
    assert _read_outcome(read_diaq_json, path) == _read_outcome(read_diaq_json_oracle, path)


@pytest.mark.parametrize("member", LOOKALIKES)
def test_json_values_member_next_to_a_certified_array(tmp_path, member):
    # things json reads as values a placeholder of the array could be, before and after it
    path = str(tmp_path / "member.json")
    with open(path, "w") as fh:
        fh.write('{"n":9,"diags":[{"offset":-1,"values":%s},{"offset":0,"values":[%s]},'
                 '{"offset":1,"values":%s}]}' % (member, ",".join(["[0.5,-0.0]"] * 9), member))
    assert _read_outcome(read_diaq_json, path) == _read_outcome(read_diaq_json_oracle, path)


class _ScanCount(str):
    """A text that counts the characters its find calls pass over."""

    def find(self, sub, start=0, end=None):
        at = super().find(sub, start, end)
        self.scanned += (at if at >= 0 else len(self) if end is None else end) - start
        return at


def test_json_scan_stays_within_each_values_member():
    # a compact "values" array closed by " ]" is followed by other arrays' "]]":
    # the search for its end must stop at the next member, or k arrays cost k passes
    loose = ",".join(["[0.5,0]"] * 40)
    text = _ScanCount('{"n":9,"diags":[%s,{"offset":0,"values":[%s]}]}' % (
        ",".join('{"offset":%d,"values":[%s ]}' % (d, loose) for d in range(1, 200)), loose))
    text.scanned = 0
    doc = diagio._parse(types.SimpleNamespace(read=lambda: text))
    assert [d["values"].shape for d in doc["diags"]] == [(40, 2)] * 200
    assert text.scanned <= 2 * len(text)


@settings(max_examples=1500)
@given(diaq_json_texts())
def test_json_reader_matches_the_json_only_oracle(json_fuzz_path, text):
    with open(json_fuzz_path, "w") as fh:
        fh.write(text)
    assert _read_outcome(read_diaq_json, json_fuzz_path) == \
        _read_outcome(read_diaq_json_oracle, json_fuzz_path)


# tracemalloc peak over file bytes of the json-only reader (3.408-3.412) and of
# the writer that formatted the whole document as str, then encoded it
# (3.000-3.007), on heisenberg-11's square (3,112,690 bytes)
PARENT_READ_PEAK_RATIO = 3.40
PARENT_WRITE_PEAK_RATIO = 3.00


def _peak(call) -> int:
    """tracemalloc peak of call(), in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def h11_square():
    h = gen_benchmark("heisenberg", 11)
    return diag_matmul(h, h)


def test_json_reader_and_writer_peak_memory(tmp_path, h11_square):
    path = str(tmp_path / "h2.json")
    write_peak = _peak(lambda: write_diaq_json(h11_square, path))
    read_peak = _peak(lambda: read_diaq_json(path))
    size = os.path.getsize(path)
    assert write_peak <= PARENT_WRITE_PEAK_RATIO * size
    assert read_peak <= PARENT_READ_PEAK_RATIO * size


def test_json_writer_peak_memory_stays_within_a_batch(tmp_path, h11_square):
    # formatting the whole buffer at once peaks at 0.92 x the file on h11_square
    # and 4.19 x on U, one text per distinct value; batches of JSON_BATCH
    # entries at about 0.24 x and 1.0 x
    u, _ = taylor_expm(gen_benchmark("tfim", 8), TaylorConfig(t=0.5, eps=1e-8))
    for name, m, bound in (("h2", h11_square, 0.5), ("u", u, 1.5)):
        path = str(tmp_path / f"{name}.json")
        peak = _peak(lambda: write_diaq_json(m, path))
        assert peak <= bound * os.path.getsize(path), name


def test_binary_reader_and_writer_peak_memory(tmp_path, h11_square):
    # tracemalloc peak over file bytes on h11_square (4,957,293 bytes): 2.13 for
    # the reader that read the whole file, then concatenated the diagonals, and
    # 1.01 for the writer that joined the whole file before writing it
    path = str(tmp_path / "h2.diaq")
    write_peak = _peak(lambda: write_diaq(h11_square, path))
    read_peak = _peak(lambda: read_diaq(path))
    size = os.path.getsize(path)
    assert write_peak <= 0.1 * size  # the diagonals go to os.writev as they are
    assert read_peak <= 1.2 * size  # one value buffer and its finiteness check


def test_matrix_market_round_trip(tmp_path, sample):
    path = str(tmp_path / "m.mtx")
    write_matrix_market(sample, path)
    back = read_matrix_market(path)
    assert np.allclose(to_dense(back), to_dense(sample))


def test_matrix_market_writes_only_nonzero_entries(tmp_path):
    upper = from_parts([1.0, -0.0], [-0.0, 3.0])
    m = diag_matrix(4, {
        -1: from_parts([0.0, 2.0, -0.0], [0.0, 0.0, -0.0]),
        0: from_parts([0.0, -0.0, 0.0, 0.0], [-0.0, 0.0, 0.0, 0.0]),
        2: upper,
    })
    path = str(tmp_path / "z.mtx")
    write_matrix_market(m, path)
    with open(path) as fh:
        size = next(line for line in fh if not line.startswith("%"))
    assert size.split() == ["4", "4", str(m.nnze)] and m.nnze == 3
    # the all-zero diagonal is dropped and zero entries, -0.0 included, read back
    # as +0.0; a nonzero entry keeps a signed zero part
    want = diag_matrix(4, {
        -1: from_parts([0.0, 2.0, 0.0], [0.0, 0.0, 0.0]),
        2: upper,
    })
    assert matrices_equal(read_matrix_market(path), want)


@settings(max_examples=200)
@given(edge_matrices())
def test_matrix_market_writer_matches_the_coordinate_oracle(m):
    # same bytes, entries by diagonal then row, as the coordinate-based writer
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.mtx")
        write_matrix_market(m, path)
        with open(path, "rb") as fh:
            assert fh.read() == matrix_market_oracle(m)


@pytest.mark.parametrize("seed", range(5))
def test_matrix_market_entry_count_is_nnze(tmp_path, seed):
    rng = np.random.default_rng(seed)
    m = rand_matrix(rng, 12, k=6, real=True)
    zeroed = {d.offset: np.where(rng.random(len(d.values)) < 0.5, 0.0, d.values)
              for d in m.diagonals}
    m = diag_matrix(12, zeroed)
    path = str(tmp_path / "m.mtx")
    write_matrix_market(m, path)
    assert scipy.io.mminfo(path)[2] == m.nnze
    assert np.array_equal(to_dense(read_matrix_market(path)), to_dense(m))


def test_matrix_market_real_import(tmp_path):
    path = str(tmp_path / "real.mtx")
    with open(path, "w") as fh:
        fh.write("%%MatrixMarket matrix coordinate real general\n3 3 2\n1 1 2.0\n3 1 -1.5\n")
    m = read_matrix_market(path)
    assert to_dense(m)[0, 0] == 2.0
    assert to_dense(m)[2, 0] == -1.5


def test_sniff_and_dispatch(tmp_path, sample):
    for name in ("x.diaq", "x.json", "x.mtx"):
        path = str(tmp_path / name)
        save_matrix(sample, path)
        back = load_matrix(path)
        assert np.allclose(to_dense(back), to_dense(sample))
    assert sniff_format("foo.json") == "json"
    assert sniff_format("foo.mtx") == "mtx"
    assert sniff_format("foo.bin") == "diaq"


def test_empty_matrix_round_trips(tmp_path):
    empty = DiagMatrix(5, ())
    for name in ("e.diaq", "e.json", "e.mtx"):
        path = str(tmp_path / name)
        save_matrix(empty, path)
        back = load_matrix(path)
        assert back.dim == 5 and back.nnzd == 0


# -- Matrix Market coordinate reads never densify ----------------------------


def _mtx(tmp_path, body: str, header="coordinate real general") -> str:
    path = tmp_path / "m.mtx"
    path.write_text(f"%%MatrixMarket matrix {header}\n{body}")
    return str(path)


def test_matrix_market_duplicates_are_summed(tmp_path):
    m = read_matrix_market(_mtx(tmp_path, "2 2 3\n1 1 2.0\n1 1 -2.0\n2 1 1.0\n"))
    assert m.nnzd == 1 and m.offsets == (-1,)
    assert to_dense(m)[1, 0] == 1.0


def test_matrix_market_explicit_zero_makes_no_diagonal(tmp_path):
    m = read_matrix_market(_mtx(tmp_path, "3 3 2\n1 2 0.0\n2 2 4.0\n"))
    assert m.offsets == (0,)
    assert m.diagonals[0].values.tolist() == [0, 4, 0]


@pytest.mark.parametrize("header, body, expect", [
    ("coordinate real symmetric", "3 3 2\n1 1 2.0\n3 1 5.0\n",
     [[2, 0, 5], [0, 0, 0], [5, 0, 0]]),
    ("coordinate complex hermitian", "2 2 2\n1 1 2.0 0.0\n2 1 1.0 3.0\n",
     [[2, 1 - 3j], [1 + 3j, 0]]),
    ("array real general", "2 2\n1.0\n2.0\n0.0\n4.0\n", [[1, 0], [2, 4]]),
])
def test_matrix_market_headers(tmp_path, header, body, expect):
    m = read_matrix_market(_mtx(tmp_path, body, header))
    assert np.array_equal(to_dense(m), np.array(expect, dtype=complex))


@pytest.mark.parametrize("header, body", [
    ("coordinate real general", "3 4 1\n1 1 2.0\n"),
    ("array real general", "3 4\n" + "1.0\n" * 12),
])
def test_matrix_market_non_square_rejected(tmp_path, header, body):
    with pytest.raises(ShapeError, match="m.mtx"):
        read_matrix_market(_mtx(tmp_path, body, header))


@pytest.mark.parametrize("seed", range(20))
def test_matrix_market_matches_dense_read(tmp_path, seed):
    """Random coordinate files, duplicates and cancelling pairs included."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    rows, cols = rng.integers(0, n, size=(2, int(rng.integers(0, 3 * n + 1))))
    vals = rng.choice([1.0, -1.0, 0.0, 0.25, 3.5], size=len(rows)).tolist()
    entries = [f"{r + 1} {c + 1} {v!r}" for r, c, v in zip(rows, cols, vals)]
    entries += [f"{r + 1} {c + 1} {-v!r}" for r, c, v in zip(rows[:2], cols[:2], vals[:2])]
    path = _mtx(tmp_path, f"{n} {n} {len(entries)}\n" + "\n".join(entries) + "\n")
    dense = scipy.io.mmread(path).toarray()
    assert matrices_equal(read_matrix_market(path), from_dense(dense))


def test_matrix_market_coordinate_read_never_densifies(tmp_path, monkeypatch, sample):
    path = str(tmp_path / "m.mtx")
    write_matrix_market(sample, path)

    def refuse(*args, **kwargs):
        raise AssertionError("coordinate read densified")

    monkeypatch.setattr(diagio, "from_dense", refuse)
    for cls in (scipy.sparse.coo_matrix, scipy.sparse.coo_array):
        monkeypatch.setattr(cls, "todense", refuse)
        monkeypatch.setattr(cls, "toarray", refuse)
    back = read_matrix_market(path)
    assert back.offsets == sample.offsets
    for got, want in zip(back.diagonals, sample.diagonals):
        assert np.allclose(got.values, want.values, rtol=1e-15, atol=0)


# -- the binary reader on damaged input ---------------------------------------


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz") / "f.diaq")


def _read_damaged(path: str, blob: bytes) -> None:
    """read_diaq gives a DiagMatrix, a ShapeError or a DomainError, nothing else,
    and the same as the oracle that reads the whole blob, message for message."""
    with open(path, "wb") as fh:
        fh.write(blob)
    outcome = _read_outcome(read_diaq, path)
    assert outcome[0] in (ShapeError, DomainError) or isinstance(outcome[0], int)
    assert outcome == _read_outcome(read_diaq_oracle, path)


def _diaq_blob(n: int, count: int, diags: list, tail: bytes = b"") -> bytes:
    """A DiaQ binary file of these (offset, values) diagonals, under a header
    that claims dim n and count diagonals, then tail."""
    parts = [MAGIC, struct.pack("<QQ", n, count)]
    for d, values in diags:
        parts += [struct.pack("<q", d), np.asarray(values, "<c16").tobytes()]
    return b"".join(parts) + tail


@pytest.mark.parametrize("blob, error, message", [
    (_diaq_blob(2, 2, [(0, [1, 2])]), ShapeError, "file ends before diagonal 1 of 2"),
    # the header claims more diagonals than the values leave room for
    (_diaq_blob(2, 3, [(0, [1, 2]), (1, [3])]), ShapeError, "file ends before diagonal 2 of 3"),
    (_diaq_blob(2, 1, [(0, [1, 2])])[:-1], ShapeError,
     "diagonal 0 runs past the end of the file"),
    (_diaq_blob(2, 3, [(0, [1, 2]), (1, [3])])[:-8], ShapeError,
     "diagonal 1 runs past the end of the file"),
    (_diaq_blob(2, 1, [(0, [1, 2])], b"xyz"), ShapeError, "3 trailing bytes"),
    (_diaq_blob(2, 1, [(5, [])]), DomainError, "offset 5 out of range for dim 2"),
    (_diaq_blob(2, 2, [(1, [1]), (0, [2, 3])]), DomainError,
     "diagonal offsets must be strictly increasing"),
    (MAGIC + b"\0" * 7, ShapeError, "12 bytes, shorter than the 21-byte header"),
])
def test_read_diaq_messages(tmp_path, blob, error, message):
    path = str(tmp_path / "bad.diaq")
    with open(path, "wb") as fh:
        fh.write(blob)
    with pytest.raises(error) as info:
        read_diaq(path)
    assert str(info.value) == f"{path}: {message}"
    assert _read_outcome(read_diaq, path) == _read_outcome(read_diaq_oracle, path)


@pytest.mark.parametrize("blob", [
    _diaq_blob(2**62, 2**40, []),  # the 21-byte header alone
    _diaq_blob(2**24, 1, [(0, np.ones(64))]),  # values for 64 of 2**24 entries
])
def test_read_diaq_lying_header_allocates_within_the_file(tmp_path, blob):
    path = str(tmp_path / "liar.diaq")
    with open(path, "wb") as fh:
        fh.write(blob)

    def read():
        with pytest.raises((ShapeError, DomainError), match=re.escape(path)):
            read_diaq(path)

    # the file object's read buffer and the error aside
    assert _peak(read) <= len(blob) + 64 * 1024


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
@pytest.mark.parametrize("cut", [0, 5])
def test_read_diaq_from_a_pipe(tmp_path, cut):
    # a pipe has no size to take from the file system: the reader reads it first
    regular, pipe = str(tmp_path / "m.diaq"), str(tmp_path / "pipe.diaq")
    write_diaq(gen_benchmark("heisenberg", 8), regular)  # more than a pipe buffer holds
    with open(regular, "rb") as fh:
        blob = fh.read()
    with open(regular, "wb") as fh:
        fh.write(blob[:len(blob) - cut])
    os.mkfifo(pipe)

    def feed():
        with open(pipe, "wb") as fh:
            fh.write(blob[:len(blob) - cut])

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        got = _read_outcome(read_diaq, pipe)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    want = _read_outcome(read_diaq, regular)
    assert got == (want if not cut else (want[0], want[1].replace(regular, pipe)))


@settings(max_examples=300)
@given(st.booleans(), st.binary(max_size=200))
def test_read_diaq_arbitrary_bytes(fuzz_path, magic, tail):
    _read_damaged(fuzz_path, (MAGIC if magic else b"") + tail)


@settings(max_examples=300)
@given(st.integers(1, 6), st.integers(0, 2**32 - 1), st.none() | st.integers(0, 10**4),
       st.lists(st.tuples(st.integers(0, 10**4), st.integers(1, 255)), max_size=4))
def test_read_diaq_damaged_file(fuzz_path, n, seed, cut, flips):
    write_diaq(rand_matrix(np.random.default_rng(seed), n), fuzz_path)
    with open(fuzz_path, "rb") as fh:
        blob = bytearray(fh.read())
    for pos, xor in flips:
        blob[pos % len(blob)] ^= xor
    _read_damaged(fuzz_path, bytes(blob if cut is None else blob[:cut % len(blob)]))


# -- atomic writes --------------------------------------------------------------


def test_writers_resume_after_partial_writes(tmp_path, monkeypatch):
    # os.writev may write less than it is given, and takes at most IOV_MAX buffers
    m = gen_benchmark("heisenberg", 6)
    for fmt in ("diaq", "json"):
        save_matrix(m, str(tmp_path / f"want.{fmt}"), fmt)
    calls = []

    def writev(fd, buffers):
        assert len(buffers) <= 3
        calls.append(len(buffers))
        return os.write(fd, b"".join(buffers)[:7])

    monkeypatch.setattr(diagio, "IOV_MAX", 3)
    monkeypatch.setattr(os, "writev", writev)
    for fmt in ("diaq", "json"):
        save_matrix(m, str(tmp_path / f"got.{fmt}"), fmt)
    monkeypatch.undo()
    for fmt in ("diaq", "json"):
        assert (tmp_path / f"got.{fmt}").read_bytes() == (tmp_path / f"want.{fmt}").read_bytes()
    assert len(calls) > 1000 and max(calls) == 3


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no per-process fd listing")
@pytest.mark.parametrize("fmt, fail", [("diaq", "writev"), ("json", "writev"),
                                       ("json", "format")])
def test_failed_write_leaves_the_old_file(tmp_path, monkeypatch, fmt, fail):
    m = gen_benchmark("heisenberg", 8)
    path = tmp_path / f"m.{fmt}"
    path.write_bytes(b"old bytes")
    if fail == "writev":  # the first call writes one buffer, the next finds the disk full
        real, calls = os.writev, []

        def writev(fd, buffers):
            if calls:
                raise OSError(28, "No space left on device")
            calls.append(fd)
            return real(fd, buffers[:1])

        monkeypatch.setattr(os, "writev", writev)
    else:  # the second batch of diagonals fails to format
        real_diagonals = diagio._json_diagonals

        def diagonals(m, i, j):
            if i:
                raise RuntimeError("formatting failed")
            return real_diagonals(m, i, j)

        monkeypatch.setattr(diagio, "JSON_BATCH", 256)
        monkeypatch.setattr(diagio, "_json_diagonals", diagonals)
    fds = sorted(os.listdir("/proc/self/fd"))
    with pytest.raises(OSError if fail == "writev" else RuntimeError):
        save_matrix(m, str(path), fmt)
    assert sorted(os.listdir("/proc/self/fd")) == fds
    assert path.read_bytes() == b"old bytes"
    assert os.listdir(tmp_path) == [path.name]
