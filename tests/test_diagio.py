import numpy as np
import pytest
import scipy.io
import scipy.sparse
from hypothesis import given, settings, strategies as st

from diagsim import DiagMatrix, from_dense, to_dense
from diagsim import diagio
from diagsim.diagio import (MAGIC, load_matrix, read_diaq, read_diaq_json,
                            read_matrix_market, save_matrix, sniff_format,
                            write_diaq, write_diaq_json, write_matrix_market)
from diagsim.errors import DomainError, ShapeError

from conftest import diag_matrix, diaq_json_oracle, rand_matrix


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
    """read_diaq gives a DiagMatrix, a ShapeError or a DomainError, nothing else."""
    with open(path, "wb") as fh:
        fh.write(blob)
    try:
        assert isinstance(read_diaq(path), DiagMatrix)
    except (ShapeError, DomainError):
        pass


@settings(max_examples=300, deadline=None)
@given(st.booleans(), st.binary(max_size=200))
def test_read_diaq_arbitrary_bytes(fuzz_path, magic, tail):
    _read_damaged(fuzz_path, (MAGIC if magic else b"") + tail)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**32 - 1), st.none() | st.integers(0, 10**4),
       st.lists(st.tuples(st.integers(0, 10**4), st.integers(1, 255)), max_size=4))
def test_read_diaq_damaged_file(fuzz_path, n, seed, cut, flips):
    write_diaq(rand_matrix(np.random.default_rng(seed), n), fuzz_path)
    with open(fuzz_path, "rb") as fh:
        blob = bytearray(fh.read())
    for pos, xor in flips:
        blob[pos % len(blob)] ^= xor
    _read_damaged(fuzz_path, bytes(blob if cut is None else blob[:cut % len(blob)]))


@pytest.mark.parametrize("fmt", ["diaq", "json", "mtx"])
def test_float64_matrix_is_written_as_its_complex128_twin(tmp_path, fmt):
    values = np.array([1.5, -0.0, 0.0, -2.25, 1e-300, 0.1, 3.0])
    real = DiagMatrix.packed(4, (-1, 0), values)
    twin = DiagMatrix.packed(4, (-1, 0), values.astype(complex))  # each x as x + 0j
    save_matrix(real, str(tmp_path / f"real.{fmt}"), fmt)
    save_matrix(twin, str(tmp_path / f"twin.{fmt}"), fmt)
    written = (tmp_path / f"real.{fmt}").read_bytes()
    assert written == (tmp_path / f"twin.{fmt}").read_bytes()
    assert load_matrix(str(tmp_path / f"real.{fmt}"), fmt).values.dtype == complex
