import json
import struct

import numpy as np
import pytest

from diagsim import cli, gen_benchmark
from diagsim.diagio import save_matrix


def test_simulate_cross_check_failure_exits_3(tmp_path, monkeypatch, capsys):
    h = gen_benchmark("tfim", 4)
    path = str(tmp_path / "h.diaq")
    save_matrix(h, path)
    argv = ["simulate", path, path, "--out", str(tmp_path / "r.json")]
    assert cli.main(argv) == 0
    real = cli.simulate_product

    def perturbed(*args, **kwargs):
        product, *rest = real(*args, **kwargs)
        # one entry off by a relative 1e-10 of the product's Frobenius norm
        scale = np.sqrt(sum(np.vdot(d.values, d.values).real for d in product.diagonals))
        product.diagonals[0].values[0] += 1e-10 * scale
        return (product, *rest)

    monkeypatch.setattr(cli, "simulate_product", perturbed)
    assert cli.main(argv) == cli.VERIFY_EXIT
    assert "cross-check FAILED" in capsys.readouterr().err


def _expm_terms(tmp_path, config, *flags):
    """Taylor terms of a functional heisenberg-4 expm run under a config file."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    out = tmp_path / "report.json"
    argv = ["--config", str(cfg), "expm", "--model", "heisenberg", "--qubits", "4",
            "--out", str(out), *flags]
    assert cli.main(argv) == 0
    return json.loads(out.read_text())["taylor_terms"]


def test_config_value_is_typed_and_applied(tmp_path):
    assert _expm_terms(tmp_path, "t=0.01\n", "--functional-only") == 5


def test_config_fills_flag_without_default(tmp_path):
    assert _expm_terms(tmp_path, "iters=3\n", "--functional-only") == 3


def test_explicit_flag_beats_config(tmp_path):
    assert _expm_terms(tmp_path, "t=0.01\n", "--functional-only", "--t", "1") == 37


def test_config_on_off_flags(tmp_path):
    assert _expm_terms(tmp_path, "t=0.01\nfunctional_only=true\n") == 5
    for bad in ("functional_only=yes\n", "no_such_key=1\n"):
        with pytest.raises(SystemExit) as exc:
            _expm_terms(tmp_path, bad)
        assert exc.value.code == cli.USAGE_EXIT


@pytest.mark.parametrize("interleave", ["0", "-3"])
def test_interleave_below_one_rejected(tmp_path, interleave):
    path = str(tmp_path / "h.diaq")
    save_matrix(gen_benchmark("tfim", 4), path)
    argv = ["simulate", path, path, "--out", str(tmp_path / "r.json"),
            f"--interleave={interleave}"]
    assert cli.main(argv) == cli.DATA_EXIT


# 2x2 matrix whose main diagonal needs 32 value bytes but has 16
TRUNCATED_DIAQ = b"DIAQ1" + struct.pack("<QQq", 2, 1, 0) + bytes(16)


MALFORMED = {
    "truncated.diaq": TRUNCATED_DIAQ,
    "short.diaq": b"DIAQ1" + bytes(7),
    "no-diags.json": b'{"n": 4}',
    "no-offset.json": b'{"n": 1, "diags": [{"values": [[1, 0]]}]}',
    "no-values.json": b'{"n": 1, "diags": [{"offset": 0}]}',
    "triples.json": b'{"n": 2, "diags": [{"offset": 0, "values": [[1, 0, 0], [2, 0, 0]]}]}',
    "strings.json": b'{"n": 1, "diags": [{"offset": 0, "values": [["1", "0"]]}]}',
    "float-offset.json": b'{"n": 3, "diags": [{"offset": 1.7, "values": [[1, 0], [2, 0]]}]}',
    "float-dim.json": b'{"n": 3.9, "diags": []}',
    "short-diagonal.json": b'{"n": 3, "diags": [{"offset": 0, "values": [[1, 0]]}]}',
    "binary.json": b"\xff\xfe\x00garbage",
    "garbage.mtx": b"not a Matrix Market file\n",
}


@pytest.mark.parametrize("name", MALFORMED)
def test_malformed_input_exits_2_with_one_line(tmp_path, capsys, name):
    src = tmp_path / name
    src.write_bytes(MALFORMED[name])
    assert cli.main(["convert", str(src), str(tmp_path / "out.diaq")]) == cli.DATA_EXIT
    err = capsys.readouterr().err
    assert err.startswith(f"error: {src}: ") and err.count("\n") == 1
    assert not (tmp_path / "out.diaq").exists()


def test_directory_as_input_exits_2_with_one_line(tmp_path, capsys):
    out = tmp_path / "out.diaq"
    assert cli.main(["convert", str(tmp_path), str(out)]) == cli.DATA_EXIT
    err = capsys.readouterr().err
    assert str(tmp_path) in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("name", ["out.diaq", "out.json", "out.mtx"])
def test_output_in_missing_directory_exits_2_with_one_line(tmp_path, capsys, name):
    src = tmp_path / "h.diaq"
    save_matrix(gen_benchmark("tfim", 3), str(src))
    out = tmp_path / "missing" / name
    assert cli.main(["convert", str(src), str(out)]) == cli.DATA_EXIT
    err = capsys.readouterr().err
    assert str(out) in err and err.count("\n") == 1
    assert not out.parent.exists()
