import dataclasses
import json
import struct
import warnings

import numpy as np
import pytest

from diagsim import DiagMatrix, cli, gen_benchmark, hamsim
from diagsim.diagio import save_matrix


def test_simulate_cross_check_failure_exits_3(tmp_path, monkeypatch, capsys):
    h = gen_benchmark("tfim", 4)
    path = str(tmp_path / "h.diaq")
    save_matrix(h, path)
    argv = ["simulate", path, path, "--grid-rows", "2", "--grid-cols", "2", "--out"]
    assert cli.main(argv + [str(tmp_path / "r.json")]) == 0
    real = hamsim.make_plan

    def one_job_short(*args, **kwargs):
        plan = real(*args, **kwargs)
        return dataclasses.replace(plan, jobs=plan.jobs[1:])

    monkeypatch.setattr(hamsim, "make_plan", one_job_short)
    assert cli.main(argv + [str(tmp_path / "r2.json")]) == cli.VERIFY_EXIT
    err = capsys.readouterr().err
    assert "plan coverage check failed" in err and err.count("\n") == 1
    assert not (tmp_path / "r2.json").exists()  # no report from an uncovered plan


@pytest.mark.parametrize("scale", [1.0, 1e100, 1e-150])
def test_matmul_check_passes_at_any_scale(tmp_path, capsys, scale):
    # at 1e100 the product's entries near 1e200 overflow an unscaled norm
    path = str(tmp_path / "h.diaq")
    save_matrix(gen_benchmark("heisenberg", 4).scaled(scale), path)
    assert cli.main(["matmul", path, path, "--check", "--out", str(tmp_path / "p.diaq")]) == 0
    out = capsys.readouterr().out
    assert out.startswith("oracle check passed: relative error ") and "nan" not in out


@pytest.mark.parametrize("scale", [1.0, 1e100])
def test_matmul_check_fails_closed_on_a_wrong_product(tmp_path, monkeypatch, capsys, scale):
    path, out = str(tmp_path / "h.diaq"), tmp_path / "p.diaq"
    save_matrix(gen_benchmark("heisenberg", 4).scaled(scale), path)
    real = cli.diag_matmul
    monkeypatch.setattr(cli, "diag_matmul", lambda a, b: real(a, b).scaled(1 + 1e-9))
    assert cli.main(["matmul", path, path, "--check", "--out", str(out)]) == cli.VERIFY_EXIT
    err = capsys.readouterr().err
    assert err.startswith("oracle check FAILED: relative error 1.0") and err.count("\n") == 1
    assert not out.exists()


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


def test_config_leaves_later_runs_on_built_in_defaults(tmp_path, monkeypatch):
    assert _expm_terms(tmp_path, "t=0.01\niters=3\n", "--functional-only") == 3
    # the next run in the process has no config: t=1 and eps decide, as built in
    out = tmp_path / "plain.json"
    argv = ["expm", "--model", "heisenberg", "--qubits", "4", "--functional-only",
            "--out", str(out)]
    assert cli.main(argv) == 0
    assert json.loads(out.read_text())["taylor_terms"] == 37
    # runs without a config share one parser
    builds = []
    monkeypatch.setattr(cli, "build_parser",
                        lambda real=cli.build_parser: builds.append(1) or real())
    cli._shared_parser.cache_clear()
    for _ in range(2):
        assert cli.main(argv) == 0
    assert len(builds) == 1


def test_config_on_off_flags(tmp_path):
    assert _expm_terms(tmp_path, "t=0.01\nfunctional_only=true\n") == 5
    for bad in ("functional_only=yes\n", "no_such_key=1\n"):
        with pytest.raises(SystemExit) as exc:
            _expm_terms(tmp_path, bad)
        assert exc.value.code == cli.USAGE_EXIT


@pytest.mark.parametrize("content", [None, b"t=0.01\n# \xff\xfe\n"], ids=["missing", "not-utf8"])
def test_unreadable_config_is_a_usage_error(tmp_path, capsys, content):
    cfg = tmp_path / "run.cfg"
    if content is not None:
        cfg.write_bytes(content)
    with pytest.raises(SystemExit) as exc:
        cli.main(["--config", str(cfg), "expm", "--model", "tfim", "--qubits", "3"])
    assert exc.value.code == cli.USAGE_EXIT
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith(f"error: config {cfg}: ") and "Traceback" not in err


@pytest.mark.parametrize("mode", [[], ["--functional-only"]], ids=["simulated", "functional"])
@pytest.mark.parametrize("flag, value", [("--eps", "nan"), ("--eps", "inf"),
                                         ("--t", "inf"), ("--t", "nan")])
def test_non_finite_t_or_eps_exits_2_with_one_line(tmp_path, capsys, flag, value, mode):
    out = tmp_path / "r.json"
    argv = ["expm", "--model", "tfim", "--qubits", "3", flag, value, "--out", str(out), *mode]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning reaches the user either
        assert cli.main(argv) == cli.DATA_EXIT
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag[2:]} must ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("mode", [[], ["--functional-only"]], ids=["simulated", "functional"])
@pytest.mark.parametrize("t", ["1e308", "1e200"])
def test_overflowing_t_exits_2_with_one_line(tmp_path, capsys, t, mode):
    # 1e308 overflows t H itself, 1e200 the chain's first products; either way
    # DiagMatrix names the non-finite diagonal and numpy stays quiet
    out = tmp_path / "r.json"
    argv = ["expm", "--model", "tfim", "--qubits", "3", "--t", t, "--iters", "3",
            "--out", str(out), *mode]
    before = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv) == cli.DATA_EXIT
    assert np.geterr() == before  # library calls keep numpy's defaults
    err = capsys.readouterr().err
    assert err.startswith("error: diagonal ") and err.count("\n") == 1
    assert err.endswith(" contains non-finite values\n") and not out.exists()


def test_negative_maxcut_seed_exits_2_with_one_line(tmp_path, capsys):
    out = tmp_path / "m.diaq"
    assert cli.main(["gen", "maxcut", "3", "--seed", "-1", "--out", str(out)]) == cli.DATA_EXIT
    assert capsys.readouterr().err == "error: maxcut seed must be non-negative, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("interleave", ["0", "-3"])
def test_interleave_below_one_rejected(tmp_path, interleave):
    path = str(tmp_path / "h.diaq")
    save_matrix(gen_benchmark("tfim", 4), path)
    # an operand with no diagonals gives a plan with no job to check it
    empty = str(tmp_path / "empty.diaq")
    save_matrix(DiagMatrix(16, ()), empty)
    for a in (path, empty):
        argv = ["simulate", a, path, "--out", str(tmp_path / "r.json"),
                f"--interleave={interleave}"]
        assert cli.main(argv) == cli.DATA_EXIT


def test_qubits_without_model_exits_2_with_one_line(tmp_path, capsys):
    path = str(tmp_path / "h.diaq")
    save_matrix(gen_benchmark("tfim", 3), path)
    out = tmp_path / "r.json"
    argv = ["expm", "--h-file", path, "--qubits", "9", "--functional-only", "--out", str(out)]
    assert cli.main(argv) == cli.DATA_EXIT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--qubits" in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["gen", "maxcut", "1", "--out", "h.diaq"],
    ["expm", "--model", "maxcut", "--qubits", "1", "--functional-only"],
    ["expm", "--model", "tfim", "--qubits", "3", "--functional-only", "--segments", "0"],
    ["expm", "--model", "tfim", "--qubits", "3", "--functional-only", "--segments=-4"],
    # grid flags, read the same way by simulate and expm
    ["expm", "--model", "tfim", "--qubits", "3", "--cuts", "a"],
    ["expm", "--model", "tfim", "--qubits", "3", "--cache-sets", "0"],
    ["expm", "--model", "tfim", "--qubits", "3", "--dram-cycles=-1"],
    ["expm", "--model", "tfim", "--qubits", "3", "--a-group-size", "0"],
    ["expm", "--model", "tfim", "--qubits", "3", "--b-group-size", "0"],
    ["expm", "--model", "tfim", "--qubits", "3", "--grid-rows", "0"],
    ["expm", "--model", "tfim", "--qubits", "3", "--cuts", "5,3"],
    # checked when the grid setup is built, though a functional run never plans
    ["expm", "--model", "tfim", "--qubits", "3", "--functional-only", "--iters", "2",
     "--grid-rows", "0"],
    ["expm", "--model", "tfim", "--qubits", "3", "--functional-only", "--iters", "2",
     "--a-group-size", "0"],
    ["expm", "--model", "tfim", "--qubits", "3", "--functional-only", "--iters", "2",
     "--cuts", "5,3"],
    ["expm", "--model", "tfim", "--qubits", "3", "--functional-only", "--iters", "2",
     "--interleave", "0"],
    # cuts outside [1, dim - 1], checked against H before the series runs
    ["expm", "--model", "tfim", "--qubits", "3", "--functional-only", "--iters", "2",
     "--cuts", "100"],
    ["expm", "--model", "tfim", "--qubits", "3", "--functional-only", "--iters", "2",
     "--cuts", "0,4"],
    ["expm", "--model", "tfim", "--qubits", "3", "--iters", "2", "--cuts", "8"],
])
def test_count_out_of_range_exits_2_with_one_line(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == cli.DATA_EXIT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("model, flags, config, named", [
    ("tfim", ["--jx", "5", "--seed", "9"], None, ["--jx", "--seed"]),
    ("heisenberg", ["--g", "0.5"], None, ["--g"]),
    ("maxcut", ["--jz", "1"], None, ["--jz"]),
    ("tfim", [], "jy=2\n", ["--jy"]),
], ids=["tfim-jx-seed", "heisenberg-g", "maxcut-jz", "tfim-config-jy"])
def test_gen_flag_of_another_model_exits_2(tmp_path, capsys, model, flags, config, named):
    out = tmp_path / "h.diaq"
    argv = ["gen", model, "3", "--out", str(out), *flags]
    if config:
        (tmp_path / "run.cfg").write_text(config)
        argv = ["--config", str(tmp_path / "run.cfg"), *argv]
    assert cli.main(argv) == cli.DATA_EXIT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert all(flag in err for flag in named)
    assert not out.exists()


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
