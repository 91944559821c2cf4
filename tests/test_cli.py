import dataclasses
import json
import os
import stat
import struct
import time
import warnings

import numpy as np
import pytest

from diagsim import DiagMatrix, cli, gen_benchmark, hamsim
from diagsim.dataflow import FeedConfig
from diagsim.diagio import load_matrix, save_matrix
from diagsim.hamsim import DEFAULT_EPS, TaylorConfig, taylor_expm

from conftest import SEGMENT_CASES, check_segmented_u, split_h


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


@pytest.mark.parametrize("existing", [None, b"an earlier trace\n"], ids=["absent", "existing"])
def test_failed_simulate_leaves_the_trace_path_as_it_was(tmp_path, capsys, existing):
    path, trace = str(tmp_path / "h.diaq"), tmp_path / "t.jsonl"
    save_matrix(gen_benchmark("tfim", 3), path)
    if existing is not None:
        trace.write_bytes(existing)
    # interleaving applies to single-diagonal jobs only: the product fails
    argv = ["simulate", path, path, "--interleave", "2", "--trace", str(trace)]
    assert cli.main(argv) == cli.DATA_EXIT
    assert capsys.readouterr().err.count("\n") == 1
    assert (trace.read_bytes() if trace.exists() else None) == existing
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["h.diaq"] + (["t.jsonl"] if existing is not None else []))


@pytest.mark.parametrize("command", ["matmul", "simulate"])
def test_one_path_given_twice_is_read_once(tmp_path, monkeypatch, command):
    # the same product as from two copies of the file, which are read twice
    h = gen_benchmark("heisenberg", 5)
    for name in ("h.diaq", "copy.diaq"):
        save_matrix(h, str(tmp_path / name))
    loads, real = [], cli.diagio.load_matrix
    monkeypatch.setattr(cli.diagio, "load_matrix", lambda *args: loads.append(args) or real(*args))
    products, reads = [], []
    for b in ("h.diaq", "copy.diaq"):
        out = tmp_path / f"{b}.out.diaq"
        flag = "--out" if command == "matmul" else "--product-out"
        argv = [command, str(tmp_path / "h.diaq"), str(tmp_path / b), flag, str(out)]
        assert cli.main(argv) == 0
        products.append(out.read_bytes())
        reads.append(len(loads))
    assert reads == [1, 3]
    assert products[0] == products[1]


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


def test_explicit_iters_beats_config_eps(tmp_path):
    assert _expm_terms(tmp_path, "eps=1e-6\n", "--functional-only", "--iters", "3") == 3


def test_explicit_eps_beats_config_iters(tmp_path):
    want = _expm_terms(tmp_path, "", "--functional-only", "--eps", "1e-6")
    assert want != 3
    assert _expm_terms(tmp_path, "iters=3\n", "--functional-only", "--eps", "1e-6") == want


def _expm_workload(tmp_path, config, *flags):
    """The workload a functional expm run under a config file reports."""
    (tmp_path / "run.cfg").write_text(config)
    out = tmp_path / "report.json"
    argv = ["--config", str(tmp_path / "run.cfg"), "expm", "--iters", "2",
            "--functional-only", "--out", str(out), *flags]
    assert cli.main(argv) == 0
    return json.loads(out.read_text())["workload"]


def test_explicit_h_file_beats_config_model(tmp_path):
    path = str(tmp_path / "h.diaq")
    save_matrix(gen_benchmark("heisenberg", 3), path)
    workload = _expm_workload(tmp_path, "model=tfim\nqubits=3\n", "--h-file", path)
    assert workload == f"expm:{path}"


def test_explicit_model_beats_config_h_file(tmp_path):
    path = str(tmp_path / "h.diaq")
    save_matrix(gen_benchmark("heisenberg", 3), path)
    workload = _expm_workload(tmp_path, f"h_file={path}\n", "--model", "tfim", "--qubits", "3")
    assert workload == "tfim-3"


def _grid(*argv):
    return cli._grid_setup(cli.build_parser().parse_args(["simulate", "a", "b", *argv]))


@pytest.mark.parametrize("short, long", [("a=asc,b=desc", "a=ascending,b=descending"),
                                         ("a=desc,b=asc", "a=descending,b=ascending"),
                                         ("b=asc", "b=ascending")])
def test_feed_abbreviations_give_the_same_feed(short, long):
    assert _grid("--feed", short).feed == _grid("--feed", long).feed
    assert _grid("--feed", "a=asc,b=desc").feed == _grid().feed == FeedConfig()


def test_feed_flag_changes_the_simulated_cycles(tmp_path):
    path = str(tmp_path / "h.diaq")
    save_matrix(gen_benchmark("heisenberg", 4), path)
    reports = []
    for feed in ([], ["--feed", "a=desc,b=asc"]):
        out = tmp_path / "r.json"
        argv = ["simulate", path, path, "--grid-rows", "4", "--grid-cols", "4", "--out", str(out)]
        assert cli.main(argv + feed) == 0
        reports.append(json.loads(out.read_text()))
    assert reports[0]["cycles"] != reports[1]["cycles"]
    assert reports[0]["events"]["multiplies"] == reports[1]["events"]["multiplies"]


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("feed", ["c=asc", "a=up", "b", "a=asc,b=ascend"])
def test_bad_feed_exits_2_with_one_line(tmp_path, capsys, via, feed):
    path = str(tmp_path / "h.diaq")
    save_matrix(gen_benchmark("tfim", 3), path)
    out = tmp_path / "r.json"
    argv = ["simulate", path, path, "--out", str(out)]
    if via == "flag":
        argv += ["--feed", feed]
    else:
        (tmp_path / "run.cfg").write_text(f"feed={feed}\n")
        argv = ["--config", str(tmp_path / "run.cfg"), *argv]
    assert cli.main(argv) == cli.DATA_EXIT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


def _settings(obj, prefix="") -> dict:
    """Each field of a settings dataclass by dotted name, nested ones expanded."""
    leaves = {}
    for field in dataclasses.fields(obj):
        value = getattr(obj, field.name)
        if dataclasses.is_dataclass(value):
            leaves.update(_settings(value, f"{prefix}{field.name}."))
        else:
            leaves[prefix + field.name] = value
    return leaves


def _trial_values(action) -> list[list[str]]:
    """Command-line values to try for a flag: one that differs from an integer
    flag's default, or text that some text flag accepts."""
    if action.nargs == 0:
        return [[]]
    if action.type is int:
        return [[str((action.default or 1) + 1)]]
    if action.type is float:
        return [["0.5"]]
    return [["a=desc,b=asc"], ["3"]]


@pytest.mark.parametrize("command, positional", [("simulate", ["a", "b"]), ("expm", [])])
def test_every_grid_setting_has_exactly_one_flag_with_its_default(command, positional):
    parser = cli.build_parser()
    default = _settings(hamsim.GridSetup())
    assert _settings(cli._grid_setup(parser.parse_args([command, *positional]))) == default
    setters = {name: [] for name in default}
    sub = parser._subparsers._group_actions[0].choices[command]
    for action in sub._actions:
        if not action.option_strings or action.dest == "help":
            continue
        for values in _trial_values(action):
            args = parser.parse_args([command, *positional, action.option_strings[0], *values])
            try:
                changed = [name for name, value in _settings(cli._grid_setup(args)).items()
                           if value != default[name]]
            except ValueError:  # text this flag does not accept
                continue
            for name in changed:
                setters[name].append(action.option_strings[0])
            if action.type is int and changed:
                (name,) = changed
                assert action.default == default[name], action.option_strings[0]
    assert {name: len(set(flags)) for name, flags in setters.items()} == dict.fromkeys(default, 1)


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


def test_a_command_wrapped_after_the_parser_is_built_still_runs(tmp_path, monkeypatch):
    # a profiler wraps cli.cmd_* by name, after an earlier run built the
    # shared parser; main must call the wrapper, not the function it wrapped
    assert cli.main(["gen", "tfim", "3", "--out", str(tmp_path / "h.diaq")]) == 0
    ran = []
    monkeypatch.setattr(cli, "cmd_expm", lambda args: ran.append(args.command) or 0)
    argv = ["expm", "--h-file", str(tmp_path / "h.diaq"), "--iters", "2", "--functional-only"]
    assert cli.main(argv) == 0
    assert ran == ["expm"]


def test_config_on_off_flags(tmp_path):
    assert _expm_terms(tmp_path, "t=0.01\nfunctional_only=true\n") == 5
    for bad in ("functional_only=yes\n", "no_such_key=1\n"):
        with pytest.raises(SystemExit) as exc:
            _expm_terms(tmp_path, bad)
        assert exc.value.code == cli.USAGE_EXIT


@pytest.mark.parametrize("command, config", [
    (["simulate", "A", "A"], "t=0.5\niters=3\n"),
    (["expm", "--model", "tfim", "--qubits", "3", "--functional-only"],
     "check=true\nproduct_out=p.diaq\n"),
    (["matmul", "A", "A"], "eps=1e-6\ntrace=t.jsonl\n"),
])
def test_config_key_the_subcommand_lacks_is_a_usage_error(tmp_path, capsys, command, config):
    # each key is some other subcommand's flag, and used to be dropped unread
    path = str(tmp_path / "h.diaq")
    save_matrix(gen_benchmark("tfim", 3), path)
    (tmp_path / "run.cfg").write_text(config)
    out = tmp_path / "out.json"
    argv = ["--config", str(tmp_path / "run.cfg"),
            *[path if arg == "A" else arg for arg in command], "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.USAGE_EXIT
    last = capsys.readouterr().err.splitlines()[-1]
    keys = sorted(line.split("=")[0] for line in config.split())
    assert last == f"error: config keys {keys} are not flags of {command[0]}"
    assert not out.exists()


@pytest.mark.parametrize("config, key", [("grid-rows = 8\ngrid_rows = 16\n", "grid_rows"),
                                         ("t=0.5\nfunctional_only=true\nt=0.5\n", "t")],
                         ids=["two-spellings", "same-value"])
def test_config_key_given_twice_is_a_usage_error(tmp_path, capsys, config, key):
    # the last value used to win unnoticed, even under the other spelling
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        cli.main(["--config", str(cfg), "expm", "--model", "tfim", "--qubits", "3",
                  "--out", str(out)])
    assert exc.value.code == cli.USAGE_EXIT
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == f"error: config {cfg}: key {key} is given twice"
    assert "Traceback" not in err and not out.exists()


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


def _dense_overflows() -> dict:
    """(H's grid, t) whose 6-term chain overflows after it turns dense (the
    edge cases of test_hamsim): a product that overflows to -inf, one that
    overflows with NaN where signs mix, and U's sum."""
    positive = np.arange(1.0, 17.0).reshape(4, 4)
    mixed = positive.copy()
    mixed[::2, 1::2] *= -1
    g = np.zeros((6, 6))
    g[1:5, 1:5] = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
    g[0, 1:5] = g[5, 1:5] = 1.7e308
    return {"overflow": (positive, 1e100), "overflow-nan": (mixed, 1e100), "sum-overflow": (g, 1.0)}


DENSE_OVERFLOWS = _dense_overflows()


@pytest.mark.parametrize("mode", [[], ["--functional-only"]], ids=["simulated", "functional"])
@pytest.mark.parametrize("case", ["1e308", "1e200", *(f"{name}-{layout}" for name in DENSE_OVERFLOWS
                                                      for layout in ("whole", "split"))])
def test_overflowing_t_exits_2_with_one_line(monkeypatch, tmp_path, capsys, case, mode):
    # tfim-3's t H overflows at t = 1e308, before the chain starts; at 1e200
    # T_1 turns the chain dense and T_2's product overflows.  The other cases
    # overflow a later product or U's sum, on a whole H and on a split one.
    # Either way DiagMatrix names the non-finite diagonal and numpy stays quiet
    out = tmp_path / "r.json"
    if case in ("1e308", "1e200"):
        source, t, iters = ["--model", "tfim", "--qubits", "3"], case, "3"
    else:
        name, layout = case.rsplit("-", 1)
        grid, t = DENSE_OVERFLOWS[name]
        path = str(tmp_path / "h.diaq")
        save_matrix(split_h(monkeypatch, grid, layout)[0], path)
        source, t, iters = ["--h-file", path], repr(t), "6"
    dense, real = [], hamsim._dense_product
    monkeypatch.setattr(hamsim, "_dense_product", lambda *args: dense.append(1) or real(*args))
    argv = ["expm", *source, "--t", t, "--iters", iters, "--out", str(out), *mode]
    before = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv) == cli.DATA_EXIT
    assert np.geterr() == before  # library calls keep numpy's defaults
    assert bool(dense) == (case != "1e308")
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: diagonal ") and captured.err.count("\n") == 1
    assert captured.err.endswith(" contains non-finite values\n") and not out.exists()


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


def test_huge_segments_exit_2_with_one_line_at_once(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["expm", "--model", "tfim", "--qubits", "3", "--functional-only",
            "--segments", str(2**62)]
    start = time.perf_counter()
    assert cli.main(argv) == cli.DATA_EXIT
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err == f"error: --segments must be at most {hamsim.SEGMENT_CAP}, got {2**62}\n"
    assert list(tmp_path.iterdir()) == []


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
    "bool-dim.json": b'{"n": true, "diags": [{"offset": 0, "values": [[1, 0]]}]}',
    "bool-offset.json": b'{"n": 1, "diags": [{"offset": false, "values": [[1, 0]]}]}',
    "bool-values.json": b'{"n": 2, "diags": [{"offset": 0, "values": [[true, false], [1, 0]]}]}',
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


@pytest.mark.parametrize("mode", [[], ["--functional-only"]], ids=["simulated", "functional"])
@pytest.mark.parametrize("segments", [2, 3])
@pytest.mark.parametrize("model, qubits", SEGMENT_CASES)
def test_segments_give_the_power_of_one_short_chain(tmp_path, model, qubits, segments, mode):
    t = 1.5

    def run(name, t, segments):
        out, u_out = tmp_path / f"{name}.json", tmp_path / f"{name}.diaq"
        assert cli.main(["expm", "--model", model, "--qubits", str(qubits), "--t", repr(t),
                         "--segments", str(segments), "--out", str(out), "--u-out", str(u_out),
                         *mode]) == 0
        return load_matrix(str(u_out)), json.loads(out.read_text())

    u, report = run("whole", t, segments)
    step, _ = run("step", t / segments, 1)
    h = gen_benchmark(model, qubits)
    check_segmented_u(u, step, h, t, segments)
    _, chain = taylor_expm(h, TaylorConfig(t=t / segments, eps=DEFAULT_EPS))
    iterations = report["iterations"]
    assert report["segments"] == segments
    assert report["taylor_terms"] == len(iterations) == len(chain)
    # the outer power is uncharged: the totals are the one chain's
    for key, total in report["cycles"].items():
        assert total == sum(it["cycles"][key] for it in iterations)
    mem = {key: sum(it["mem"][key] for it in iterations) for key in iterations[0]["mem"]}
    events = report["events"]
    assert (events["cache_hits"], events["cache_misses"], events["dram_reads"],
            events["dram_writes"], report["mem_stall_cycles"]) == (
        mem["hits"], mem["misses"], mem["dram_reads"], mem["dram_writes"], mem["stall_cycles"])
    assert (events["multiplies"] > 0) == (not mode)


def test_outputs_take_the_mode_the_umask_gives(tmp_path):
    old = os.umask(0o022)
    try:
        for umask, mode in ((0o022, 0o644), (0o077, 0o600)):
            os.umask(umask)
            out = tmp_path / f"{umask:03o}"
            out.mkdir()
            h = str(out / "h.diaq")
            assert cli.main(["gen", "tfim", "3", "--out", h]) == 0
            assert cli.main(["expm", "--h-file", h, "--functional-only", "--out",
                             str(out / "r.json"), "--u-out", str(out / "u.diaq"),
                             "--csv", str(out / "r.csv")]) == 0
            modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in out.iterdir()}
            assert modes == dict.fromkeys(["h.diaq", "r.json", "u.diaq", "r.csv"], mode)
    finally:
        os.umask(old)
