import json

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
