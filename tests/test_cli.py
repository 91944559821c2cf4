import numpy as np

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
