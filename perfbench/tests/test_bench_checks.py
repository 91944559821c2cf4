"""Every output check passes on the right output and fails on a perturbed one.

The outputs are written in-process, as the CLI would write them, so the test
exercises each workload's real command list and checks without timing runs.
"""

import numpy as np
import pytest
import scipy.linalg

import run
import workloads
from diagsim.diagio import load_matrix, save_matrix
from diagsim.diagmat import DiagMatrix, Diagonal, from_dense, to_dense
from diagsim.spmspm import diag_matmul


def _perturbed(m: DiagMatrix, rel: float | None) -> DiagMatrix:
    """Scale the largest-magnitude entry by 1 + rel, or move its real part one ulp."""
    diags = list(m.diagonals)
    k = max(range(len(diags)), key=lambda i: float(np.max(np.abs(diags[i].values))))
    vals = diags[k].values.copy()
    j = int(np.argmax(np.abs(vals)))
    if rel is None:
        vals[j] = complex(np.nextafter(vals[j].real, np.inf), vals[j].imag)
    else:
        vals[j] *= 1 + rel
    diags[k] = Diagonal(diags[k].offset, vals)
    return DiagMatrix(m.dim, tuple(diags))


def _assert_check_catches(cmd, path, rel, reader=load_matrix, fmt=None):
    assert cmd.check() is None
    good = reader(path)
    save_matrix(_perturbed(good, rel), path, fmt)
    assert cmd.check() is not None
    save_matrix(good, path, fmt)
    assert cmd.check() is None


def _arg_after(argv, flag):
    return argv[argv.index(flag) + 1]


def test_simulate_checks(tmp_path):
    d = str(tmp_path)
    workloads.make_inputs("simulate", 3, d)
    plan = workloads.build("simulate", 3, d)
    assert len(plan.commands) == 5
    for cmd in plan.commands:
        a = load_matrix(cmd.argv[1])
        product = _arg_after(cmd.argv, "--product-out")
        save_matrix(diag_matmul(a, a), product)
        _assert_check_catches(cmd, product, 1e-9)


@pytest.mark.parametrize("workload", ["expm-func", "expm-sim"])
def test_expm_checks(tmp_path, workload):
    d = str(tmp_path)
    workloads.make_inputs(workload, 3, d)
    plan = workloads.build(workload, 3, d)
    for cmd in plan.commands:
        t = float(_arg_after(cmd.argv, "--t"))
        h = to_dense(load_matrix(_arg_after(cmd.argv, "--h-file")))
        u_path = _arg_after(cmd.argv, "--u-out")
        save_matrix(from_dense(scipy.linalg.expm(-1j * t * h)), u_path)
        _assert_check_catches(cmd, u_path, 1e-6)


def test_io_roundtrip_checks(tmp_path):
    d = str(tmp_path)
    workloads.make_inputs("io-roundtrip", 3, d)
    plan = workloads.build("io-roundtrip", 3, d)
    gen, to_json, to_mtx, to_diaq, matmul, prod_json = plan.commands
    h = workloads.hamiltonian("heisenberg", workloads.IO_QUBITS, workloads.draw(3))
    outputs = [gen.argv[gen.argv.index("--out") + 1], to_json.argv[2], to_mtx.argv[2],
               to_diaq.argv[2], matmul.argv[matmul.argv.index("--out") + 1], prod_json.argv[2]]
    for path, m in zip(outputs, [h, h, h, h, diag_matmul(h, h), diag_matmul(h, h)]):
        save_matrix(m, path)
    # bit-exact round trips fail on a one-ulp change
    _assert_check_catches(gen, outputs[0], None)
    _assert_check_catches(to_json, outputs[1], None, reader=workloads.read_diaq_json)
    _assert_check_catches(prod_json, outputs[5], None, reader=workloads.read_diaq_json)
    # tolerance checks fail beyond 1e-12
    _assert_check_catches(to_mtx, outputs[2], 1e-9, reader=workloads.mtx_as_diag, fmt="mtx")
    _assert_check_catches(to_diaq, outputs[3], 1e-9)
    _assert_check_catches(matmul, outputs[4], 1e-9)


def test_missing_output_fails_its_command(tmp_path):
    d = str(tmp_path)
    workloads.make_inputs("expm-sim", 3, d)
    plan = workloads.build("expm-sim", 3, d)
    _raw, _norm, _probe, failures = run.run_pass(plan, lambda argv: 0)
    assert len(failures) == 1 and "unreadable output" in failures[0]


def test_run_pass_counts_exit_codes_exceptions_and_checks():
    def fake_main(argv):
        if argv[0] == "raise":
            raise ValueError("boom")
        if argv[0] == "usage":
            raise SystemExit(1)
        return int(argv[1])

    ok, bad = (lambda: None), (lambda: "wrong output")
    plan = workloads.Plan([
        workloads.Command(["ok", "0"], ok),
        workloads.Command(["exit", "3"], ok),
        workloads.Command(["raise"], ok),
        workloads.Command(["usage"], ok),
        workloads.Command(["checked", "0"], bad),
    ], [])
    raw, norm, probe_s, failures = run.run_pass(plan, fake_main)
    assert raw >= 0 and norm >= 0 and probe_s > 0
    assert len(failures) == 4
    assert "exit 3" in failures[0] and "ValueError" in failures[1]
    assert "exit 1" in failures[2] and "wrong output" in failures[3]


def test_draw_is_seeded_and_in_range():
    a, b = workloads.draw(7), workloads.draw(7)
    assert a == b and a != workloads.draw(8)
    assert all(0.9 <= a[k] <= 1.1 for k in ("j_xy", "j_z", "g"))
