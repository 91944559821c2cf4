"""The series' a-posteriori stop: U lies within the tail bound it reports of
scipy.linalg.expm, and the bound's message when TERM_CAP is reached."""

import functools
import json
import math

import numpy as np
import pytest
import scipy.linalg

from diagsim import cli, gen_benchmark, hamsim, to_dense
from diagsim.diagio import load_matrix
from diagsim.hamsim import DEFAULT_EPS, GridSetup, TaylorConfig


@functools.cache
def reference(model: str, qubits: int, t: float) -> np.ndarray:
    """exp(-i t H) of a benchmark H, dense, built once per module."""
    return scipy.linalg.expm(-1j * t * to_dense(gen_benchmark(model, qubits)))


def error_norm(u, model: str, qubits: int, t: float) -> float:
    """sqrt(||E||_1 ||E||_inf) >= ||E||_2, for E = U - exp(-i t H): cheaper than
    the 2-norm at 1024 states, and never below it."""
    err = np.abs(to_dense(u) - reference(model, qubits, t))
    return math.sqrt(err.sum(axis=0).max() * err.sum(axis=1).max())


# two segments at 4 and 6 qubits and at 8 for t = 1; at 10, one segment
# (the outer power of a 1024-state U takes seconds)
CASES = [(model, qubits, t, segments) for model in ("heisenberg", "tfim", "maxcut")
         for qubits in (4, 6, 8) for t in (-0.3, 0.5, 1.0) for segments in (1, 2)
         if qubits < 8 or segments == 1 or t == 1.0]
CASES += [("maxcut", 10, 0.5, 1), ("heisenberg", 10, 1.0, 1)]


@pytest.mark.parametrize("simulated", [False, True], ids=["functional", "simulated"])
@pytest.mark.parametrize("model, qubits, t, segments", CASES)
def test_u_lies_within_the_reported_bound(model, qubits, t, segments, simulated):
    h = gen_benchmark(model, qubits)
    u, records, *_, bound = hamsim.expm(h, TaylorConfig(t=t, eps=DEFAULT_EPS),
                                        GridSetup() if simulated else None, segments)
    # the chain stops at its first term whose tail bound reaches eps / segments
    eps = DEFAULT_EPS / segments
    assert all(r.tail_bound > eps for r in records[:-1]) and records[-1].tail_bound <= eps
    assert bound <= DEFAULT_EPS * (1 + DEFAULT_EPS)  # (1 + eps / 2)^2 - 1 at most
    assert error_norm(u, model, qubits, t) <= bound + 1e-12


@pytest.mark.parametrize("qubits", [8, 10])
def test_heisenberg_runs_at_the_default_t(tmp_path, qubits):
    # t = 1 by default, with no flags: the simulated chain on the default grid
    out, u_out = tmp_path / "r.json", tmp_path / "u.diaq"
    assert cli.main(["expm", "--model", "heisenberg", "--qubits", str(qubits),
                     "--out", str(out), "--u-out", str(u_out)]) == 0
    report = json.loads(out.read_text())
    assert report["tail_bound"] <= DEFAULT_EPS
    assert report["taylor_terms"] == {8: 52, 10: 62}[qubits]
    assert error_norm(load_matrix(str(u_out)), "heisenberg", qubits, 1.0) <= (
        report["tail_bound"] + 1e-12)


@pytest.mark.parametrize("t, terms, want", [(0.5, 9, 3.440988756613757), (3.0, 2, math.inf)],
                         ids=["above-eps", "r-at-least-1"])
def test_fixed_term_count_reports_its_last_terms_bound(tmp_path, t, terms, want):
    # --iters is not stopped by the bound, which may exceed eps or be
    # Infinity when ||M||_1 / (K + 1) >= 1
    out = tmp_path / "r.json"
    assert cli.main(["expm", "--model", "heisenberg", "--qubits", "5", "--t", repr(t),
                     "--iters", str(terms), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["taylor_terms"] == terms and report["tail_bound"] == want
    assert ('"tail_bound": Infinity' in out.read_text()) == math.isinf(want)


def test_term_cap_names_the_bound_and_suggests_segments(tmp_path, capsys):
    argv = ["expm", "--model", "tfim", "--qubits", "8", "--t", "2", "--functional-only"]
    assert cli.main(argv) == cli.DATA_EXIT
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("error: the series tail bound is still 4.54e-06 after "
                                   f"{hamsim.TERM_CAP} terms, above eps=1e-08")
    assert "--segments" in captured.err
    assert cli.main([*argv, "--segments", "2", "--out", str(tmp_path / "r.json")]) == 0
