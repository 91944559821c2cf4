"""Pinned modeled figures: any drift in the grid, memory or energy model fails here.

The values were recorded from the per-cycle grid stepper; the closed-form job
model must reproduce them exactly (energy and hit rate are ratios of the same
integer counts, so they are pinned to rounding).
"""

import json

import pytest

from diagsim import gen_benchmark
from diagsim.cli import main
from diagsim.hamsim import GridSetup, simulate_product
from diagsim.memory import SetAssocCache
from diagsim.report import build_report


def figures(report):
    return {
        "cycles": report["cycles"],
        "multiplies": report["events"]["multiplies"],
        "fifo_rw": report["events"]["fifo_rw"],
        "active_dpes": report["active_dpes"],
        "active_dpe_cycles": report["active_dpe_cycles"],
    }


def test_simulate_product_tfim6_cut_grid():
    h = gen_benchmark("tfim", 6)
    grid = GridSetup(rows=8, cols=8, cuts=(24, 40))
    cache = SetAssocCache(grid.cache)
    _, stage, counters, mem = simulate_product(h, h, grid, cache)
    report = build_report("tfim-6", grid.rows, grid.cols, stage, counters, mem)
    assert figures(report) == {
        "cycles": {"preload": 136, "compute": 141, "popout": 115, "total": 392},
        "multiplies": 7894,
        "fifo_rw": 50444,
        "active_dpes": 64,
        "active_dpe_cycles": 9418,
    }
    assert counters["dyn_preload"] == 136
    assert report["hit_rate"] == pytest.approx(0.1832797427652733, rel=1e-15)
    assert report["energy_pj"] == pytest.approx(674123.1791428572, rel=1e-12)


def test_simulated_expm_heisenberg4_fixed_terms(tmp_path):
    out = tmp_path / "report.json"
    assert main(["expm", "--model", "heisenberg", "--qubits", "4", "--t", "0.5",
                 "--iters", "6", "--grid-rows", "8", "--grid-cols", "8",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["taylor_terms"] == 6
    assert figures(report) == {
        "cycles": {"preload": 142, "compute": 98, "popout": 94, "total": 334},
        "multiplies": 5420,
        "fifo_rw": 36600,
        "active_dpes": 56,
        "active_dpe_cycles": 7080,
    }
    assert [it["cycles"]["total"] for it in report["iterations"]] == [23, 29, 57, 59, 83, 83]
    assert report["hit_rate"] == pytest.approx(0.6304347826086957, rel=1e-15)
    assert report["energy_pj"] == pytest.approx(326450.94857142854, rel=1e-12)
