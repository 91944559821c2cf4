"""Pinned modeled figures: any drift in the grid, memory or energy model fails here.

The values were recorded from the per-cycle grid stepper; the closed-form job
model must reproduce them exactly (energy and hit rate are ratios of the same
integer counts, so they are pinned to rounding; the cache and DRAM counts and
stall cycles are pinned exactly).
"""

import json

import pytest

from diagsim import diag_matmul, gen_benchmark
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


def memory_figures(report):
    keys = ("cache_hits", "cache_misses", "dram_reads", "dram_writes")
    return {**{key: report["events"][key] for key in keys},
            "mem_stall_cycles": report["mem_stall_cycles"]}


def test_simulate_product_tfim6_cut_grid():
    h = gen_benchmark("tfim", 6)
    grid = GridSetup(rows=8, cols=8, cuts=(24, 40))
    cache = SetAssocCache(grid.cache)
    stage, counters, mem = simulate_product(h.dim, h.offsets, h.offsets,
                                            diag_matmul(h, h).offsets, grid, cache)
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
    assert memory_figures(report) == {"cache_hits": 57, "cache_misses": 254, "dram_reads": 254,
                                      "dram_writes": 285, "mem_stall_cycles": 28277}


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
    assert memory_figures(report) == {"cache_hits": 116, "cache_misses": 68, "dram_reads": 68,
                                      "dram_writes": 160, "mem_stall_cycles": 11856}
    assert [it["mem"] for it in report["iterations"]] == [
        {"hits": 7, "misses": 2, "dram_reads": 2, "dram_writes": 7, "stall_cycles": 467},
        {"hits": 15, "misses": 2, "dram_reads": 2, "dram_writes": 15, "stall_cycles": 875},
        {"hits": 21, "misses": 12, "dram_reads": 12, "dram_writes": 29, "stall_cycles": 2131},
        {"hits": 23, "misses": 12, "dram_reads": 12, "dram_writes": 31, "stall_cycles": 2233},
        {"hits": 25, "misses": 20, "dram_reads": 20, "dram_writes": 39, "stall_cycles": 3075},
        {"hits": 25, "misses": 20, "dram_reads": 20, "dram_writes": 39, "stall_cycles": 3075},
    ]
