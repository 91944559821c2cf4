"""The report document, its CSV rendering and the ``diagsim report`` command."""

import json

import pytest

from diagsim import cli
from diagsim.dataflow import StageCycles
from diagsim.hamsim import IterationRecord
from diagsim.memory import MemStats
from diagsim.report import EnergyModel, build_report, report_to_csv, report_to_json

STAGE = StageCycles(5, 3, 2, 10)
COUNTERS = {"multiplies": 7, "fifo_reads": 20, "fifo_writes": 20,
            "active_dpe_cycles": 12, "active_dpes": 4, "dyn_preload": 5}
MEM = MemStats(hits=3, misses=1, compulsory_misses=1, dram_reads=1, dram_writes=2,
               stall_cycles=160)
# whole-number per-event energies keep energy_pj exact: 12 + 14 + 20 + 40 + 3000
MODEL = EnergyModel(dpe_active_cycle=1.0, multiply=2.0, fifo_rw=0.5,
                    cache_access=10.0, dram_access=1000.0)


def small_report():
    record = IterationRecord(k=1, nnzd=3, nnze=8, storage_scalars=8, savings=0.5,
                             stage_cycles=STAGE, mem=MEM, counters=COUNTERS)
    return build_report("w", 2, 2, STAGE, COUNTERS, MEM, [record], model=MODEL)


def test_schema_keys():
    report = small_report()
    assert set(report) == {
        "schema", "workload", "grid", "cycles", "events", "active_dpes",
        "active_dpe_cycles", "mem_stall_cycles", "serialized_total_cycles",
        "hit_rate", "energy_pj", "iterations"}
    assert report["schema"] == 1
    assert set(report["cycles"]) == {"preload", "compute", "popout", "total"}
    assert set(report["events"]) == {"multiplies", "fifo_rw", "cache_hits",
                                     "cache_misses", "dram_reads", "dram_writes"}
    assert set(report["iterations"][0]) == {"k", "nnzd", "nnze", "storage_scalars",
                                            "savings", "cycles", "mem", "hit_rate"}
    assert report["energy_pj"] == 3086.0
    assert report["serialized_total_cycles"] == 170


def test_report_to_csv_bytes():
    assert report_to_csv(small_report()) == (
        "key,value\n"
        "schema,1\n"
        "workload,w\n"
        "active_dpes,4\n"
        "active_dpe_cycles,12\n"
        "mem_stall_cycles,160\n"
        "serialized_total_cycles,170\n"
        "hit_rate,0.75\n"
        "energy_pj,3086.0\n"
        "grid.cols,2\n"
        "grid.rows,2\n"
        "cycles.compute,3\n"
        "cycles.popout,2\n"
        "cycles.preload,5\n"
        "cycles.total,10\n"
        "events.cache_hits,3\n"
        "events.cache_misses,1\n"
        "events.dram_reads,1\n"
        "events.dram_writes,2\n"
        "events.fifo_rw,40\n"
        "events.multiplies,7\n"
        "\n"
        "k,nnzd,nnze,savings,cycles_total,hit_rate\n"
        "1,3,8,0.500000,10,0.750000\n")


def test_report_command_round_trip(tmp_path):
    report, iters, csv = tmp_path / "r.json", tmp_path / "it.csv", tmp_path / "r.csv"
    assert cli.main(["expm", "--model", "heisenberg", "--qubits", "3", "--iters", "3",
                     "--grid-rows", "4", "--grid-cols", "4",
                     "--out", str(report), "--csv", str(iters)]) == 0
    assert cli.main(["report", str(report), "--csv", str(csv)]) == 0
    doc = json.loads(report.read_text())
    assert report_to_json(doc) == report.read_text()
    text = csv.read_text()
    assert text == report_to_csv(doc)
    assert text.endswith("\n\n" + iters.read_text())
    assert len(doc["iterations"]) == 3


@pytest.mark.parametrize("doc", [{"schema": 2}, {"schema": "1"}, {}, [1]])
def test_unsupported_schema_exits_2_with_one_line(tmp_path, capsys, doc):
    path = tmp_path / "r.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["report", str(path), "--csv", str(tmp_path / "r.csv")]) == cli.DATA_EXIT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "schema" in err and err.count("\n") == 1
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("doc", [{"schema": 1}, {**small_report(), "grid": [2, 2]},
                                 {**small_report(), "iterations": [1]},
                                 {**small_report(), "iterations": [
                                     {**small_report()["iterations"][0], "savings": "x"}]},
                                 # files that are no JSON document: bytes written as they are
                                 pytest.param(b'{"schema": 1, "workload": "\xff"}',
                                              id="not-utf-8"),
                                 pytest.param(b"garbage", id="not-json"),
                                 pytest.param(b"", id="empty")])
def test_malformed_schema_1_report_exits_2_with_one_line(tmp_path, capsys, doc):
    path = tmp_path / "r.json"
    path.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
    assert cli.main(["report", str(path), "--csv", str(tmp_path / "r.csv")]) == cli.DATA_EXIT
    err = capsys.readouterr().err
    reason = "" if isinstance(doc, bytes) else "malformed report"
    assert err.startswith(f"error: {path}: {reason}") and err.count("\n") == 1
    assert not (tmp_path / "r.csv").exists()
