"""The report document, its CSV rendering and the ``diagsim report`` command."""

import json
import math

import pytest
from hypothesis import example, given, settings, strategies as st

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


def record(savings: float) -> IterationRecord:
    return IterationRecord(k=1, nnzd=3, nnze=8, storage_scalars=8, savings=savings,
                           stage_cycles=STAGE, mem=MEM, counters=COUNTERS)


def small_report():
    return build_report("w", 2, 2, STAGE, COUNTERS, MEM, [record(0.5)], model=MODEL)


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


INTS = st.integers(-(2**63), 2**63 - 1)
COUNTS = st.integers(0, 2**63 - 1)
FLOATS = st.one_of(st.floats(), st.sampled_from(
    [0.0, -0.0, 5e-324, -2.5e-310, 1e16, 1e-5, math.nan, math.inf, -math.inf]))


@st.composite
def records(draw):
    """An IterationRecord of any fields; hit_rate is hits / (hits + misses)."""
    return IterationRecord(k=draw(INTS), nnzd=draw(INTS), nnze=draw(INTS),
                           storage_scalars=draw(INTS), savings=draw(FLOATS),
                           stage_cycles=StageCycles(*draw(st.tuples(INTS, INTS, INTS, INTS))),
                           mem=MemStats(*draw(st.tuples(*[COUNTS] * 6))), counters={})


@settings(max_examples=300)
@example([record(math.nan), record(math.inf), record(-math.inf)], math.nan, "w")
@example([record(-math.inf)], math.inf, "w")
@example([record(math.nan)], -math.inf, "w")
@given(st.lists(records(), max_size=5), FLOATS, st.text())
def test_report_renders_as_json_does(records, hit_rate, workload):
    report = build_report(workload, 2, 2, STAGE, COUNTERS, MEM, records)
    report["hit_rate"] = hit_rate
    assert report_to_json(report) == json.dumps(report, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("argv, count", [
    (["heisenberg", "--qubits", "6", "--t", "1", "--grid-rows", "16", "--grid-cols", "16"], 54),
    (["heisenberg", "--qubits", "8", "--t", "0.5", "--functional-only"], 41),
    (["tfim", "--qubits", "8", "--t", "0.5", "--functional-only"], 32)],
    ids=["heisenberg-6-sim", "heisenberg-8-func", "tfim-8-func"])
def test_program_built_reports_render_as_json_does(monkeypatch, capsys, argv, count):
    # the benchmark's expm chains: one simulated, two functional
    reports = []
    monkeypatch.setattr(cli, "report_to_json", lambda r: reports.append(r) or report_to_json(r))
    assert cli.main(["expm", "--model", *argv, "--eps", "1e-8"]) == 0
    (report,) = reports
    assert len(report["iterations"]) == count
    assert capsys.readouterr().out == json.dumps(report, indent=2, sort_keys=True) + "\n"


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
