import json

import run
import workloads
from tracer import catalog


def test_benchmark_json_lists_what_the_run_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == (
        catalog() + run.RUN_PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_golden_figures_cover_every_workload():
    golden = json.loads(run.GOLDEN.read_text())
    assert set(golden) == set(workloads.WORKLOADS)
    for entry in golden.values():
        assert run.digest(entry["figures"]) == entry["digest"]
    # the grid model runs on exactly these workloads
    assert {w for w, e in golden.items() if e["figures"]} == {"simulate", "expm-sim"}
