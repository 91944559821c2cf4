"""The benchmark still loads against the program and finds every name it uses.

perfbench/tracer.py patches diagsim functions by module and attribute name,
reads run_job's result and takes the cache's stats delta around the memory
model's calls; perfbench/workloads.py imports diagsim names and
passes CLI flags.  Their own tests are not part of this suite, so this loads
both files read-only and checks them against the current code.
"""

import importlib
import importlib.util
import json
import sys
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

from diagsim import blocking, cli, gen_benchmark, hamsim, memory
from diagsim.dataflow import run_job

from conftest import whole_segments

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while it loads
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves():
    spans = load("tracer").SPANS
    assert spans
    for name, module, attr, *_ in spans:
        target = importlib.import_module(module)
        for part in attr.split("."):
            assert hasattr(target, part), f"span {name}: {module}.{attr} is gone"
            target = getattr(target, part)
        assert callable(target), name


def test_run_job_result_feeds_the_counters():
    tracer = load("tracer")
    h = gen_benchmark("tfim", 4)
    result = run_job(whole_segments(h), whole_segments(h))
    assert isinstance(result.stage.total, int)
    for key in ("multiplies", "fifo_reads", "fifo_writes", "active_dpe_cycles"):
        assert key in result.counters
    counts = SimpleNamespace(counts=defaultdict(float))
    tracer._count_run_job(counts, (), {}, result, None)
    assert counts.counts["dataflow.cycles"] == result.stage.total
    assert counts.counts["dataflow.multiplies"] == result.counters["multiplies"] > 0


def test_workloads_load_and_their_commands_parse(tmp_path):
    workloads = load("workloads")
    parser = cli.build_parser()
    for name in workloads.WORKLOADS:
        workdir = tmp_path / name
        workdir.mkdir()
        workloads.make_inputs(name, 1, str(workdir))
        for command in workloads.build(name, 1, str(workdir)).commands:
            parser.parse_args(command.argv)  # an unknown flag exits 1


def test_the_traced_memory_spans_see_every_charge(tmp_path, monkeypatch):
    # the tracer counts the memory model as the cache's stats delta around
    # charge_job and flush_product, so every charge, a replayed product's
    # included, must happen inside one of them
    tracer = load("tracer")
    counts = SimpleNamespace(counts=defaultdict(float))
    deltas, caches, stepped = [], [], []
    for name in ("charge_job", "flush_product"):
        real = getattr(blocking, name)

        def traced(*args, _real=real, **kwargs):
            pre = tracer._cache_snapshot(args, kwargs)
            result = _real(*args, **kwargs)
            tracer._count_memory(counts, args, kwargs, result, pre)
            deltas.append(args[0].stats.delta(pre))
            caches.append(args[0])
            return result

        monkeypatch.setattr(blocking, name, traced)
    real_step = memory._step_jobs
    monkeypatch.setattr(memory, "_step_jobs", lambda *args: stepped.append(1) or real_step(*args))
    out = tmp_path / "r.json"
    assert cli.main(["expm", "--model", "heisenberg", "--qubits", "6", "--t", "1",
                     "--grid-rows", "16", "--grid-cols", "16", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    (cache,) = {id(cache): cache for cache in caches}.values()
    summed = {key: sum(vars(delta)[key] for delta in deltas) for key in vars(cache.stats)}
    assert summed == vars(cache.stats)
    events = report["events"]
    assert (summed["hits"], summed["misses"], summed["dram_reads"], summed["dram_writes"],
            summed["stall_cycles"]) == (events["cache_hits"], events["cache_misses"],
                                        events["dram_reads"], events["dram_writes"],
                                        report["mem_stall_cycles"])
    assert counts.counts["memory.hits"] == events["cache_hits"]
    assert counts.counts["memory.accesses"] == events["cache_hits"] + events["cache_misses"]
    assert counts.counts["memory.stall_cycles"] == report["mem_stall_cycles"]
    assert 0 < len(stepped) < report["taylor_terms"]  # some products were replayed


def test_the_traced_series_names_see_one_chain_and_the_outer_power(tmp_path, monkeypatch):
    # tracer.py counts hamsim.terms from taylor_expm's result and times the
    # products as spmspm.diag_matmul, so the series driver must call both
    # through hamsim's names: one chain, then segments - 1 outer products
    calls = []
    chain, product = hamsim.taylor_expm, hamsim.diag_matmul

    def counted_chain(*args, **kwargs):
        calls.append("chain")
        result = chain(*args, **kwargs)
        calls.append("end")
        return result

    monkeypatch.setattr(hamsim, "taylor_expm", counted_chain)
    monkeypatch.setattr(hamsim, "diag_matmul", lambda a, b: calls.append("product") or product(a, b))
    assert cli.main(["expm", "--model", "tfim", "--qubits", "4", "--functional-only",
                     "--segments", "3", "--out", str(tmp_path / "r.json")]) == 0
    assert calls.count("chain") == 1
    assert calls[calls.index("end") + 1:] == ["product"] * 2
