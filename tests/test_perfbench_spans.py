"""The benchmark still loads against the program and finds every name it uses.

perfbench/tracer.py patches diagsim functions by module and attribute name
and reads run_job's result; perfbench/workloads.py imports diagsim names and
passes CLI flags.  Their own tests are not part of this suite, so this loads
both files read-only and checks them against the current code.
"""

import importlib
import importlib.util
import sys
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

from diagsim import cli, gen_benchmark
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
