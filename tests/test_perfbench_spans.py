"""The benchmark tracer still finds every program name it wraps.

perfbench/tracer.py patches diagsim functions by module and attribute name
and reads run_job's result.  Its own tests are not part of this suite, so
this loads the file read-only and checks both against the current code.
"""

import importlib
import importlib.util
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

from diagsim import gen_benchmark
from diagsim.blocking import whole_segments
from diagsim.dataflow import run_job

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves():
    spans = load_tracer().SPANS
    assert spans
    for name, module, attr, *_ in spans:
        target = importlib.import_module(module)
        for part in attr.split("."):
            assert hasattr(target, part), f"span {name}: {module}.{attr} is gone"
            target = getattr(target, part)
        assert callable(target), name


def test_run_job_result_feeds_the_counters():
    tracer = load_tracer()
    h = gen_benchmark("tfim", 4)
    result = run_job(whole_segments(h), whole_segments(h))
    assert isinstance(result.stage.total, int)
    for key in ("multiplies", "fifo_reads", "fifo_writes", "active_dpe_cycles"):
        assert key in result.counters
    counts = SimpleNamespace(counts=defaultdict(float))
    tracer._count_run_job(counts, (), {}, result, None)
    assert counts.counts["dataflow.cycles"] == result.stage.total
    assert counts.counts["dataflow.multiplies"] == result.counters["multiplies"] > 0
