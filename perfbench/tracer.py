"""Spans around the calls into each diagsim module, installed from outside.

The tracer replaces every module attribute through which a public function is
reached (``diagsim.cli.simulate_product`` as well as
``diagsim.hamsim.simulate_product``) with a wrapper that records one span:
name, start, end, parent span and pass id.  Spans stay in memory until the run
ends.  A span's self time is its duration minus the time its child spans
cover.  Counts are taken from arguments and return values at the same
boundaries; work that is costly to count (multiply counts of functional
products) is recorded as operands and counted after the run.
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter, defaultdict


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_run_job(tracer, args, kwargs, result, pre):
    c = tracer.counts
    c["dataflow.cycles"] += result.stage.total
    c["dataflow.multiplies"] += result.counters["multiplies"]
    c["dataflow.fifo_rw"] += result.counters["fifo_reads"] + result.counters["fifo_writes"]
    c["dataflow.active_dpe_cycles"] += result.counters["active_dpe_cycles"]


def _count_matmul(tracer, args, kwargs, result, pre):
    a, b = _arg(args, kwargs, 0, "a"), _arg(args, kwargs, 1, "b")
    tracer.matmul_operands.append((a.offsets, b.offsets, a.dim))


def _count_read(tracer, args, kwargs, result, pre):
    tracer.counts["diagio.bytes_read"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _count_write(tracer, args, kwargs, result, pre):
    tracer.counts["diagio.bytes_written"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


def _cache_snapshot(args, kwargs):
    return _arg(args, kwargs, 0, "cache").stats.snapshot()


def _count_memory(tracer, args, kwargs, result, pre):
    delta = _arg(args, kwargs, 0, "cache").stats.delta(pre)
    c = tracer.counts
    c["memory.hits"] += delta.hits
    c["memory.accesses"] += delta.hits + delta.misses
    c["memory.dram_rw"] += delta.dram_reads + delta.dram_writes
    c["memory.stall_cycles"] += delta.stall_cycles


def _count_plan(tracer, args, kwargs, result, pre):
    tracer.counts["blocking.jobs"] += len(result.jobs)


def _count_terms(tracer, args, kwargs, result, pre):
    tracer.counts["hamsim.terms"] += len(result[1])


# (span name, defining module, attribute or Class.method, count, before-call hook)
SPANS = [
    ("dataflow.run_job", "diagsim.dataflow", "run_job", _count_run_job, None),
    ("spmspm.diag_matmul", "diagsim.spmspm", "diag_matmul", _count_matmul, None),
    ("spmspm.dense_matmul_oracle", "diagsim.spmspm", "dense_matmul_oracle", None, None),
    ("diagmat.validate", "diagsim.diagmat", "DiagMatrix.__post_init__", None, None),
    ("diagmat.add", "diagsim.diagmat", "DiagMatrix.add", None, None),
    ("diagmat.scaled", "diagsim.diagmat", "DiagMatrix.scaled", None, None),
    ("diagmat.drop_zero_diagonals", "diagsim.diagmat", "drop_zero_diagonals", None, None),
    ("diagmat.to_dense", "diagsim.diagmat", "to_dense", None, None),
    ("diagio.load_matrix", "diagsim.diagio", "load_matrix", _count_read, None),
    ("diagio.save_matrix", "diagsim.diagio", "save_matrix", _count_write, None),
    ("diagio.from_dense", "diagsim.diagmat", "from_dense", None, None),
    ("memory.charge_job", "diagsim.memory", "charge_job", _count_memory, _cache_snapshot),
    ("memory.flush_product", "diagsim.memory", "flush_product", _count_memory, _cache_snapshot),
    ("blocking.make_plan", "diagsim.blocking", "make_plan", _count_plan, None),
    ("blocking.merge_outputs", "diagsim.blocking", "merge_outputs", None, None),
    ("hamsim.simulate_product", "diagsim.hamsim", "simulate_product", None, None),
    ("hamsim.taylor_expm", "diagsim.hamsim", "taylor_expm", _count_terms, None),
    ("hamiltonians.gen_benchmark", "diagsim.hamiltonians", "gen_benchmark", None, None),
    ("report.build_report", "diagsim.report", "build_report", None, None),
    ("report.report_to_json", "diagsim.report", "report_to_json", None, None),
] + [(f"cli.{cmd}", "diagsim.cli", cmd, None, None)
     for cmd in ("cmd_gen", "cmd_convert", "cmd_matmul", "cmd_simulate", "cmd_expm")]

# (metric, unit, better) for the counts and ratios derived from them
COUNT_METRICS = [
    ("dataflow.cycles", "cycles", "lower"),
    ("dataflow.multiplies", "count", "lower"),
    ("dataflow.fifo_rw", "count", "lower"),
    ("dataflow.active_dpe_cycles", "cycles", "lower"),
    ("dataflow.host_ns_per_mult", "ns", "lower"),
    ("dataflow.mults_per_active_dpe_cycle", "ratio", "higher"),
    ("spmspm.mults", "count", "lower"),
    ("spmspm.mults_per_s", "1/s", "higher"),
    ("diagio.bytes_read", "B", "lower"),
    ("diagio.bytes_written", "B", "lower"),
    ("memory.accesses", "count", "lower"),
    ("memory.hit_rate", "ratio", "higher"),
    ("memory.dram_rw", "count", "lower"),
    ("memory.stall_cycles", "cycles", "lower"),
    ("blocking.jobs", "count", "lower"),
    ("hamsim.terms", "count", "lower"),
]


def catalog() -> list[tuple[str, str, str]]:
    """Every per-layer metric the traced run reports, as (name, unit, better)."""
    spans = []
    for name, *_ in SPANS:
        spans.append((f"{name}.self_s", "s", "lower"))
        spans.append((f"{name}.calls", "count", "lower"))
    return spans + COUNT_METRICS


def self_times(spans) -> dict[str, list[float]]:
    """Per span name: [self seconds, inclusive seconds, calls].

    ``spans`` holds (name, start, end, parent index, ...) rows, parent -1 for
    a root.  Self time is the duration minus the union of the intervals the
    direct children cover, clipped to the span.
    """
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    totals: dict[str, list[float]] = {}
    for idx, (name, start, end, *_rest) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        row = totals.setdefault(name, [0.0, 0.0, 0])
        row[0] += (end - start) - covered
        row[1] += end - start
        row[2] += 1
    return totals


class Tracer:
    """Installs the span wrappers; collects spans and counts in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.matmul_operands: list[tuple] = []
        self.pass_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, name, fn, count, before):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            pre = before(args, kwargs) if before else None
            idx = len(spans)
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.pass_id]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count:
                count(self, args, kwargs, result, pre)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "diagsim" or key.startswith("diagsim."))]
        for name, module, attr, count, before in SPANS:
            owner = sys.modules[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                sites = [(cls, meth, cls.__dict__[meth])]
            else:
                fn = getattr(owner, attr)
                sites = [(m, key, fn) for m in modules
                         for key, val in list(vars(m).items()) if val is fn]
            wrapper = self._wrap(name, sites[0][2], count, before)
            for target, key, original in sites:
                setattr(target, key, wrapper)
                self._patches.append((target, key, original))

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            setattr(target, key, original)
        self._patches.clear()

    def per_layer(self, passes: int, multiply_count) -> dict[str, float]:
        """Per-pass averages of every catalog metric."""
        totals = self_times(self.spans)
        out: dict[str, float] = {}
        for name, *_ in SPANS:
            self_s, _incl, calls = totals.get(name, (0.0, 0.0, 0))
            out[f"{name}.self_s"] = self_s / passes
            out[f"{name}.calls"] = calls / passes
        c = dict(self.counts)
        mults = sum(n * multiply_count(*operands)
                    for operands, n in Counter(self.matmul_operands).items())
        c["spmspm.mults"] = mults
        for metric, *_ in COUNT_METRICS:  # the ratios among them are replaced below
            out[metric] = c.get(metric, 0) / passes
        job_s = totals.get("dataflow.run_job", (0.0, 0.0, 0))[1]
        mm_s = totals.get("spmspm.diag_matmul", (0.0, 0.0, 0))[1]
        dpe = c.get("dataflow.multiplies", 0)
        out["dataflow.host_ns_per_mult"] = job_s / dpe * 1e9 if dpe else 0.0
        active = c.get("dataflow.active_dpe_cycles", 0)
        out["dataflow.mults_per_active_dpe_cycle"] = dpe / active if active else 0.0
        out["spmspm.mults_per_s"] = mults / mm_s if mm_s else 0.0
        acc = c.get("memory.accesses", 0)
        out["memory.hit_rate"] = c.get("memory.hits", 0) / acc if acc else 0.0
        return out
