"""Event-count aggregation and the energy proxy.

Energy is a pure linear model over event counters.  Its constants are
assumptions, not measurements: nothing here backs them with a synthesis
run.  The per-cycle cell power is taken as 4.3877 mW at a 700 MHz clock
(-> pJ per cycle), with multiplier and FIFO shares of 1.6354 and 0.7568 mW;
cache and DRAM accesses cost order-of-magnitude SRAM/DRAM figures.  All
constants are configurable (EnergyModel).
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

from .dataflow import StageCycles
from .hamsim import IterationRecord
from .memory import MemStats

DPE_MILLIWATTS = 4.3877
MULTIPLIER_MILLIWATTS = 1.6354
FIFO_MILLIWATTS = 0.7568
CLOCK_MHZ = 700.0


def _pj_per_cycle(milliwatts: float) -> float:
    return milliwatts / CLOCK_MHZ * 1e3


@dataclass(frozen=True)
class EnergyModel:
    """Per-event energies in picojoules."""

    dpe_active_cycle: float = _pj_per_cycle(DPE_MILLIWATTS)
    multiply: float = _pj_per_cycle(MULTIPLIER_MILLIWATTS)
    fifo_rw: float = _pj_per_cycle(FIFO_MILLIWATTS)
    cache_access: float = 10.0
    dram_access: float = 1000.0

    def __post_init__(self):
        if min(self.dpe_active_cycle, self.multiply, self.fifo_rw,
               self.cache_access, self.dram_access) < 0:
            raise ValueError("per-event energies must be nonnegative")


def energy(counters: dict, mem: MemStats, model: EnergyModel = EnergyModel()) -> float:
    """Linear combination of event counters, in picojoules."""
    return (model.dpe_active_cycle * counters.get("active_dpe_cycles", 0)
            + model.multiply * counters.get("multiplies", 0)
            + model.fifo_rw * (counters.get("fifo_reads", 0) + counters.get("fifo_writes", 0))
            + model.cache_access * (mem.hits + mem.misses)
            + model.dram_access * (mem.dram_reads + mem.dram_writes))


def build_report(workload: str, grid_rows: int, grid_cols: int, stage,
                 counters: dict, mem: MemStats, records: list[IterationRecord] | None = None,
                 model: EnergyModel = EnergyModel(), *, segments: int | None = None,
                 taylor_terms: int | None = None, tail_bound: float | None = None) -> dict:
    """Assemble the versioned report document; an expm report also gives the
    series' segments, term count and tail bound."""
    series = {"segments": segments, "taylor_terms": taylor_terms, "tail_bound": tail_bound}
    return {key: value for key, value in series.items() if value is not None} | {
        "schema": 1,
        "workload": workload,
        "grid": {"rows": grid_rows, "cols": grid_cols},
        "cycles": _cycles(stage),
        "events": {
            "multiplies": counters.get("multiplies", 0),
            "fifo_rw": counters.get("fifo_reads", 0) + counters.get("fifo_writes", 0),
            "cache_hits": mem.hits,
            "cache_misses": mem.misses,
            "dram_reads": mem.dram_reads,
            "dram_writes": mem.dram_writes,
        },
        "active_dpes": counters.get("active_dpes", 0),
        "active_dpe_cycles": counters.get("active_dpe_cycles", 0),
        "mem_stall_cycles": mem.stall_cycles,
        "serialized_total_cycles": stage.total + mem.stall_cycles,
        "hit_rate": mem.hit_rate,
        "energy_pj": energy(counters, mem, model),
        "iterations": records_to_json(records) if records else [],
    }


def _cycles(stage) -> dict:
    """The 4-key cycles object of the report and of each iteration."""
    return dict(vars(stage))


def records_to_json(records: list[IterationRecord]) -> list[dict]:
    """The report's one entry per series iteration."""
    return [
        {
            "k": r.k,
            "nnzd": r.nnzd,
            "nnze": r.nnze,
            "storage_scalars": r.storage_scalars,
            "savings": r.savings,
            "cycles": _cycles(r.stage_cycles),
            "mem": {
                "hits": r.mem.hits,
                "misses": r.mem.misses,
                "dram_reads": r.mem.dram_reads,
                "dram_writes": r.mem.dram_writes,
                "stall_cycles": r.mem.stall_cycles,
            },
            "hit_rate": r.mem.hit_rate,
        }
        for r in records
    ]


def report_to_json(report: dict) -> str:
    """json.dumps(report, indent=2, sort_keys=True) and a newline, for
    build_report's reports and the documents json reads back from them.
    json's indented encoder is pure Python, so the iterations, most of an
    expm report, fill one per-record template built at import from
    records_to_json, which alone defines a record's shape; the rest of the
    report goes through json.  repr writes int and float leaves as json
    does, but for nan and the infinities."""
    text = json.dumps(dict(report, iterations=[]), indent=2, sort_keys=True)
    iterations = report["iterations"]
    if iterations:
        leaves = list(map(repr, [r[key] if sub is None else r[key][sub]
                                 for r in iterations for key, sub in _LEAVES]))
        if "n" in "".join(leaves):
            leaves = [_NON_FINITE.get(leaf, leaf) for leaf in leaves]
        width = len(_LEAVES)
        rows = ",\n".join(_TEMPLATE % tuple(leaves[i:i + width])
                           for i in range(0, len(leaves), width))
        text = text.replace('\n  "iterations": []', '\n  "iterations": [\n' + rows + "\n  ]", 1)
    return text + "\n"


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _record_template(record: dict) -> tuple[str, list]:
    """One entry of a report's iterations as json writes it there, each leaf
    %s, and the (key, subkey or None) of each leaf in the template's order."""
    leaves = [(key, sub) for key, value in sorted(record.items())
              for sub in (sorted(value) if type(value) is dict else [None])]
    marked = {key: dict.fromkeys(value, "\0") if type(value) is dict else "\0"
              for key, value in record.items()}
    text = json.dumps(marked, indent=2, sort_keys=True).replace(json.dumps("\0"), "%s")
    return "    " + text.replace("\n", "\n    "), leaves


_TEMPLATE, _LEAVES = _record_template(records_to_json([IterationRecord(
    0, 0, 0, 0, 0.0, StageCycles(0, 0, 0, 0), MemStats(), {})])[0])


def report_to_csv(report: dict) -> str:
    """Flat key,value rows plus one row per iteration."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["key", "value"])
    for section in ("schema", "workload", "active_dpes", "active_dpe_cycles",
                    "mem_stall_cycles", "serialized_total_cycles", "hit_rate",
                    "energy_pj"):
        writer.writerow([section, report[section]])
    for section in ("grid", "cycles", "events"):
        for key, val in sorted(report[section].items()):
            writer.writerow([f"{section}.{key}", val])
    if report["iterations"]:
        writer.writerow([])
        buf.write(iterations_to_csv(report["iterations"]))
    return buf.getvalue()


def iterations_to_csv(iterations: list[dict]) -> str:
    """One row per series iteration, from the report's iteration records."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["k", "nnzd", "nnze", "savings", "cycles_total", "hit_rate"])
    for it in iterations:
        writer.writerow([it["k"], it["nnzd"], it["nnze"], f"{it['savings']:.6f}",
                         it["cycles"]["total"], f"{it['hit_rate']:.6f}"])
    return buf.getvalue()
