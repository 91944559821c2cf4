"""Event-count aggregation and the energy proxy.

Energy is a pure linear model over event counters.  The per-cycle cell
constant is calibrated from synthesized power at the design clock
(4.3877 mW at 700 MHz -> pJ per cycle), with the multiplier and FIFO shares
taken from the same breakdown.  Cache and DRAM access costs have no
synthesis source and default to order-of-magnitude SRAM/DRAM figures; all
constants are configurable.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

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
                 model: EnergyModel = EnergyModel()) -> dict:
    """Assemble the versioned report document."""
    return {
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
    """json.dumps(report, indent=2, sort_keys=True) and a newline: identical
    inputs give identical bytes.  json's indented encoder is pure Python, so
    the iterations list, most of an expm report, fills one per-record
    template (_iterations_json); the rest goes through json."""
    iterations = report["iterations"]
    rendered = _iterations_json(iterations) if iterations else "[]"
    if rendered is None:
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    text = json.dumps(dict(report, iterations=[]), indent=2, sort_keys=True)
    return text.replace('\n  "iterations": []', '\n  "iterations": ' + rendered, 1) + "\n"


_MARK = "\0"  # a leaf of the template's record, which json writes as "\u0000"
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _iterations_json(records) -> str | None:
    """The records as json writes a top-level value at indent=2, from the
    first record's sorted key schema, or None unless every record has that
    schema and only int and float leaves.  Those json writes as repr does,
    but for NaN and the infinities."""
    if type(records) is not list or type(records[0]) is not dict:
        return None
    leaves: list = []
    try:
        schema = _schema(records[0])
        for record in records:
            _flatten(record, schema, leaves)
    except (KeyError, TypeError):
        return None
    if not set(map(type, leaves)) <= {int, float}:
        return None
    text = list(map(repr, leaves))
    if "n" in "".join(text):
        text = [_NON_FINITE.get(leaf, leaf) for leaf in text]
    template = json.dumps(_marked(schema), indent=2, sort_keys=True).replace("%", "%%")
    width = len(text) // len(records)
    if template.count(json.dumps(_MARK)) != width:
        return None
    template = "    " + template.replace(json.dumps(_MARK), "%s").replace("\n", "\n    ")
    rows = (template % tuple(text[i * width:(i + 1) * width]) for i in range(len(records)))
    return "[\n" + ",\n".join(rows) + "\n  ]"


def _schema(record: dict) -> list:
    """(key, the schema of a dict value or None) for each key, sorted."""
    return [(key, _schema(value) if type(value) is dict else None)
            for key, value in sorted(record.items())]


def _flatten(record: dict, schema: list, leaves: list) -> None:
    """Append the record's leaves in schema order; KeyError or TypeError if
    the record does not have the schema."""
    if type(record) is not dict or len(record) != len(schema):
        raise KeyError
    for key, sub in schema:
        if sub is None:
            leaves.append(record[key])
        else:
            _flatten(record[key], sub, leaves)


def _marked(schema: list) -> dict:
    """A record of the schema, each leaf _MARK."""
    return {key: _MARK if sub is None else _marked(sub) for key, sub in schema}


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
