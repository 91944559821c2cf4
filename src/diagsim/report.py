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


def energy(counters: dict, mem: MemStats | None = None,
           model: EnergyModel = EnergyModel()) -> float:
    """Linear combination of event counters, in picojoules."""
    pj = (model.dpe_active_cycle * counters.get("active_dpe_cycles", 0)
          + model.multiply * counters.get("multiplies", 0)
          + model.fifo_rw * (counters.get("fifo_reads", 0) + counters.get("fifo_writes", 0)))
    if mem is not None:
        pj += model.cache_access * (mem.hits + mem.misses)
        pj += model.dram_access * (mem.dram_reads + mem.dram_writes)
    return pj


def build_report(workload: str, grid_rows: int, grid_cols: int, stage,
                 counters: dict, mem: MemStats | None = None,
                 records: list[IterationRecord] | None = None,
                 model: EnergyModel = EnergyModel()) -> dict:
    """Assemble the versioned report document."""
    mem = mem or MemStats()
    return {
        "schema": 1,
        "workload": workload,
        "grid": {"rows": grid_rows, "cols": grid_cols},
        "cycles": {
            "preload": stage.preload,
            "compute": stage.compute,
            "popout": stage.popout,
            "total": stage.total,
        },
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


def records_to_json(records: list[IterationRecord]) -> list[dict]:
    """The report's one entry per series iteration."""
    return [
        {
            "k": r.k,
            "nnzd": r.nnzd,
            "nnze": r.nnze,
            "storage_scalars": r.storage_scalars,
            "savings": r.savings,
            "cycles": {
                "preload": r.stage_cycles.preload,
                "compute": r.stage_cycles.compute,
                "popout": r.stage_cycles.popout,
                "total": r.stage_cycles.total,
            },
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
    """Deterministic rendering: identical inputs give identical bytes."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def report_to_csv(report: dict) -> str:
    """Flat key,value rows plus one row per iteration."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["key", "value"])
    for section in ("schema", "workload", "active_dpes", "active_dpe_cycles",
                    "mem_stall_cycles", "serialized_total_cycles", "hit_rate",
                    "energy_pj"):
        writer.writerow([section, report[section]])
    for key, val in sorted(report["grid"].items()):
        writer.writerow([f"grid.{key}", val])
    for key, val in sorted(report["cycles"].items()):
        writer.writerow([f"cycles.{key}", val])
    for key, val in sorted(report["events"].items()):
        writer.writerow([f"events.{key}", val])
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
