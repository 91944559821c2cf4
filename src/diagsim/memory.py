"""Two-level memory timing model: set-associative LRU cache over diagonal
block groups, backed by fixed-latency DRAM.

Lines are group-granular with no byte capacity: a line holds one scheduled
diagonal block group (or one output-diagonal partial), whatever its size.
Hits cost 1 cycle; misses add the LRU penalty plus one DRAM access.  Output
partials are write-allocated without a fetch on their first write of an
epoch, become dirty, and are written back to DRAM when evicted or when the
owning product finishes; a later write to an evicted partial must fetch it
back for merging and therefore counts as a miss.

Per job the model charges one read per operand group line and one write per
touched output-diagonal partial line; operand reuse inside the grid is free
by construction (operands are forwarded cell to cell, never re-fetched).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import DomainError


@dataclass(frozen=True)
class CacheConfig:
    sets: int = 2
    ways: int = 2
    hit_cycles: int = 1
    miss_penalty_cycles: int = 5
    dram_cycles: int = 50

    def __post_init__(self):
        if min(self.sets, self.ways) < 1 or min(
                self.hit_cycles, self.miss_penalty_cycles, self.dram_cycles) < 0:
            raise DomainError(f"invalid cache configuration {self}")


class LineId(NamedTuple):
    """kind 'A' | 'B' | 'C', a matrix tag (epoch identity), and the group id.

    The set index is group_id mod sets; the tag keeps lines of different
    matrices distinct across chained products.  A tuple, so the LRU's
    equality tests and the seen-set's hashing run in C.
    """

    kind: str
    tag: str
    group_id: int


@dataclass
class MemStats:
    hits: int = 0
    misses: int = 0
    compulsory_misses: int = 0
    dram_reads: int = 0
    dram_writes: int = 0
    stall_cycles: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def delta(self, earlier: "MemStats") -> "MemStats":
        return MemStats(
            self.hits - earlier.hits,
            self.misses - earlier.misses,
            self.compulsory_misses - earlier.compulsory_misses,
            self.dram_reads - earlier.dram_reads,
            self.dram_writes - earlier.dram_writes,
            self.stall_cycles - earlier.stall_cycles,
        )

    def snapshot(self) -> "MemStats":
        return MemStats(self.hits, self.misses, self.compulsory_misses,
                        self.dram_reads, self.dram_writes, self.stall_cycles)


class SetAssocCache:
    """LRU cache; each set maps its lines to their dirty bits, least-recent first."""

    def __init__(self, config: CacheConfig = CacheConfig()):
        self.config = config
        self._sets: list[dict[LineId, bool]] = [{} for _ in range(config.sets)]
        self._ever_seen: set[LineId] = set()
        self.stats = MemStats()

    def access(self, line: LineId, rw: str = "read") -> int:
        """One cache access; returns its latency in cycles."""
        cfg, stats = self.config, self.stats
        ways = self._sets[line.group_id % cfg.sets]
        if line in ways:
            ways[line] = ways.pop(line) or rw == "write"  # now the most recent
            stats.hits += 1
            stats.stall_cycles += cfg.hit_cycles
            return cfg.hit_cycles
        # miss; fresh output partials allocate without a DRAM fetch
        fresh_partial = rw == "write" and line.kind == "C" and line not in self._ever_seen
        if fresh_partial:
            stats.hits += 1
            latency = cfg.hit_cycles
        else:
            stats.misses += 1
            if line not in self._ever_seen:
                stats.compulsory_misses += 1
            stats.dram_reads += 1
            latency = cfg.miss_penalty_cycles + cfg.dram_cycles
        self._ever_seen.add(line)
        if len(ways) >= cfg.ways:
            if ways.pop(next(iter(ways))):  # the least recent line was dirty
                stats.dram_writes += 1
                latency += cfg.dram_cycles
        ways[line] = rw == "write"
        stats.stall_cycles += latency
        return latency

    def flush(self, keep=None) -> int:
        """Write back and drop dirty lines (all, or those failing keep)."""
        written = 0
        for ways in self._sets:
            for line, dirty in list(ways.items()):
                if keep is not None and keep(line):
                    continue
                if dirty:
                    self.stats.dram_writes += 1
                    self.stats.stall_cycles += self.config.dram_cycles
                    written += 1
                del ways[line]
        return written


def charge_job(cache: SetAssocCache, job, a_tag: str, b_tag: str, c_tag: str,
               output_offsets) -> MemStats:
    """Memory traffic of one grid job; returns the stats delta.

    Reads the two operand group lines at job start and writes one partial
    line per touched output diagonal at job end.
    """
    before = cache.stats.snapshot()
    cache.access(LineId("A", a_tag, job.a_group.group_id), "read")
    cache.access(LineId("B", b_tag, job.b_group.group_id), "read")
    for dc in sorted(output_offsets):
        cache.access(LineId("C", c_tag, dc), "write")
    return cache.stats.delta(before)


def flush_product(cache: SetAssocCache, c_tag: str) -> int:
    """Write the finished product's partials back to DRAM (end of a full
    multiply); they re-enter later as a fresh operand epoch."""
    return cache.flush(keep=lambda line: not (line.kind == "C" and line.tag == c_tag))
