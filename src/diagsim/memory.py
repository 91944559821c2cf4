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

A job's lines are distinct (A, B, then one C line per output offset), so it
is charged set by set in closed form (SetAssocCache.charge_set): only the
first `ways` lines of a set can hit, and run through access().  LRU keeps the
`ways` most recent distinct lines of a set (the inclusion property of Mattson
et al., IBM Systems Journal 9(2), 1970), so the set then holds exactly those
lines, and each later line of the job finds the set without it: it misses,
or allocates as a fresh partial, and evicts the line `ways` accesses before it
in that set.  C lines are only ever written and A and B lines only read, so a
line is dirty exactly when it is a C line.  The counts, the write-backs and
the set's final contents (its last `ways` lines) follow without stepping.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
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
        self._ever_seen: set[tuple] = set()  # every line accessed: LineIds, or equal plain tuples
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

    def charge_set(self, reads: list[LineId], c_tag: str, offsets: list[int]) -> None:
        """Read the lines reads, then write the C lines of c_tag at offsets,
        all distinct and of one set: the state and stats of access() on each
        in that order, stepped for the set's first `ways` lines and counted
        past them (module docstring)."""
        cfg, stats, seen = self.config, self.stats, self._ever_seen
        stepped = max(cfg.ways - len(reads), 0)  # C lines within the first `ways`
        for line in reads[:cfg.ways]:
            self.access(line, "read")
        for dc in offsets[:stepped]:
            self.access(LineId("C", c_tag, dc), "write")
        late_reads, late = reads[cfg.ways:], offsets[stepped:]
        late_count = len(late_reads) + len(late)
        if not late_count:
            return
        new_reads = sum(line not in seen for line in late_reads)
        seen.update(late_reads)
        count = len(seen)
        seen.update(zip(repeat("C"), repeat(c_tag), late))
        fresh = len(seen) - count  # fresh partials allocate as hits
        misses = late_count - fresh
        dirty = max(late_count - len(reads), 0)  # C lines among the late_count evicted
        stats.hits += fresh
        stats.misses += misses
        stats.compulsory_misses += new_reads
        stats.dram_reads += misses
        stats.dram_writes += dirty
        stats.stall_cycles += (fresh * cfg.hit_cycles + dirty * cfg.dram_cycles
                               + misses * (cfg.miss_penalty_cycles + cfg.dram_cycles))
        last = reads + [LineId("C", c_tag, dc) for dc in offsets[-cfg.ways:]]
        ways = self._sets[(reads[0].group_id if reads else offsets[0]) % cfg.sets]
        ways.clear()
        ways.update((line, line.kind == "C") for line in last[-cfg.ways:])

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
    line per touched output diagonal at job end, each set's lines in that
    order through SetAssocCache.charge_set.
    """
    before = cache.stats.snapshot()
    sets = cache.config.sets
    reads: list[list[LineId]] = [[] for _ in range(sets)]
    writes: list[list[int]] = [[] for _ in range(sets)]
    for line in (LineId("A", a_tag, job.a_group.group_id),
                 LineId("B", b_tag, job.b_group.group_id)):
        reads[line.group_id % sets].append(line)
    for dc in sorted(output_offsets):
        writes[dc % sets].append(dc)
    for set_reads, set_writes in zip(reads, writes):
        cache.charge_set(set_reads, c_tag, set_writes)
    return cache.stats.delta(before)


def flush_product(cache: SetAssocCache, c_tag: str) -> int:
    """Write the finished product's partials back to DRAM (end of a full
    multiply); they re-enter later as a fresh operand epoch."""
    return cache.flush(keep=lambda line: not (line.kind == "C" and line.tag == c_tag))
