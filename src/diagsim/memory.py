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

A line is a plain (kind, tag, id) tuple: kind 'A' | 'B' | 'C', a matrix tag
(epoch identity, which keeps the lines of chained products distinct) and the
group id or output offset, which picks the set (id mod sets).  A and B lines
are only ever read and C lines only written, and each product's C lines are
flushed before the next product is charged.  So a line is written, and dirty
while the cache holds it, exactly when its kind is 'C', and no set keeps
dirty bits.

A job's lines are distinct (A, B, then one C line per output offset), so
charge_job steps only the first `ways` lines of each set; only they can hit.
LRU keeps the `ways` most recent distinct lines of a set (the inclusion
property of Mattson et al., IBM Systems Journal 9(2), 1970), so the set then
holds exactly those lines, and each later line of the job finds the set
without it: it misses, or allocates as a fresh partial, and evicts the line
`ways` accesses before it in that set.  The counts, the write-backs and the
set's final contents (its last `ways` lines) follow without stepping.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """LRU cache; each set lists its lines least-recent first."""

    def __init__(self, config: CacheConfig = CacheConfig()):
        self.config = config
        self._sets: list[list[tuple]] = [[] for _ in range(config.sets)]
        self._ever_seen: set[tuple] = set()  # every line charged
        self.stats = MemStats()


def charge_job(cache: SetAssocCache, job, a_tag: str, b_tag: str, c_tag: str,
               output_offsets) -> MemStats:
    """Memory traffic of one grid job; returns the stats delta.

    Reads the two operand group lines at job start and writes one partial
    line per touched output diagonal, in ascending offset, at job end: each
    set's lines in that order, the first `ways` stepped and the rest counted
    (module docstring).
    """
    cfg, stats, seen = cache.config, cache.stats, cache._ever_seen
    before = stats.snapshot()
    sets, ways = cfg.sets, cfg.ways
    lines: list[list[tuple]] = [[] for _ in range(sets)]
    for line in (("A", a_tag, job.a_group.group_id), ("B", b_tag, job.b_group.group_id)):
        lines[line[2] % sets].append(line)
    reads = [len(set_lines) for set_lines in lines]
    for dc in sorted(output_offsets):
        lines[dc % sets].append(("C", c_tag, dc))
    for held, set_lines, set_reads in zip(cache._sets, lines, reads):
        for line in set_lines[:ways]:
            latency = cfg.hit_cycles
            if line in held:
                held.remove(line)
                stats.hits += 1
            else:
                if line[0] == "C" and line not in seen:  # a fresh partial: no fetch
                    stats.hits += 1
                else:
                    stats.misses += 1
                    stats.compulsory_misses += line not in seen
                    stats.dram_reads += 1
                    latency = cfg.miss_penalty_cycles + cfg.dram_cycles
                seen.add(line)
                if len(held) == ways and held.pop(0)[0] == "C":  # evicts a dirty line
                    stats.dram_writes += 1
                    latency += cfg.dram_cycles
            held.append(line)
            stats.stall_cycles += latency
        late = set_lines[ways:]
        if not late:
            continue
        new_reads = sum(line not in seen for line in set_lines[ways:set_reads])
        count = len(seen)
        seen.update(late)
        fresh = len(seen) - count - new_reads  # fresh partials allocate as hits
        misses = len(late) - fresh
        dirty = max(len(late) - set_reads, 0)  # C lines among the len(late) evicted
        stats.hits += fresh
        stats.misses += misses
        stats.compulsory_misses += new_reads
        stats.dram_reads += misses
        stats.dram_writes += dirty
        stats.stall_cycles += (fresh * cfg.hit_cycles + dirty * cfg.dram_cycles
                               + misses * (cfg.miss_penalty_cycles + cfg.dram_cycles))
        held[:] = set_lines[-ways:]
    return stats.delta(before)


def flush_product(cache: SetAssocCache, c_tag: str) -> int:
    """Write the finished product's partials back to DRAM and drop them, end
    of a full multiply; returns how many.  They re-enter as a fresh epoch."""
    written = 0
    for held in cache._sets:
        kept = [line for line in held if line[0] != "C" or line[1] != c_tag]
        written += len(held) - len(kept)
        held[:] = kept
    cache.stats.dram_writes += written
    cache.stats.stall_cycles += written * cache.config.dram_cycles
    return written
