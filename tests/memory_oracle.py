"""The LRU cache access by access, with read/write and per-line dirty bits:
the tests' oracle of memory.charge_job and memory.flush_product.

memory.charge_job replays a product it has met up to a renaming of the tags,
steps only a set's first `ways` lines of a job and counts the rest, with no
dirty bits, since a line is dirty exactly when it is a C line.  This version
charges every job of every product, steps every access, marks a line dirty
when it is written, and flushes through a general keep predicate, as the
model did before it was counted.  Lines are the same (kind, tag, id) tuples,
so the two caches' sets, seen-lines and stats compare directly.
"""

from __future__ import annotations

from diagsim.memory import CacheConfig, MemStats


class PerAccessCache:
    """LRU cache; each set maps its lines to their dirty bits, least-recent first."""

    def __init__(self, config: CacheConfig = CacheConfig()):
        self.config = config
        self._sets: list[dict[tuple, bool]] = [{} for _ in range(config.sets)]
        self._ever_seen: set[tuple] = set()
        self.stats = MemStats()

    def access(self, line: tuple, rw: str = "read") -> int:
        """One cache access; returns its latency in cycles."""
        cfg, stats = self.config, self.stats
        kind, _, group_id = line
        ways = self._sets[group_id % cfg.sets]
        if line in ways:
            ways[line] = ways.pop(line) or rw == "write"  # now the most recent
            stats.hits += 1
            stats.stall_cycles += cfg.hit_cycles
            return cfg.hit_cycles
        # miss; fresh output partials allocate without a DRAM fetch
        fresh_partial = rw == "write" and kind == "C" and line not in self._ever_seen
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


def charge_job_oracle(cache: PerAccessCache, job: tuple, a_tag: str, b_tag: str,
                      c_tag: str) -> MemStats:
    """One job, (A group, B group, output offsets), access by access: read A,
    read B, write each output partial in ascending offset."""
    a_group, b_group, output_offsets = job
    before = cache.stats.snapshot()
    cache.access(("A", a_tag, a_group), "read")
    cache.access(("B", b_tag, b_group), "read")
    for dc in sorted(output_offsets):
        cache.access(("C", c_tag, dc), "write")
    return cache.stats.delta(before)


def charge_product_oracle(cache: PerAccessCache, jobs, a_tag: str, b_tag: str,
                          c_tag: str) -> list[MemStats]:
    """memory.charge_job with no memo: each job of the product in turn."""
    return [charge_job_oracle(cache, job, a_tag, b_tag, c_tag) for job in jobs]


def flush_product_oracle(cache: PerAccessCache, c_tag: str) -> int:
    """flush_product through the general flush: drop and write back the C lines of c_tag."""
    return cache.flush(keep=lambda line: not (line[0] == "C" and line[1] == c_tag))
