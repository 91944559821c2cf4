"""Two-level memory timing model: set-associative LRU cache over diagonal
block groups, backed by fixed-latency DRAM.

A line holds one diagonal block group or one output-diagonal partial, with
no byte capacity.  Hits cost 1 cycle; misses add the LRU penalty plus one
DRAM access.  A job reads one line per operand group (operands are then
forwarded, never re-fetched) and writes one partial per output diagonal it
touches: allocated without a fetch on its first write of an epoch, written
back when evicted or its product ends, and a miss if written once evicted.

A line is a plain (kind, tag, id) tuple: kind 'A' | 'B' | 'C', a matrix tag
(epoch identity, which keeps the lines of chained products distinct) and the
group id or output offset, which picks the set (id mod sets).  A and B lines
are only read and C lines only written, and each product's C lines are
flushed before the next, so a line is dirty exactly when it is a C line.

charge_job takes a whole product, whose jobs touch only its own lines: those
with the product's tag for their kind.  Any other line only ages, keeping
its order in its set until evicted, with a write-back exactly when it is a C
line: its place and C-ness matter, not its tag or id.  Own lines matter also
by whether they were charged before (no compulsory miss, no fresh partial).
So the per-job deltas and the exit state are a function of the key: the
jobs, the entry state with own lines as (kind, id) and other lines as
placeholders (is a C line, place), and the own lines charged before.  A
cache steps each key once and replays it when a chain repeats the product,
as the same jobs object (hamsim._count_product): the memo holds it by id.
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
        return MemStats(*(a - b for a, b in zip(vars(self).values(), vars(earlier).values())))

    def snapshot(self) -> "MemStats":
        return MemStats(**vars(self))

    def __iadd__(self, other: "MemStats") -> "MemStats":
        for name, value in vars(other).items():
            setattr(self, name, getattr(self, name) + value)
        return self


class SetAssocCache:
    """LRU cache; each set lists its lines least-recent first."""

    def __init__(self, config: CacheConfig = CacheConfig()):
        self.config = config
        self._sets: list[list[tuple]] = [[] for _ in range(config.sets)]
        self._ever_seen: dict[tuple, set] = {}  # (kind, tag) -> ids of the lines charged
        self._memo: dict = {}  # charge_job: id(jobs) -> (own ids per kind, {key: result}, jobs)
        self.stats = MemStats()


def charge_job(cache: SetAssocCache, jobs: tuple, a_tag: str, b_tag: str,
               c_tag: str) -> list[MemStats]:
    """Memory traffic of one product's jobs, each (A group, B group, ascending
    output offsets) in schedule order; returns each job's stats delta, which
    the memo keeps and hands to every replay: read them, never change them."""
    tags = {"A": a_tag, "B": b_tag, "C": c_tag}
    if (memo := cache._memo.get(id(jobs))) is None:  # a hash would cost a pass over jobs
        memo = cache._memo[id(jobs)] = {"A": frozenset(a for a, _, _ in jobs),
                                        "B": frozenset(b for _, b, _ in jobs),
                                        "C": frozenset().union(*(o for *_, o in jobs))}, {}, jobs
    own, results, _ = memo
    seen = {kind: cache._ever_seen.setdefault((kind, tag), set()) for kind, tag in tags.items()}
    others = [line for held in cache._sets for line in held if line[1] != tags[line[0]]]
    place = {line: (line[0] == "C", i) for i, line in enumerate(others)}
    def renamed():  # own lines as (kind, id), any other line as its placeholder
        return tuple(tuple(place.get(line) or line[::2] for line in held) for held in cache._sets)
    key = renamed(), tuple(own[kind] & seen[kind] for kind in tags)
    if key not in results:
        before = cache.stats.snapshot()
        deltas = _step_jobs(cache, jobs, tags, seen)
        results[key] = deltas, cache.stats.delta(before), renamed()
        return deltas
    deltas, total, after = results[key]
    cache.stats += total
    cache._sets = [[(p[0], tags[p[0]], p[1]) if p[0] in tags else others[p[1]] for p in held]
                   for held in after]
    for kind, ids in own.items():
        seen[kind] |= ids
    return deltas


def _step_jobs(cache: SetAssocCache, jobs: tuple, tags: dict, seen: dict) -> list[MemStats]:
    """charge_job job by job; seen maps each kind to the ids charged under
    the product's tag.  Reads are stepped, and so are the C lines among a
    set's first `ways`; only they can hit.  LRU keeps the `ways` most recent
    distinct lines of a set (Mattson et al., IBM Systems Journal 9(2), 1970)
    and a job's lines are distinct, so each later C line misses, or allocates
    as a fresh partial, and evicts the line `ways` accesses before it: the
    counts, write-backs and the set's last `ways` lines follow in closed form."""
    cfg, sets, ways, c_tag = cache.config, cache.config.sets, cache.config.ways, tags["C"]
    deltas = []
    for a_group, b_group, offsets in jobs:
        job = MemStats()
        reads, writes = [[] for _ in range(sets)], [[] for _ in range(sets)]
        for line in (("A", tags["A"], a_group), ("B", tags["B"], b_group)):
            reads[line[2] % sets].append(line)
        for dc in offsets:
            writes[dc % sets].append(dc)
        for held, set_reads, set_writes in zip(cache._sets, reads, writes):
            stepped = max(ways - len(set_reads), 0)  # C lines among the first `ways`
            for line in set_reads + [("C", c_tag, dc) for dc in set_writes[:stepped]]:
                kind, _, i = line
                latency = cfg.hit_cycles
                if line in held:
                    held.remove(line)
                    job.hits += 1
                else:
                    if kind == "C" and i not in seen["C"]:  # a fresh partial: no fetch
                        job.hits += 1
                    else:
                        job.misses += 1
                        job.compulsory_misses += i not in seen[kind]
                        job.dram_reads += 1
                        latency = cfg.miss_penalty_cycles + cfg.dram_cycles
                    seen[kind].add(i)
                    if len(held) == ways and held.pop(0)[0] == "C":  # evicts a dirty line
                        job.dram_writes += 1
                        latency += cfg.dram_cycles
                held.append(line)
                job.stall_cycles += latency
            late = set_writes[stepped:]
            if not late:
                continue
            count = len(seen["C"])
            seen["C"].update(late)
            fresh = len(seen["C"]) - count  # fresh partials allocate as hits
            misses, dirty = len(late) - fresh, max(len(set_writes) - ways, 0)  # C lines evicted
            job += MemStats(fresh, misses, 0, misses, dirty,
                            fresh * cfg.hit_cycles + dirty * cfg.dram_cycles
                            + misses * (cfg.miss_penalty_cycles + cfg.dram_cycles))
            held[:] = (set_reads + [("C", c_tag, dc) for dc in set_writes[-ways:]])[-ways:]
        cache.stats += job
        deltas.append(job)
    return deltas


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
