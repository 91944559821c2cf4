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
group id or output offset, which picks the set (id mod sets).  The cache
holds only the sets that hold a line, by index, so its memory and time follow
the lines a run touches, not the set count.  The walks that build and apply a
replay go in ascending index, the order of a list of all sets; stepping and
flushing go in any order, as no set's outcome depends on another's.  A and
B lines are only read and C lines only written, and each product's C lines
are flushed before the next, so a line is dirty exactly when it is a C line.

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

from collections import defaultdict
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
    """LRU cache; each set that holds a line lists them least-recent first,
    under its index."""

    def __init__(self, config: CacheConfig = CacheConfig()):
        self.config = config
        self._sets: dict[int, list[tuple]] = {}  # never an empty list
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
    others = [line for _, held in sorted(cache._sets.items()) for line in held
              if line[1] != tags[line[0]]]
    place = {line: (line[0] == "C", i) for i, line in enumerate(others)}
    def renamed():  # own lines as (kind, id), any other line as its placeholder
        return tuple([(s, tuple([place.get(line) or line[::2] for line in held]))
                      for s, held in sorted(cache._sets.items())])
    key = renamed(), tuple(own[kind] & seen[kind] for kind in tags)
    if key not in results:
        before = cache.stats.snapshot()
        deltas = _step_jobs(cache, jobs, tags, seen)
        results[key] = deltas, cache.stats.delta(before), renamed()
        return deltas
    deltas, total, after = results[key]
    cache.stats += total
    cache._sets = {s: [(p[0], tags[p[0]], p[1]) if p[0] in tags else others[p[1]] for p in held]
                   for s, held in after}
    for kind, ids in own.items():
        seen[kind] |= ids
    return deltas


def _step_jobs(cache: SetAssocCache, jobs: tuple, tags: dict, seen: dict) -> list[MemStats]:
    """charge_job job by job; seen maps each kind to the ids charged under
    the product's tag.  A job's lines go to their sets in access order, reads
    first, and each set steps its first max(ways, reads) lines: a line held is
    a hit, a new read a compulsory miss, a new partial a hit with no fetch.
    LRU keeps a set's `ways` most recent distinct lines (Mattson et al., IBM
    Systems Journal 9(2), 1970) and a job's lines are distinct, so each later
    line, a partial, misses or allocates fresh and evicts the line `ways`
    accesses before it: counts, write-backs and held lines follow in closed form."""
    cfg, sets, ways, c_tag = cache.config, cache.config.sets, cache.config.ways, tags["C"]
    seen_c, deltas = seen["C"], []
    for a_group, b_group, offsets in jobs:
        hits = misses = compulsory = dirty = 0  # dirty: C lines evicted, so written back
        a_set, b_set = a_group % sets, b_group % sets
        dealt = defaultdict(list)  # set index -> the job's reads as lines, then its offsets
        dealt[a_set].append(("A", tags["A"], a_group))
        dealt[b_set].append(("B", tags["B"], b_group))
        for dc in offsets:
            dealt[dc % sets].append(dc)
        for s, set_lines in dealt.items():  # sets are independent: any order
            reads = (s == a_set) + (s == b_set)
            stepped = ways if reads <= ways else reads
            held = cache._sets.setdefault(s, [])
            for line in set_lines[:stepped]:
                if type(line) is not tuple:  # a partial, dealt by offset: most never step
                    line = ("C", c_tag, line)
                if line in held:
                    held.remove(line)
                    hits += 1
                else:
                    if len(held) == ways and held.pop(0)[0] == "C":
                        dirty += 1
                    kind, _, i = line
                    if kind == "C" and i not in seen_c:  # a fresh partial: no fetch
                        hits += 1
                        seen_c.add(i)
                    else:  # a miss, compulsory for a read never charged
                        misses += 1
                        compulsory += i not in seen[kind]
                        seen[kind].add(i)
                held.append(line)
            late = set_lines[stepped:]
            if late:
                count = len(seen_c)
                seen_c.update(late)
                fresh = len(seen_c) - count
                hits, misses = hits + fresh, misses + len(late) - fresh
                dirty += max(len(set_lines) - reads - ways, 0)
                held[:] = (held + [("C", c_tag, dc) for dc in late[-ways:]])[-ways:]
        # a hit costs hit_cycles, a miss a penalty and a DRAM read, a write-back a DRAM write
        job = MemStats(hits, misses, compulsory, misses, dirty,
                       hits * cfg.hit_cycles + dirty * cfg.dram_cycles
                       + misses * (cfg.miss_penalty_cycles + cfg.dram_cycles))
        cache.stats += job
        deltas.append(job)
    return deltas


def flush_product(cache: SetAssocCache, c_tag: str) -> int:
    """Write the finished product's partials back to DRAM and drop them, end
    of a full multiply; returns how many.  They re-enter as a fresh epoch."""
    held_before = sum(map(len, cache._sets.values()))
    # a set left without a line is dropped
    cache._sets = {s: kept for s, held in cache._sets.items()
                   if (kept := [line for line in held if line[0] != "C" or line[1] != c_tag])}
    written = held_before - sum(map(len, cache._sets.values()))
    cache.stats.dram_writes += written
    cache.stats.stall_cycles += written * cache.config.dram_cycles
    return written
