"""The per-access LRU oracle, access by access, and memory.charge_job and
flush_product against it."""

from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from diagsim.memory import CacheConfig, SetAssocCache, charge_job, flush_product

from memory_oracle import PerAccessCache, charge_job_oracle, flush_product_oracle

CFG = CacheConfig(sets=1, ways=2, hit_cycles=1, miss_penalty_cycles=5, dram_cycles=50)
MISS = CFG.miss_penalty_cycles + CFG.dram_cycles


def a(group: int) -> tuple:
    return ("A", "T0", group)


def c(offset: int, tag: str = "T1") -> tuple:
    return ("C", tag, offset)


def test_lru_victim_is_least_recently_used():
    cache = PerAccessCache(CFG)
    cache.access(a(0))
    cache.access(a(1))
    assert cache.access(a(0)) == CFG.hit_cycles  # a(1) is now least recent
    cache.access(a(2))                           # evicts a(1)
    assert cache.access(a(0)) == CFG.hit_cycles
    assert cache.access(a(1)) == MISS


def test_clean_eviction_costs_nothing_extra():
    cache = PerAccessCache(CFG)
    for group in range(3):
        assert cache.access(a(group)) == MISS
    assert cache.stats.dram_writes == 0


def test_dirty_eviction_writes_back_once():
    cache = PerAccessCache(CFG)
    cache.access(c(0), "write")
    cache.access(a(0))
    before = cache.stats.snapshot()
    assert cache.access(a(1)) == MISS + CFG.dram_cycles  # evicts the dirty c(0)
    delta = cache.stats.delta(before)
    assert delta.dram_writes == 1
    assert delta.stall_cycles == MISS + CFG.dram_cycles


def test_flush_writes_back_only_dirty_lines_and_honours_keep():
    cache = PerAccessCache(CacheConfig(sets=1, ways=4))
    cache.access(a(0))
    cache.access(c(0, "T1"), "write")
    cache.access(c(1, "T2"), "write")
    before = cache.stats.snapshot()
    written = cache.flush(keep=lambda line: line[1] == "T2")
    assert written == 1
    delta = cache.stats.delta(before)
    assert delta.dram_writes == 1 and delta.stall_cycles == cache.config.dram_cycles
    # a(0) was dropped clean, c(1, T2) was kept and still hits
    assert cache.access(c(1, "T2"), "write") == cache.config.hit_cycles
    assert cache.access(a(0)) > cache.config.hit_cycles
    assert cache.flush() == 1  # only c(1, T2) is dirty now


def test_fresh_output_partial_is_a_hit_without_fetch():
    cache = PerAccessCache(CFG)
    assert cache.access(c(0), "write") == CFG.hit_cycles
    assert (cache.stats.hits, cache.stats.misses, cache.stats.dram_reads) == (1, 0, 0)


def test_write_to_evicted_partial_misses_and_fetches():
    cache = PerAccessCache(CFG)
    cache.access(c(0), "write")
    cache.access(a(0))
    cache.access(a(1))  # evicts c(0), writing it back
    before = cache.stats.snapshot()
    assert cache.access(c(0), "write") == MISS
    delta = cache.stats.delta(before)
    assert (delta.misses, delta.dram_reads, delta.compulsory_misses) == (1, 1, 0)


def test_compulsory_and_repeat_miss_counts():
    cache = PerAccessCache(CFG)
    for group in (0, 1, 2, 0, 1, 2):  # three lines cycling through two ways
        cache.access(a(group))
    assert cache.stats.misses == 6
    assert cache.stats.compulsory_misses == 3
    assert cache.stats.hits == 0 and cache.stats.hit_rate == 0.0


def test_sets_are_chosen_by_group_id():
    cache = PerAccessCache(CacheConfig(sets=2, ways=1))
    cache.access(a(0))
    cache.access(a(1))  # other set: a(0) stays
    assert cache.access(a(0)) == cache.config.hit_cycles
    cache.access(a(2))  # same set as a(0): evicts it
    assert cache.access(a(0)) > cache.config.hit_cycles


@pytest.mark.parametrize("field", ["sets", "ways"])
def test_empty_geometry_rejected(field):
    with pytest.raises(ValueError):
        CacheConfig(**{field: 0})


def _job(a: int, b: int):
    return SimpleNamespace(a_group=SimpleNamespace(group_id=a),
                           b_group=SimpleNamespace(group_id=b))


def _state(cache):
    """Each set's lines in LRU order with their dirty bits, the lines ever seen,
    the stats.  A counted cache keeps no dirty bits: its C lines are dirty."""
    sets = [list(held.items()) if isinstance(held, dict)
            else [(line, line[0] == "C") for line in held] for held in cache._sets]
    assert all(type(line) is tuple for held in sets for line, _ in held)
    assert all(type(line) is tuple for line in cache._ever_seen)
    return sets, cache._ever_seen, cache.stats


# (A group, B group, output offsets) per job, jobs per product, products per chain
JOBS = st.tuples(st.integers(0, 5), st.integers(0, 5),
                 st.frozensets(st.integers(-7, 7), max_size=12))
CHAINS = st.lists(st.lists(JOBS, max_size=6), min_size=1, max_size=5)


@settings(max_examples=300)
@given(sets=st.integers(1, 4), ways=st.integers(1, 4), chain=CHAINS)
@example(sets=2, ways=1, chain=[[(0, 2, frozenset({-2, 0, 1, 4})), (2, 0, frozenset({0, 2}))]])
@example(sets=1, ways=1, chain=[[(1, 1, frozenset()), (1, 1, frozenset({3}))]] * 2)
# A1 evicts C0, dirty, within a set's first `ways` lines
@example(sets=1, ways=2, chain=[[(0, 1, frozenset({0})), (2, 3, frozenset())]])
# a fresh partial within the first `ways` lines, then past them
@example(sets=1, ways=4, chain=[[(0, 0, frozenset({5})), (0, 0, frozenset({1, 2, 3, 4}))]])
# C0 is written, evicted, and written again: fetched back past the first
# `ways` lines, then within them
@example(sets=1, ways=2, chain=[[(0, 1, frozenset({0})), (2, 3, frozenset({0}))]])
@example(sets=1, ways=3, chain=[[(0, 1, frozenset({0})), (2, 3, frozenset({1})),
                                 (4, 5, frozenset({0}))]])
# A and B in one set: B past the first line at ways=1, and no C line in the set
@example(sets=2, ways=1, chain=[[(0, 2, frozenset({1, 3})), (2, 0, frozenset())]] * 2)
@example(sets=2, ways=2, chain=[[(0, 2, frozenset({1})), (4, 4, frozenset({-1, 3}))]])
def test_counted_charge_matches_the_per_access_oracle(sets, ways, chain):
    # chained products, as taylor_expm charges them: T{k} is written, then read as A
    config = CacheConfig(sets=sets, ways=ways, hit_cycles=1, miss_penalty_cycles=5,
                         dram_cycles=50)
    counted, oracle = SetAssocCache(config), PerAccessCache(config)
    for k, jobs in enumerate(chain):
        tags = (f"T{k}", "M", f"T{k + 1}")
        for a, b, offsets in jobs:
            job = _job(a, b)
            assert (charge_job(counted, job, *tags, offsets)
                    == charge_job_oracle(oracle, job, *tags, offsets))
            assert _state(counted) == _state(oracle)
        assert flush_product(counted, tags[2]) == flush_product_oracle(oracle, tags[2])
        assert _state(counted) == _state(oracle)
