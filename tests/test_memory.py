"""The per-access LRU oracle, access by access, and memory.charge_job, which
charges a whole product, and flush_product against it."""

import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from diagsim.memory import CacheConfig, SetAssocCache, charge_job, flush_product

from memory_oracle import PerAccessCache, charge_product_oracle, flush_product_oracle

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


def test_cache_memory_follows_the_lines_not_the_set_count():
    tracemalloc.start()
    try:
        cache = SetAssocCache(CacheConfig(sets=10**6))
        charge_job(cache, ((0, 1, (-3, 0, 5)),), "A", "B", "C")
        flush_product(cache, "C")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def _state(cache):
    """Each set that holds a line, by index: its lines in LRU order with their
    dirty bits; the lines ever seen; the stats.  A counted cache keeps only
    the sets that hold a line and no dirty bits: its C lines are dirty."""
    if isinstance(cache, PerAccessCache):
        sets = {s: list(held.items()) for s, held in enumerate(cache._sets) if held}
        seen = cache._ever_seen
    else:
        sets = {s: [(line, line[0] == "C") for line in held] for s, held in cache._sets.items()}
        seen = {(kind, tag, i) for (kind, tag), ids in cache._ever_seen.items() for i in ids}
    assert all(type(line) is tuple for held in sets.values() for line, _ in held)
    assert all(type(line) is tuple for line in seen)
    return sets, seen, cache.stats


# (A group, B group, ascending output offsets) per job, jobs per product; a
# chain draws its products from up to three patterns, so patterns recur
JOBS = st.tuples(st.integers(0, 5), st.integers(0, 5),
                 st.frozensets(st.integers(-7, 7), max_size=12).map(sorted).map(tuple))
PRODUCTS = st.lists(JOBS, max_size=6).map(tuple)
CHAINS = st.lists(PRODUCTS, min_size=1, max_size=3).flatmap(
    lambda patterns: st.lists(st.sampled_from(patterns), min_size=1, max_size=8))


def _chain(*jobs_per_product):
    return [tuple((a, b, tuple(sorted(offsets))) for a, b, offsets in jobs)
            for jobs in jobs_per_product]


@settings(max_examples=300)
@given(sets=st.integers(1, 4), ways=st.integers(1, 4), warm=PRODUCTS, chain=CHAINS)
@example(sets=2, ways=1, warm=(), chain=_chain([(0, 2, {-2, 0, 1, 4}), (2, 0, {0, 2})]))
@example(sets=1, ways=1, warm=(), chain=_chain([(1, 1, ()), (1, 1, {3})]) * 2)
# A1 evicts C0, dirty, within a set's first `ways` lines
@example(sets=1, ways=2, warm=(), chain=_chain([(0, 1, {0}), (2, 3, ())]))
# a fresh partial within the first `ways` lines, then past them
@example(sets=1, ways=4, warm=(), chain=_chain([(0, 0, {5}), (0, 0, {1, 2, 3, 4})]))
# C0 is written, evicted, and written again: fetched back past the first
# `ways` lines, then within them
@example(sets=1, ways=2, warm=(), chain=_chain([(0, 1, {0}), (2, 3, {0})]))
@example(sets=1, ways=3, warm=(), chain=_chain([(0, 1, {0}), (2, 3, {1}), (4, 5, {0})]))
# A and B fill the only set's ways, so every partial takes the closed form, and
# the second job writes C0 again after it was written back
@example(sets=1, ways=2, warm=(), chain=_chain([(0, 1, {0, 1, 2}), (0, 1, {0, 3})]))
# A and B in one set: B past the first line at ways=1, and no C line in the set
@example(sets=2, ways=1, warm=(), chain=_chain([(0, 2, {1, 3}), (2, 0, ())]) * 2)
@example(sets=2, ways=2, warm=(), chain=_chain([(0, 2, {1}), (4, 4, {-1, 3})]))
# the last product replays the one before it while a dirty C line of another
# tag holds set 1 and another product's A line ages out of set 0
@example(sets=2, ways=2, warm=((0, 0, (1,)),), chain=_chain([(0, 0, {2})]) * 4)
@example(sets=1, ways=4, warm=((0, 0, (1,)),), chain=_chain([(0, 0, {2})]) * 4)
def test_counted_charge_matches_the_per_access_oracle(sets, ways, warm, chain):
    # chained products, as taylor_expm charges them: T{k} is written, then read
    # as A.  The warm-up leaves lines the first product does not own: B lines
    # of another tag, dirty C lines of another tag and A lines tagged with its
    # C tag, which the second product reads
    config = CacheConfig(sets=sets, ways=ways, hit_cycles=1, miss_penalty_cycles=5,
                         dram_cycles=50)
    counted, oracle = SetAssocCache(config), PerAccessCache(config)
    for k, jobs in enumerate([warm, *chain]):
        tags = ("T1", "V", "W") if k == 0 else (f"T{k - 1}", "M", f"T{k}")
        assert (charge_job(counted, jobs, *tags)
                == charge_product_oracle(oracle, jobs, *tags))
        assert _state(counted) == _state(oracle)
        if k:
            assert flush_product(counted, tags[2]) == flush_product_oracle(oracle, tags[2])
            assert _state(counted) == _state(oracle)


@settings(max_examples=100)
@given(ways=st.integers(1, 4), warm=PRODUCTS, chain=CHAINS)
def test_a_huge_set_count_charges_like_one_set_per_id(ways, warm, chain):
    # ids lie in [-7, 7], so under 16 sets and under 10**5 sets two ids share a
    # set exactly when they are equal: the same lines share a set, under other
    # indices
    counted = SetAssocCache(CacheConfig(sets=10**5, ways=ways))
    oracle = PerAccessCache(CacheConfig(sets=16, ways=ways))
    for k, jobs in enumerate([warm, *chain]):
        tags = ("T1", "V", "W") if k == 0 else (f"T{k - 1}", "M", f"T{k}")
        assert (charge_job(counted, jobs, *tags)
                == charge_product_oracle(oracle, jobs, *tags))
        if k:
            assert flush_product(counted, tags[2]) == flush_product_oracle(oracle, tags[2])
        (got, *rest), (want, *want_rest) = _state(counted), _state(oracle)
        assert sorted(got.values()) == sorted(want.values()) and rest == want_rest
