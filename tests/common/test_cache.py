"""LRUCache: recency order, bounds, the get_or_build race, counters."""

import threading

import pytest

from repro.common.cache import CacheStats, LRUCache


def test_least_recently_used_entry_is_evicted_first():
    cache = LRUCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1  # "a" is now the most recent
    cache.put("c", 3)
    assert cache.items() == [("a", 1), ("c", 3)]
    assert cache.get("b") is None
    cache.put("a", 10)  # a re-put refreshes recency too
    cache.put("d", 4)
    assert cache.items() == [("a", 10), ("d", 4)]
    assert cache.stats().evictions == 2


def test_none_bound_is_unbounded():
    cache = LRUCache(None)
    for i in range(1000):
        cache.put(i, str(i))
    stats = cache.stats()
    assert (stats.size, stats.evictions, stats.max_entries) == (1000, 0, None)
    assert [key for key, _ in cache.items()] == list(range(1000))


@pytest.mark.parametrize("bound", [0, -1])
def test_bound_below_one_is_rejected(bound):
    with pytest.raises(ValueError):
        LRUCache(bound)


def test_get_or_build_race_keeps_the_first_stored_value():
    cache = LRUCache(4)
    building = threading.Event()
    stored = threading.Event()
    got = {}

    def slow_build():
        building.set()
        assert stored.wait(10)
        return "slow"

    def slow_caller():
        got["slow"] = cache.get_or_build("k", slow_build)

    thread = threading.Thread(target=slow_caller)
    thread.start()
    assert building.wait(10)
    # The slow build is under way and has stored nothing: this caller
    # misses too, builds and stores first.
    got["fast"] = cache.get_or_build("k", lambda: "fast")
    stored.set()
    thread.join(10)
    assert got == {"slow": "fast", "fast": "fast"}
    assert cache.items() == [("k", "fast")]
    stats = cache.stats()
    assert (stats.hits, stats.misses, stats.builds, stats.size) == (0, 2, 2, 1)


def test_a_failed_build_stores_nothing():
    cache = LRUCache(4)

    def failing():
        raise RuntimeError("build failed")

    with pytest.raises(RuntimeError):
        cache.get_or_build("k", failing)
    assert cache.get_or_build("k", lambda: 7) == 7
    assert (cache.stats().misses, cache.stats().builds) == (2, 1)


def test_counters_and_clear():
    cache = LRUCache(2)
    assert cache.get_or_build("a", lambda: 1) == 1  # miss + build
    assert cache.get_or_build("a", lambda: 2) == 1  # hit
    assert cache.get("missing") is None  # miss
    cache.put("b", 2)  # a store counts nothing
    cache.put("c", 3)  # evicts "a"
    assert cache.stats() == CacheStats(
        hits=1, misses=2, builds=1, evictions=1, size=2, max_entries=2
    )
    assert cache.stats().hit_rate == pytest.approx(1 / 3)
    cache.clear()
    assert cache.stats() == CacheStats(max_entries=2)
    assert cache.stats().hit_rate == 0.0
    assert cache.items() == []


def test_module_memos_count_hits_after_one_lint_and_one_simulation():
    """The four memos below the runtime are LRUCaches with CacheStats:
    statement parses, program decodes, bank phases and sector classes.
    One differential main-loop measurement (a lint, then two simulations
    of trip-count siblings) hits each of them."""
    from repro.gpusim import V100
    from repro.gpusim.decode import _DECODE_CACHE
    from repro.gpusim.fastsim import _CLASSIFY_MEMO
    from repro.kernels import measure_main_loop
    from repro.kernels.winograd_fused import default_tunables
    from repro.perfmodel.layer_model import _SURROGATE
    from repro.runtime import ExecutionContext
    from repro.sass.hw import _PHASE_MEMO
    from repro.sass.parser import _PARSE_MEMO

    memos = {
        "parse": (_PARSE_MEMO, 65536),
        "decode": (_DECODE_CACHE, 64),
        "phase": (_PHASE_MEMO, 4096),
        "classify": (_CLASSIFY_MEMO, 4096),
    }
    for memo, _bound in memos.values():
        memo.clear()
    measure_main_loop(
        _SURROGATE, V100, default_tunables("f22"), iters=3,
        context=ExecutionContext(device="V100"),
    )
    for name, (memo, bound) in memos.items():
        stats = memo.stats()
        assert isinstance(stats, CacheStats)
        assert stats.hits > 0 and stats.misses > 0, (name, stats)
        assert stats.builds == stats.misses, (name, stats)
        assert 0 < stats.size <= bound == stats.max_entries, (name, stats)
