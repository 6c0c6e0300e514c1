"""ExecutionContext: isolation, activation, reset, tracing, delegation."""

import json

import numpy as np
import pytest

from repro.common import ConvProblem
from repro.common.cache import CacheStats, LRUCache
from repro.convolution import conv2d
from repro.kernels import SimCacheStats, measure_main_loop
from repro.runtime import (
    ExecutionContext,
    InferenceSession,
    PreparedFilterCache,
    PreparedFilterStats,
    activate,
    current_context,
    default_context,
)


@pytest.fixture
def tiny():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((1, 4, 8, 8), dtype=np.float32)
    f = rng.standard_normal((4, 4, 3, 3), dtype=np.float32)
    return x, f


def test_current_context_defaults_to_process_default():
    assert current_context() is default_context()


def test_activate_stacks_and_restores():
    a, b = ExecutionContext(), ExecutionContext()
    with activate(a):
        assert current_context() is a
        with activate(b):
            assert current_context() is b
        assert current_context() is a
    assert current_context() is default_context()


def test_contexts_isolate_plan_caches_and_stats(tiny):
    x, f = tiny
    a, b = ExecutionContext(), ExecutionContext()
    with activate(a):
        conv2d(x, f, algo="AUTO_HEURISTIC")
    assert len(a.plans) == 1
    assert len(b.plans) == 0
    assert a.dispatch_stats.calls == 1
    assert b.dispatch_stats.calls == 0


def test_explicit_context_kwarg_wins_over_active(tiny):
    x, f = tiny
    active, explicit = ExecutionContext(), ExecutionContext()
    with activate(active):
        conv2d(x, f, algo="AUTO_HEURISTIC", context=explicit)
    assert len(explicit.plans) == 1
    assert len(active.plans) == 0


def test_reset_clears_everything(tiny):
    x, f = tiny
    ctx = ExecutionContext()
    with activate(ctx):
        conv2d(x, f, algo="AUTO_HEURISTIC")
        ctx.arena.reserve(1024).release()
    assert len(ctx.plans) == 1
    assert ctx.dispatch_stats.calls == 1
    assert ctx.arena.stats().reserves == 1
    assert ctx.export_trace()
    ctx.reset()
    assert len(ctx.plans) == 0
    assert ctx.dispatch_stats.calls == 0
    assert ctx.arena.stats().reserves == 0
    assert ctx.export_trace() == []


#: The context's attributes that are not caches; every other attribute
#: must be an LRUCache (the simulation cache: its memory tier).
NOT_CACHES = {
    "device", "schedule_search", "dispatch_stats", "arena",
    "prepared_filters", "tracer",
}
SIM_PROB = ConvProblem(n=32, c=16, h=8, w=8, k=64)


def _caches(ctx):
    return {
        name: value.memory if name == "sim_cache" else value
        for name, value in vars(ctx).items()
        if name not in NOT_CACHES
    }


def test_every_cache_is_an_lru_that_reset_empties(tiny, monkeypatch):
    from repro.sched import (
        ScheduleSearchConfig, ScheduleSpace, SearchBudget, ensure_schedule,
    )

    monkeypatch.delenv("REPRO_SIM_CACHE", raising=False)
    monkeypatch.delenv("REPRO_SIM_CACHE_DIR", raising=False)
    x, f = tiny
    ctx = ExecutionContext(device="V100")
    caches = _caches(ctx)
    assert all(isinstance(cache, LRUCache) for cache in caches.values()), caches
    assert "memory_images" in caches and "lint_gate" in caches

    one = ScheduleSpace(yield_strategies=("natural",), ldg_interleaves=(8,),
                        sts_interleaves=(6,), double_buffers=(2,))
    with activate(ctx):
        conv2d(x, f, algo="AUTO_HEURISTIC")
        measure_main_loop(SIM_PROB, num_blocks=1)
        measure_main_loop(SIM_PROB, num_blocks=1)
        ensure_schedule(config=ScheduleSearchConfig(
            space=one, budget=SearchBudget(max_rungs=1, num_blocks=1),
        ))
    for name, cache in caches.items():
        assert cache.stats().size > 0, name

    ctx.reset()
    for name, cache in caches.items():
        bound = cache.stats().max_entries
        assert cache.stats() == CacheStats(max_entries=bound), name
    assert ctx.sim_cache.stats() == SimCacheStats()


def test_contexts_simulate_on_their_own_memory_images(monkeypatch):
    monkeypatch.setenv("REPRO_SIM_CACHE", "0")  # simulate in both contexts
    a, b = ExecutionContext(), ExecutionContext()
    for ctx in (a, b):
        measure_main_loop(SIM_PROB, num_blocks=1, context=ctx)
    [(key_a, (gmem_a, params_a))] = a.memory_images.items()
    [(key_b, (gmem_b, params_b))] = b.memory_images.items()
    assert key_a == key_b and params_a == params_b
    assert gmem_a is not gmem_b


def test_plan_span_recorded_with_algo(tiny):
    x, f = tiny
    ctx = ExecutionContext()
    conv2d(x, f, algo="AUTO_HEURISTIC", context=ctx)
    spans = [s for s in ctx.export_trace() if s["kind"] == "plan"]
    assert len(spans) == 1
    assert spans[0]["attrs"]["algo"] in (
        "WINOGRAD", "WINOGRAD_NONFUSED", "DIRECT",
    )
    assert spans[0]["seconds"] >= 0


def test_trace_hooks_fire_and_export_is_json(tiny):
    x, f = tiny
    ctx = ExecutionContext()
    seen = []
    ctx.add_trace_hook(lambda span: seen.append(span.kind))
    conv2d(x, f, algo="AUTO_HEURISTIC", context=ctx)
    assert "plan" in seen
    json.dumps(ctx.export_trace())  # must be serializable as-is
    ctx.remove_trace_hook(ctx.tracer._hooks[0])


def test_write_trace(tmp_path, tiny):
    x, f = tiny
    ctx = ExecutionContext()
    conv2d(x, f, algo="AUTO_HEURISTIC", context=ctx)
    path = tmp_path / "trace.json"
    ctx.write_trace(str(path))
    spans = json.loads(path.read_text())
    assert spans and spans[0]["kind"] == "plan"


def test_trace_buffer_bounded():
    ctx = ExecutionContext(trace_spans=4)
    for i in range(10):
        with ctx.span("x", f"s{i}"):
            pass
    assert len(ctx.export_trace()) == 4
    assert ctx.tracer.dropped == 6


def test_legacy_helpers_follow_active_context(tiny):
    x, f = tiny
    from repro.convolution.autotune import get_plan_cache
    from repro.convolution.metrics import get_dispatch_stats
    from repro.kernels.cache import get_kernel_cache_stats

    ctx = ExecutionContext()
    with activate(ctx):
        conv2d(x, f, algo="AUTO_HEURISTIC")
        assert get_dispatch_stats().calls == 1
        assert len(get_plan_cache()) == 1
        assert get_kernel_cache_stats().hits == 0
    assert ctx.dispatch_stats.calls == 1


def test_plan_eviction_counts_on_the_plan_cache(tiny):
    x, f = tiny
    ctx = ExecutionContext()
    ctx.plans = LRUCache(1)
    with activate(ctx):
        conv2d(x, f, algo="AUTO_HEURISTIC")
        ctx.reset()  # keeps the bound, zeroes the counters
        conv2d(x, f, algo="AUTO_HEURISTIC")
        conv2d(x[:, :, :6, :6], f, algo="AUTO_HEURISTIC")  # evicts the first
    stats = ctx.plans.stats()
    assert (stats.evictions, stats.size, stats.max_entries) == (1, 1, 1)


def test_device_default_used_by_auto_heuristic(tiny):
    x, f = tiny
    from repro.gpusim import RTX2070

    ctx = ExecutionContext(device=RTX2070)
    conv2d(x, f, algo="AUTO_HEURISTIC", context=ctx)
    (span,) = [s for s in ctx.export_trace() if s["kind"] == "plan"]
    assert span["attrs"]["device"] == RTX2070.name


def test_prepared_filters_reuse_only_identical_bits():
    cache = PreparedFilterCache()
    calls = []

    def prepare(f):
        calls.append(f)
        return f * 2

    f = np.array([np.nan, -0.0, 1.0], dtype=np.float32)
    first = cache.get("f22", f, prepare)
    assert cache.get("f22", f, prepare) is first
    f[1] = 0.0  # equal as a float, different bits
    cache.get("f22", f, prepare)
    f.view(np.uint32)[0] ^= 1  # another NaN payload
    cache.get("f22", f, prepare)
    cache.get("f44", f, prepare)  # another tile family
    cache.get("f22", f.copy(), prepare)  # equal bits, another array
    assert len(calls) == 5
    stats = cache.stats()
    assert (stats.hits, stats.misses) == (1, 5)
    assert stats.entries == 2  # the copy died with its call


def test_reset_clears_prepared_filters(tiny):
    x, f = tiny
    ctx = ExecutionContext()
    InferenceSession([ConvProblem(n=1, c=4, h=8, w=8, k=4)], mode="WINOGRAD",
                     context=ctx).run([x], [f])
    assert ctx.prepared_filters.stats().entries == 1
    ctx.reset()
    assert ctx.prepared_filters.stats() == PreparedFilterStats()
