"""The kernel-build cache and the simulation-result cache."""

import dataclasses

import pytest

from repro.common import ConvProblem
from repro.gpusim import RTX2070
from repro.common.cache import LRUCache
from repro.kernels import (
    Tunables,
    build_fused_kernel,
    get_kernel_cache_stats,
    get_sim_cache_stats,
    measure_main_loop,
)
from repro.kernels.cache import sim_cache_key
from repro.kernels.runner import _problem_image, lint_family_key
from repro.kernels.winograd_fused import WinogradF22Kernel
from repro.runtime import ExecutionContext, activate

PROB = ConvProblem(n=32, c=16, h=8, w=8, k=64, name="cache-test")


@pytest.fixture(autouse=True)
def ctx(monkeypatch):
    """A fresh context, active for the test: empty caches, zero counters."""
    # Disable the simulation-result memo so the build cache is actually
    # exercised (a sim-cache hit would skip the build path entirely).
    monkeypatch.setenv("REPRO_SIM_CACHE", "0")
    with activate(ExecutionContext()) as fresh:
        yield fresh


@pytest.fixture
def _count_builds(monkeypatch):
    """Count actual generator→assembler passes, independent of counters."""
    calls = []
    real_build = WinogradF22Kernel.build

    def counting_build(self, *args, **kwargs):
        calls.append(args)
        return real_build(self, *args, **kwargs)

    monkeypatch.setattr(WinogradF22Kernel, "build", counting_build)
    return calls


# ---------------------------------------------------------------------------
# Kernel build cache
# ---------------------------------------------------------------------------
def test_second_measurement_performs_zero_new_builds(_count_builds):
    first = measure_main_loop(PROB, device=RTX2070, num_blocks=1)
    builds_after_first = len(_count_builds)
    # One assembler pass for the long run; the short differential run is
    # derived from it by patching the trip-count immediate.
    assert builds_after_first == 1

    second = measure_main_loop(PROB, device=RTX2070, num_blocks=1)
    assert len(_count_builds) == builds_after_first  # zero new assembler passes
    assert second == first  # bit-identical measurement

    stats = get_kernel_cache_stats()
    assert stats.builds == 2  # two cache entries built (one full, one derived)
    assert stats.misses == 2
    assert stats.hits == 2
    assert stats.size == 2
    assert stats.hit_rate == 0.5


def test_derived_build_is_bit_identical_to_fresh_assembly(ctx):
    """An iters-sibling derived by patching the trip-count immediate
    (plus its decode, seeded via ``derive_decode``) must match a from-
    scratch assembly byte for byte."""
    build_fused_kernel(
        PROB, Tunables(), RTX2070.name, main_loop_only=True, iters=5
    )
    derived = build_fused_kernel(
        PROB, Tunables(), RTX2070.name, main_loop_only=True, iters=3
    )
    ctx.kernel_cache.clear()
    fresh = build_fused_kernel(
        PROB, Tunables(), RTX2070.name, main_loop_only=True, iters=3
    )
    assert derived is not fresh
    assert derived.text == fresh.text
    assert derived.labels == fresh.labels
    assert [i.text() for i in derived.instructions] == [
        i.text() for i in fresh.instructions
    ]


def test_derived_decode_matches_fresh_decode():
    """The decode seeded for a derived build must equal re-decoding the
    derived program from scratch, field for field."""
    from repro.gpusim.decode import _DECODE_CACHE, decode_program

    build_fused_kernel(
        PROB, Tunables(), RTX2070.name, main_loop_only=True, iters=5
    )
    derived = build_fused_kernel(
        PROB, Tunables(), RTX2070.name, main_loop_only=True, iters=3
    )
    seeded = _DECODE_CACHE.get(id(derived.instructions))[1]
    _DECODE_CACHE.clear()
    fresh = decode_program(derived.instructions)
    assert seeded.n == fresh.n
    for field in (
        "stall", "yield_flag", "write_bar", "read_bar", "wait_mask",
        "pipe", "base_cycles", "base_lat", "kind", "name", "cclass",
        "is_mem", "participating", "conflict_cleared", "reuse_map",
        "_src_regs",
    ):
        assert list(getattr(seeded, field)) == list(getattr(fresh, field)), field


def test_distinct_tunables_are_distinct_entries():
    a = build_fused_kernel(PROB, Tunables(), RTX2070.name)
    b = build_fused_kernel(PROB, Tunables(ldg_interleave=4), RTX2070.name)
    assert a is not b
    stats = get_kernel_cache_stats()
    assert stats.misses == 2 and stats.hits == 0

    # ...but the *same* Tunables spelled differently is the same entry
    # (ldg_interleave=8 is the default), and a hit returns the identical
    # assembled object.
    c = build_fused_kernel(PROB, Tunables(ldg_interleave=8), RTX2070.name)
    assert c is a
    assert get_kernel_cache_stats().hits == 1


def test_device_names_share_one_build():
    # The generator reads no device, so neither does the build identity:
    # an alias, its resolved name and another device all hit one entry.
    kernels = [
        build_fused_kernel(PROB, Tunables(), name)
        for name in ("RTX2070", RTX2070.name, "V100")
    ]
    assert kernels[1] is kernels[0] and kernels[2] is kernels[0]
    assert get_kernel_cache_stats().builds == 1


def test_problem_label_is_no_part_of_any_identity(monkeypatch, ctx):
    # A problem's name only labels spans and reports.  The same shape,
    # named and unnamed, shares one build, one lint verdict, one memory
    # image and one set of simulation results.
    unnamed = dataclasses.replace(PROB, name="")
    built = build_fused_kernel(PROB, Tunables(), RTX2070.name)
    assert build_fused_kernel(unnamed, Tunables(), RTX2070.name) is built
    assert get_kernel_cache_stats().builds == 1
    assert lint_family_key(unnamed, Tunables()) == lint_family_key(PROB, Tunables())
    assert _problem_image(unnamed) is _problem_image(PROB)

    monkeypatch.setenv("REPRO_SIM_CACHE", "1")
    monkeypatch.delenv("REPRO_SIM_CACHE_DIR", raising=False)
    ctx.kernel_cache.clear()
    named_run = measure_main_loop(PROB, device=RTX2070, num_blocks=1)
    assert measure_main_loop(unnamed, device=RTX2070, num_blocks=1) == named_run
    sim = get_sim_cache_stats()
    assert (sim.misses, sim.hits) == (2, 2)
    assert get_kernel_cache_stats().builds == 2  # the long run + its derived sibling


def test_measure_main_loop_defaults_to_the_context_device():
    # The context's device is the default for simulation, as it is for
    # run_fused_sass_conv: no V100 figure inside an RTX2070 context.
    with activate(ExecutionContext(device="RTX2070")):
        implicit = measure_main_loop(PROB, num_blocks=1)
    explicit = measure_main_loop(PROB, device=RTX2070, num_blocks=1)
    assert implicit.tflops == explicit.tflops


def test_eviction_under_size_limit():
    with activate(ExecutionContext(kernel_cache_entries=1)):
        build_fused_kernel(PROB, Tunables(), RTX2070.name)
        build_fused_kernel(PROB, Tunables(sts_interleave=2), RTX2070.name)
        stats = get_kernel_cache_stats()
        assert stats.size == 1
        assert stats.evictions == 1
        # The first kernel was evicted: asking again rebuilds.
        build_fused_kernel(PROB, Tunables(), RTX2070.name)
        assert get_kernel_cache_stats().misses == 3


def test_limit_validation():
    with pytest.raises(ValueError):
        LRUCache(0)
    with pytest.raises(ValueError):
        ExecutionContext(kernel_cache_entries=0)
    # None is the default bound, not an unbounded cache.
    assert ExecutionContext(kernel_cache_entries=None).kernel_cache.stats().max_entries == 64


# ---------------------------------------------------------------------------
# Simulation-result cache
# ---------------------------------------------------------------------------
def test_sim_cache_key_covers_every_field():
    base = sim_cache_key("site", prob=PROB, tunables=Tunables(), iters=3)
    assert base == sim_cache_key("site", prob=PROB, tunables=Tunables(), iters=3)
    assert base != sim_cache_key("site", prob=PROB, tunables=Tunables(), iters=1)
    assert base != sim_cache_key("other", prob=PROB, tunables=Tunables(), iters=3)
    assert base != sim_cache_key(
        "site", prob=PROB, tunables=Tunables(sts_interleave=2), iters=3
    )
    other_prob = dataclasses.replace(PROB, n=PROB.n * 2)
    assert base != sim_cache_key("site", prob=other_prob, tunables=Tunables(), iters=3)


def test_sim_cache_memory_and_disk_tiers(monkeypatch, tmp_path, ctx):
    monkeypatch.setenv("REPRO_SIM_CACHE", "1")
    monkeypatch.setenv("REPRO_SIM_CACHE_DIR", str(tmp_path))

    cold = measure_main_loop(PROB, device=RTX2070, num_blocks=1)
    assert get_sim_cache_stats().stores == 2  # long + short run persisted

    warm = measure_main_loop(PROB, device=RTX2070, num_blocks=1)
    assert get_sim_cache_stats().memory_hits == 2
    assert warm == cold

    # Drop the memory tier: the next run replays from disk, bit-identical.
    ctx.sim_cache.clear()
    replayed = measure_main_loop(PROB, device=RTX2070, num_blocks=1)
    assert get_sim_cache_stats().disk_hits == 2
    assert replayed == cold
    assert any(tmp_path.rglob("*.json"))


def test_sim_cache_corrupt_disk_entry_is_a_miss(monkeypatch, tmp_path, ctx):
    monkeypatch.setenv("REPRO_SIM_CACHE", "1")
    monkeypatch.setenv("REPRO_SIM_CACHE_DIR", str(tmp_path))
    cold = measure_main_loop(PROB, device=RTX2070, num_blocks=1)
    for path in tmp_path.rglob("*.json"):
        path.write_text("not json{")
    ctx.sim_cache.clear()
    recomputed = measure_main_loop(PROB, device=RTX2070, num_blocks=1)
    assert recomputed == cold


def test_sim_cache_clear_between_miss_and_disk_hit(monkeypatch, ctx):
    # A clear() that lands after a lookup's memory miss and before its
    # disk read leaves the counters consistent: one disk hit, no miss.
    monkeypatch.setenv("REPRO_SIM_CACHE", "1")
    cache = ctx.sim_cache

    def disk_read(key):
        cache.clear()
        return {"cycles": 1}

    monkeypatch.setattr(cache, "_disk_read", disk_read)
    assert cache.get("k") == {"cycles": 1}
    stats = cache.stats()
    assert (stats.memory_hits, stats.disk_hits, stats.misses) == (0, 1, 0)
