"""WorkspaceArena: reservation, reuse, limits, coalescing."""

import pytest

from repro.common.errors import WorkspaceError, WorkspaceLimitError
from repro.runtime import ALIGNMENT, WorkspaceArena


def test_sequential_reserve_release_reuses_offset():
    arena = WorkspaceArena()
    a = arena.reserve(4096)
    a.release()
    b = arena.reserve(2048)
    stats = arena.stats()
    assert stats.reuses == 1
    assert stats.peak_bytes == 4096
    b.release()
    assert arena.stats().in_use_bytes == 0


def test_growing_sizes_still_count_as_reuse():
    # The session pattern: each layer needs more than the last.  The
    # arena grows, but the low bytes are reused every time.
    arena = WorkspaceArena()
    sizes = [1 << 18, 1 << 20, 1 << 22, 1 << 24]
    for size in sizes:
        block = arena.reserve(size)
        block.release()
    stats = arena.stats()
    assert stats.reserves == len(sizes)
    assert stats.reuses == len(sizes) - 1
    assert stats.peak_bytes == sizes[-1]


def test_reserve_capacity_not_counted_as_grow():
    arena = WorkspaceArena()
    arena.reserve_capacity(1 << 24)
    block = arena.reserve(1 << 24)
    assert arena.stats().grows == 0
    block.release()


def test_arena_models_capacity_without_host_bytes():
    # The arena is an offset model: pre-sizing and using a 64 MiB
    # workspace must not allocate it on the host.
    import tracemalloc

    tracemalloc.start()
    try:
        arena = WorkspaceArena()
        arena.reserve_capacity(64 << 20)
        arena.reserve(64 << 20).release()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    stats = arena.stats()
    assert stats.capacity_bytes == stats.peak_bytes == 64 << 20
    assert stats.grows == 0


def test_limit_enforced():
    arena = WorkspaceArena(limit_bytes=4096)
    block = arena.reserve(2048)
    with pytest.raises(WorkspaceLimitError):
        arena.reserve(4096)
    block.release()
    arena.reserve(4096).release()  # fits once the first block is gone


def test_concurrent_blocks_get_disjoint_offsets():
    arena = WorkspaceArena()
    a = arena.reserve(1000)
    b = arena.reserve(1000)
    assert a.offset != b.offset
    assert abs(a.offset - b.offset) >= 1000
    assert a.nbytes == b.nbytes == 1024  # aligned up
    assert arena.stats().in_use_bytes == 2048
    a.release()
    b.release()
    assert arena.stats().releases == 2


def test_free_blocks_coalesce():
    arena = WorkspaceArena()
    blocks = [arena.reserve(ALIGNMENT) for _ in range(3)]
    for block in blocks:
        block.release()
    # All three coalesced back into the bump region: a reservation the
    # size of the sum fits without growing.
    before = arena.stats().grows
    arena.reserve(3 * ALIGNMENT).release()
    assert arena.stats().grows == before


def test_zero_byte_reservation_is_noop():
    arena = WorkspaceArena()
    block = arena.reserve(0)
    assert block.nbytes == 0
    block.release()
    stats = arena.stats()
    assert stats.peak_bytes == 0
    assert stats.reuses == 0


def test_double_release_raises():
    arena = WorkspaceArena()
    block = arena.reserve(256)
    block.release()
    with pytest.raises(WorkspaceError):
        block.release()


def test_context_manager_releases():
    arena = WorkspaceArena()
    with arena.reserve(512) as block:
        assert block.nbytes == 512 and not block.released
        assert arena.stats().in_use_bytes == 512
    assert block.released
    stats = arena.stats()
    assert stats.in_use_bytes == 0 and stats.releases == 1


def test_reset_clears_counters_and_frees():
    arena = WorkspaceArena()
    arena.reserve(1024)  # deliberately leaked
    arena.reset()
    stats = arena.stats()
    assert stats.in_use_bytes == 0
    assert stats.reserves == 0
    assert stats.peak_bytes == 0


def test_concurrent_reserve_release_counters_stay_consistent():
    # Many threads hammer reserve/release under a hard budget: the limit
    # must never be exceeded (threads that lose the race see
    # WorkspaceLimitError and retry), counters must balance when the dust
    # settles, and no two live blocks may overlap.
    import threading

    block_bytes = 4 * ALIGNMENT
    slots = 8  # budget admits at most 8 concurrent blocks
    arena = WorkspaceArena(limit_bytes=slots * block_bytes)
    threads_n, iterations = 16, 200
    granted = [0] * threads_n
    denied = [0] * threads_n
    overlap_errors = []
    live_lock = threading.Lock()
    live: dict[int, tuple[int, int]] = {}  # id(block) -> (offset, end)

    def worker(tid: int) -> None:
        for _ in range(iterations):
            try:
                block = arena.reserve(block_bytes, tag=f"t{tid}")
            except WorkspaceLimitError:
                denied[tid] += 1
                continue
            granted[tid] += 1
            span = (block.offset, block.offset + block.nbytes)
            with live_lock:
                for other in live.values():
                    if span[0] < other[1] and other[0] < span[1]:
                        overlap_errors.append((span, other))
                live[id(block)] = span
            stats = arena.stats()
            assert stats.in_use_bytes <= slots * block_bytes
            with live_lock:
                del live[id(block)]
            block.release()

    threads = [threading.Thread(target=worker, args=(t,))
               for t in range(threads_n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    assert not overlap_errors
    stats = arena.stats()
    assert stats.reserves == sum(granted)
    assert stats.releases == sum(granted)
    assert stats.in_use_bytes == 0
    assert 0 < stats.peak_bytes <= slots * block_bytes
    assert sum(granted) + sum(denied) == threads_n * iterations
