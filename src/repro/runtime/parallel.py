"""Process-pool fan-out for independent, pure computations.

The runtime's pipelined :class:`~repro.runtime.session.InferenceSession`
and the benchmark harness share this machinery.  Results come back in
**deterministic input order** (a worker finishing early never reorders a
result series).

Sizing and fallbacks:

* worker count = ``min(REPRO_BENCH_WORKERS or os.cpu_count(), len(items))``;
  a malformed or non-positive ``REPRO_BENCH_WORKERS`` falls back to
  ``os.cpu_count()`` with a :class:`RuntimeWarning` instead of crashing
  the caller (the variable is ambient configuration, not an argument);
* a pool of one worker (e.g. a single-core host), a single item, or
  ``REPRO_BENCH_PARALLEL=0`` short-circuits to plain serial execution in
  the parent process — no pool, no pickling, bit-identical results;
* the pool uses the ``fork`` start method (workers inherit the parent's
  ``sys.path``, imported modules and default :class:`ExecutionContext`);
  on platforms without ``fork`` the fan-out degrades to the serial path
  rather than guessing at spawn semantics.

Slot hooks: ``parallel_map(fn, items, on_start=..., on_done=...)`` calls
``on_start(index, item)`` in the parent immediately before an item is
handed to a worker slot and ``on_done(index)`` when that item's result
is in, with **at most ``workers`` items between the two at any moment**.
That bound is the contract the pipelined session's workspace accounting
is built on: a resource acquired in ``on_start`` (an arena reservation)
is held by at most ``workers`` in-flight items, never by the whole input
list.  Both hooks run in the parent process (``on_done`` possibly on an
executor callback thread — keep it thread-safe and non-blocking).

Worker functions must live at module top level so they pickle by
reference.  Workers share the parent's on-disk simulation cache (writes
are atomic renames), so anything a worker simulates is also persisted
for future runs.  See ``docs/simulation_performance.md``.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import warnings
from concurrent.futures import ProcessPoolExecutor
from typing import Callable


def _parallel_enabled() -> bool:
    return os.environ.get("REPRO_BENCH_PARALLEL", "1").lower() not in (
        "0", "false", "off", "no",
    )


def _workers_from_env() -> int:
    """``REPRO_BENCH_WORKERS`` parsed defensively (>= 1, or cpu_count).

    The variable reaches us from shells, CI matrices and Makefiles, so
    trailing junk (``"auto"``, ``"8x"``) or a nonsensical bound
    (``"0"``, ``"-4"``) must degrade to the cpu-count default with a
    warning, not take down an inference run with a ``ValueError``.
    """
    fallback = os.cpu_count() or 1
    env = os.environ.get("REPRO_BENCH_WORKERS")
    if env is None or not env.strip():
        return fallback
    try:
        workers = int(env.strip())
    except ValueError:
        warnings.warn(
            f"REPRO_BENCH_WORKERS={env!r} is not an integer; "
            f"falling back to os.cpu_count()={fallback}",
            RuntimeWarning,
            stacklevel=3,
        )
        return fallback
    if workers < 1:
        warnings.warn(
            f"REPRO_BENCH_WORKERS={env!r} must be >= 1; "
            f"falling back to os.cpu_count()={fallback}",
            RuntimeWarning,
            stacklevel=3,
        )
        return fallback
    return workers


def default_workers(num_items: int) -> int:
    """Pool size for *num_items* independent tasks (>= 1)."""
    if not _parallel_enabled():
        return 1
    return max(1, min(_workers_from_env(), num_items))


def parallel_map(
    fn,
    items,
    workers: int | None = None,
    *,
    on_start: Callable[[int, object], None] | None = None,
    on_done: Callable[[int], None] | None = None,
) -> list:
    """``[fn(item) for item in items]`` across a process pool.

    Results are returned in input order (deterministic); falls back to
    in-process serial execution when a pool cannot help (one worker, one
    item, parallelism disabled, or no ``fork`` support).

    *on_start(index, item)* / *on_done(index)* bracket each item's stay
    in a worker slot, with at most *workers* items between the calls at
    any time (exactly one on the serial path).  ``on_done`` always runs,
    even when the item's ``fn`` raised; an ``on_start`` that raises
    aborts the map after in-flight items finish (and get their
    ``on_done``).
    """
    items = list(items)
    if workers is None:
        workers = default_workers(len(items))

    def _serial() -> list:
        results = []
        for i, item in enumerate(items):
            if on_start is not None:
                on_start(i, item)
            try:
                results.append(fn(item))
            finally:
                if on_done is not None:
                    on_done(i)
        return results

    if workers <= 1 or len(items) <= 1:
        return _serial()
    if "fork" not in multiprocessing.get_all_start_methods():
        return _serial()
    ctx = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
        if on_start is None and on_done is None:
            return list(pool.map(fn, items))
        # Bounded submission: a semaphore slot is taken before on_start
        # and returned from the future's done-callback, so no more than
        # `workers` items are ever between on_start and on_done.
        slots = threading.Semaphore(workers)
        futures = []

        def _finish(index: int, fut) -> None:
            try:
                if on_done is not None:
                    on_done(index)
            finally:
                slots.release()

        # An on_start that raises propagates out of the `with` block,
        # which joins the pool: in-flight items finish and their
        # done-callbacks fire before the caller sees the exception.
        for i, item in enumerate(items):
            slots.acquire()
            try:
                if on_start is not None:
                    on_start(i, item)
            except BaseException:
                slots.release()
                raise
            fut = pool.submit(fn, item)
            fut.add_done_callback(lambda f, index=i: _finish(index, f))
            futures.append(fut)
        results = [fut.result() for fut in futures]
        # result() can unblock marginally before the done-callback runs;
        # draining every slot proves all on_done hooks have completed,
        # so callers observe fully-released resources on return.
        for _ in range(workers):
            slots.acquire()
        return results
