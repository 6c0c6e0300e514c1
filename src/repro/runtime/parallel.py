"""Process-pool fan-out for independent, pure computations.

The benchmark harness fans its measurements out through this module
(e.g. its cache prewarm).  Results come back in **deterministic input
order** (a worker finishing early never reorders a result series).

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

Worker functions must live at module top level so they pickle by
reference.  Workers share the parent's on-disk simulation cache (writes
are atomic renames), so anything a worker simulates is also persisted
for future runs.  See ``docs/simulation_performance.md``.
"""

from __future__ import annotations

import multiprocessing
import os
import warnings
from concurrent.futures import ProcessPoolExecutor


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


def parallel_map(fn, items, workers: int | None = None) -> list:
    """``[fn(item) for item in items]`` across a process pool.

    Results are returned in input order (deterministic); falls back to
    in-process serial execution when a pool cannot help (one worker, one
    item, parallelism disabled, or no ``fork`` support).
    """
    items = list(items)
    if workers is None:
        workers = default_workers(len(items))
    if (
        workers <= 1
        or len(items) <= 1
        or "fork" not in multiprocessing.get_all_start_methods()
    ):
        return [fn(item) for item in items]
    ctx = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
        return list(pool.map(fn, items))
