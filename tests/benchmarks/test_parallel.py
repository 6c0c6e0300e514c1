"""The process-pool fan-out the benchmarks and the pipelined session
share: determinism, sizing, fallbacks."""

import multiprocessing
import os

import pytest

from repro.runtime import parallel

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()


def _square(x):
    return x * x


def test_serial_and_parallel_agree_in_order():
    items = list(range(20))
    serial = parallel.parallel_map(_square, items, workers=1)
    assert serial == [x * x for x in items]
    if HAVE_FORK:
        pooled = parallel.parallel_map(_square, items, workers=2)
        assert pooled == serial  # deterministic input order, not completion order


def test_single_item_runs_in_process():
    assert parallel.parallel_map(_square, [7], workers=8) == [49]


def test_empty_items():
    assert parallel.parallel_map(_square, [], workers=4) == []


def test_default_workers_bounds(monkeypatch):
    monkeypatch.delenv("REPRO_BENCH_WORKERS", raising=False)
    monkeypatch.delenv("REPRO_BENCH_PARALLEL", raising=False)
    cpus = os.cpu_count() or 1
    assert parallel.default_workers(100) == max(1, min(cpus, 100))
    assert parallel.default_workers(1) == 1
    assert parallel.default_workers(0) == 1  # never below one worker


def test_default_workers_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_WORKERS", "3")
    assert parallel.default_workers(100) == 3
    assert parallel.default_workers(2) == 2  # still capped by the item count


@pytest.mark.parametrize("value", ["0", "false", "off", "no"])
def test_parallel_kill_switch(monkeypatch, value):
    monkeypatch.setenv("REPRO_BENCH_PARALLEL", value)
    assert parallel.default_workers(100) == 1
    # parallel_map then takes the serial path (results still correct).
    assert parallel.parallel_map(_square, [1, 2, 3]) == [1, 4, 9]


def test_default_workers_malformed_env_falls_back(monkeypatch):
    # Shell junk in REPRO_BENCH_WORKERS must degrade to cpu_count with a
    # warning, not crash the caller with ValueError (regression).
    monkeypatch.delenv("REPRO_BENCH_PARALLEL", raising=False)
    cpus = os.cpu_count() or 1
    for value in ("auto", "8x", "two", ""):
        monkeypatch.setenv("REPRO_BENCH_WORKERS", value)
        if value.strip():
            with pytest.warns(RuntimeWarning, match="not an integer"):
                assert parallel.default_workers(100) == max(1, min(cpus, 100))
        else:
            assert parallel.default_workers(100) == max(1, min(cpus, 100))


def test_default_workers_tolerates_whitespace(monkeypatch):
    monkeypatch.delenv("REPRO_BENCH_PARALLEL", raising=False)
    monkeypatch.setenv("REPRO_BENCH_WORKERS", " 3 ")
    assert parallel.default_workers(100) == 3


def test_default_workers_nonpositive_env_falls_back(monkeypatch):
    monkeypatch.delenv("REPRO_BENCH_PARALLEL", raising=False)
    cpus = os.cpu_count() or 1
    for value in ("-4", "0"):
        monkeypatch.setenv("REPRO_BENCH_WORKERS", value)
        with pytest.warns(RuntimeWarning, match="must be >= 1"):
            assert parallel.default_workers(100) == max(1, min(cpus, 100))


def test_parallel_map_slot_hooks_bound_concurrency():
    # At most `workers` items may sit between on_start and on_done; the
    # pipelined session's workspace accounting relies on this bound.
    import threading

    live = 0
    peak = 0
    lock = threading.Lock()

    def on_start(i, item):
        nonlocal live, peak
        with lock:
            live += 1
            peak = max(peak, live)

    def on_done(i):
        nonlocal live
        with lock:
            live -= 1

    results = parallel.parallel_map(
        _square, list(range(12)), workers=2,
        on_start=on_start, on_done=on_done,
    )
    assert results == [x * x for x in range(12)]
    assert live == 0  # every on_done ran before parallel_map returned
    assert peak <= 2


def test_parallel_map_slot_hooks_serial_path():
    calls = []
    out = parallel.parallel_map(
        _square, [1, 2, 3], workers=1,
        on_start=lambda i, item: calls.append(("start", i)),
        on_done=lambda i: calls.append(("done", i)),
    )
    assert out == [1, 4, 9]
    assert calls == [("start", 0), ("done", 0), ("start", 1), ("done", 1),
                     ("start", 2), ("done", 2)]
