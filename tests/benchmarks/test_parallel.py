"""The process-pool fan-out the benchmark harness uses: determinism,
sizing, fallbacks."""

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
