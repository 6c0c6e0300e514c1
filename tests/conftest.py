"""Shared pytest configuration."""

import pytest


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: full-kernel simulator runs (seconds each)"
    )


@pytest.fixture
def rng():
    from repro.common import make_rng

    return make_rng(1234)


@pytest.fixture
def both_engines(monkeypatch):
    """``both_engines(simulate)`` calls ``simulate()`` under each simulator
    engine, checks that the two results are equal and returns one.

    Both engines issue through the one SM scheduler: the reference engine
    steps every cycle, the fast engine puts each scheduler to sleep until
    a lower bound on its next issue, so a test that simulates through
    this fixture checks the sleep and wake rules against per-cycle
    stepping.
    """

    def run(simulate):
        results = []
        for engine in ("reference", "fast"):
            monkeypatch.setenv("REPRO_SIM_ENGINE", engine)
            results.append(simulate())
        assert results[0] == results[1], results
        return results[1]

    return run
