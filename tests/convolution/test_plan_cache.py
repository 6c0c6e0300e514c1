"""Plan-cache integrity: snapshot isolation, copy-on-heal, bounds, threads."""

import concurrent.futures

import numpy as np
import pytest

from repro.common import (
    ConvConfigError,
    ConvProblem,
    ReproError,
    conv_tolerance,
    make_rng,
    random_activation,
    random_filter,
)
from repro.convolution import (
    TRIAL_HISTORY_CAP,
    clear_plan_cache,
    conv2d,
    get_dispatch_stats,
    get_plan_cache,
    reset_dispatch_stats,
)
from repro.convolution import autotune
from repro.convolution.metrics import DispatchStats
from repro.perfmodel import rank_algorithms
from repro.common.cache import LRUCache
from repro.runtime import ExecutionContext, activate, current_context


@pytest.fixture(autouse=True)
def _fresh_dispatcher():
    reset_dispatch_stats()
    clear_plan_cache()
    yield
    reset_dispatch_stats()
    clear_plan_cache()


def _data(prob, seed=0):
    rng = make_rng(seed)
    return random_activation(prob, rng), random_filter(prob, rng)


def _fail_algos(monkeypatch, algos):
    """Make ``_execute`` raise for the given algorithms."""
    real = autotune._execute

    def failing(algo, x, f, pad, stride=1):
        if algo in algos:
            raise ReproError(f"injected failure for {algo}")
        return real(algo, x, f, pad, stride)

    monkeypatch.setattr(autotune, "_execute", failing)


# ---------------------------------------------------------------------------
# Snapshot isolation and copy-on-heal
# ---------------------------------------------------------------------------
def test_snapshot_survives_later_heal(monkeypatch):
    prob = ConvProblem(n=1, c=4, h=8, w=8, k=4)
    x, f = _data(prob)
    conv2d(x, f, algo="AUTO_HEURISTIC")
    before = get_plan_cache()
    (plan_before,) = before.values()
    original_algo = plan_before.algo
    assert plan_before.fallbacks  # something to promote

    # The chosen algorithm starts raising: the dispatcher must heal the
    # cached plan without touching the snapshot taken above.
    _fail_algos(monkeypatch, {original_algo})
    y = conv2d(x, f, algo="AUTO_HEURISTIC")
    np.testing.assert_allclose(
        y, conv2d(x, f, algo="DIRECT"), atol=conv_tolerance(prob) * 4
    )

    assert plan_before.algo == original_algo
    assert plan_before.excluded == {}

    (healed,) = get_plan_cache().values()
    assert healed.algo == plan_before.fallbacks[0]
    assert original_algo in healed.excluded
    assert "raised on cached dispatch" in healed.excluded[original_algo]
    assert get_dispatch_stats().fallbacks == 1


def test_mutating_a_snapshot_never_corrupts_dispatch():
    prob = ConvProblem(n=1, c=4, h=8, w=8, k=4)
    x, f = _data(prob)
    ref = conv2d(x, f, algo="AUTO_HEURISTIC")

    snap = get_plan_cache()
    (plan,) = snap.values()
    plan.algo = "BOGUS"
    plan.fallbacks = ()
    plan.excluded["everything"] = "scribbled on the snapshot"
    plan.trial_times["BOGUS"] = 1e9

    # The live cache is unaffected: the next call is a plain hit running
    # the originally selected algorithm.
    y = conv2d(x, f, algo="AUTO_HEURISTIC")
    np.testing.assert_allclose(y, ref)
    (live,) = get_plan_cache().values()
    assert live.algo != "BOGUS"
    assert live.excluded == {}
    assert get_dispatch_stats().cache_hits == 1


def test_two_snapshots_are_independent():
    prob = ConvProblem(n=1, c=4, h=8, w=8, k=4)
    x, f = _data(prob)
    conv2d(x, f, algo="AUTO_HEURISTIC")
    a = get_plan_cache()
    b = get_plan_cache()
    (pa,), (pb,) = a.values(), b.values()
    assert pa is not pb
    assert pa.excluded is not pb.excluded
    pa.excluded["x"] = "y"
    assert "x" not in pb.excluded


def test_heuristic_plan_heals_when_the_top_ranked_algorithm_raises(monkeypatch):
    # AUTO_HEURISTIC plans without running anything, so a top-ranked
    # algorithm that raises is healed on the first run like any cached
    # plan: the promoted algorithm's output is returned.
    prob = ConvProblem(n=1, c=4, h=8, w=8, k=4)
    x, f = _data(prob)
    ranked, _ = rank_algorithms(prob, current_context().device)
    _fail_algos(monkeypatch, {ranked[0]})
    y = conv2d(x, f, algo="AUTO_HEURISTIC")
    assert y.tobytes() == conv2d(x, f, algo=ranked[1]).tobytes()

    (healed,) = get_plan_cache().values()
    assert (healed.algo, healed.fallbacks) == (ranked[1], tuple(ranked[2:]))
    assert "raised on cached dispatch" in healed.excluded[ranked[0]]
    stats = get_dispatch_stats()
    assert (stats.fallbacks, stats.errors) == (1, {ranked[0]: 1})
    assert stats.chosen == {ranked[0]: 1, ranked[1]: 1}


def test_exhausted_fallbacks_raise_and_record(monkeypatch):
    prob = ConvProblem(n=1, c=4, h=8, w=8, k=4)
    x, f = _data(prob)
    conv2d(x, f, algo="AUTO_HEURISTIC")
    (plan,) = get_plan_cache().values()
    everything = {plan.algo, *plan.fallbacks}

    _fail_algos(monkeypatch, everything)
    with pytest.raises(ConvConfigError, match="exhausted every fallback"):
        conv2d(x, f, algo="AUTO_HEURISTIC")

    # Every failure was recorded on the (replaced) cached entry.
    (after,) = get_plan_cache().values()
    assert set(after.excluded) == everything


# ---------------------------------------------------------------------------
# Size bound
# ---------------------------------------------------------------------------
def test_plan_cache_size_bound_evicts_oldest():
    ctx = ExecutionContext()
    ctx.plans = LRUCache(2)
    shapes = [ConvProblem(n=n, c=4, h=8, w=8, k=4) for n in (1, 2, 3)]
    with activate(ctx):
        for prob in shapes:
            x, f = _data(prob)
            conv2d(x, f, algo="AUTO_HEURISTIC")
        cache = get_plan_cache()
    assert len(cache) == 2
    assert {key.prob.n for key in cache} == {2, 3}  # oldest (n=1) evicted
    assert ctx.plans.stats().evictions == 1


def test_plan_cache_limit_validation():
    # The plan cache is the one LRU type: its bound is 256, and a bound
    # below 1 raises the ValueError every cache raises.
    plans = current_context().plans
    assert isinstance(plans, LRUCache)
    assert plans.stats().max_entries == 256
    with pytest.raises(ValueError):
        LRUCache(0)


# ---------------------------------------------------------------------------
# Thread safety (smoke)
# ---------------------------------------------------------------------------
def test_threaded_dispatch_smoke():
    probs = [
        ConvProblem(n=1, c=4, h=8, w=8, k=4),
        ConvProblem(n=2, c=4, h=8, w=8, k=4),
    ]
    data = [_data(p) for p in probs]
    refs = [conv2d(x, f, algo="DIRECT") for x, f in data]

    def dispatch(i):
        x, f = data[i % len(data)]
        return i % len(data), conv2d(x, f, algo="AUTO_HEURISTIC")

    with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(dispatch, range(16)))
    for i, y in results:
        prob = probs[i]
        np.testing.assert_allclose(y, refs[i], atol=conv_tolerance(prob) * 4)

    stats = get_dispatch_stats()
    assert stats.calls == 16
    assert len(get_plan_cache()) == len(probs)


# ---------------------------------------------------------------------------
# Trial-history cap (metrics)
# ---------------------------------------------------------------------------
def test_trial_history_capped_with_exact_aggregates():
    stats = DispatchStats()
    n = TRIAL_HISTORY_CAP + 18
    for i in range(n):
        stats.record_trial("WINOGRAD", float(i + 1))
    history = stats.trial_times["WINOGRAD"]
    assert len(history) == TRIAL_HISTORY_CAP
    assert history[-1] == float(n)  # newest retained
    assert history[0] == float(n - TRIAL_HISTORY_CAP + 1)  # oldest trimmed

    agg = stats.trial_stats["WINOGRAD"]
    assert agg.count == n
    assert agg.min == 1.0 and agg.max == float(n)
    assert stats.mean_trial_time("WINOGRAD") == pytest.approx((n + 1) / 2)
    assert stats.trials_run == n
