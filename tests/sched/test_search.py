"""Successive-halving schedule search: pruning, memoization, tracing.

The fast tests drive the tuner with a synthetic cost model (patched in
place of ``measure_main_loop``) so the pruning logic, budgets and
bookkeeping are exercised without the simulator; one slow test runs the
real gpusim-in-the-loop path end to end.
"""

import dataclasses
import types

import pytest

from repro.common.errors import ConvConfigError
from repro.gpusim import RTX2070
from repro.runtime import ExecutionContext
from repro.sched import (
    PAPER_SCHEDULE,
    Schedule,
    ScheduleSearchConfig,
    ScheduleSpace,
    SearchBudget,
    ensure_schedule,
    evaluate_schedule,
    paper_ordering,
    successive_halving,
)
from repro.sched.search import schedule_key

SMALL_SPACE = ScheduleSpace(
    yield_strategies=("natural", "nvcc8"),
    ldg_interleaves=(2, 8),
    sts_interleaves=(6,),
    double_buffers=(2,),
)

YIELD_PENALTY = {"natural": 0, "nvcc8": 60, "cudnn7": 100}


def fake_cycles(tunables) -> float:
    """Synthetic, paper-shaped cost: the PAPER_SCHEDULE is the optimum."""
    return (
        5000.0
        - 60 * tunables.ldg_interleave
        - 10 * tunables.sts_interleave
        + YIELD_PENALTY[tunables.yield_strategy]
        + (40 if tunables.double_buffer == 1 else 0)
    )


@pytest.fixture
def fake_simulator(monkeypatch):
    """Replace the simulator and lint gate with an instant cost model."""
    calls = []

    def fake_measure(prob, device, tunables, iters=3, num_blocks=None, context=None, tile=None):
        calls.append((tunables, iters))
        cycles = fake_cycles(tunables)
        return types.SimpleNamespace(
            cycles_per_iter=cycles, tflops=1e6 / cycles, sol=0.9
        )

    monkeypatch.setattr("repro.sched.search.measure_main_loop", fake_measure)
    monkeypatch.setattr(
        "repro.sched.search.lint_gate_candidate",
        lambda *args, **kwargs: None,
    )
    return calls


def test_search_finds_paper_schedule(fake_simulator):
    ctx = ExecutionContext(device=RTX2070)
    result = successive_halving(
        SMALL_SPACE, RTX2070, budget=SearchBudget(max_rungs=2), context=ctx
    )
    assert result.best.schedule == PAPER_SCHEDULE
    # rung 0 measures all 4; rung 1 the kept ceil(4/3)=2.
    assert [len(r) for r in result.rungs] == [4, 2]
    assert result.evaluations == 6
    assert result.lint_gated == 4


def test_rung_budgets_escalate(fake_simulator):
    calls = fake_simulator
    budget = SearchBudget(base_iters=3, iters_step=4, eta=2, max_rungs=2)
    ctx = ExecutionContext(device=RTX2070)
    successive_halving(SMALL_SPACE, RTX2070, budget=budget, context=ctx)
    assert {it for _, it in calls} == {3, 7}
    assert budget.rung_iters(0) == 3 and budget.rung_iters(1) == 7


def test_search_stops_at_single_survivor(fake_simulator):
    ctx = ExecutionContext(device=RTX2070)
    result = successive_halving(
        SMALL_SPACE, RTX2070,
        budget=SearchBudget(eta=4, max_rungs=5), context=ctx,
    )
    # 4 -> ceil(4/4)=1 survivor: the search must stop early, not pad
    # rungs out to max_rungs.
    assert [len(r) for r in result.rungs] == [4, 1]
    assert result.best.schedule == PAPER_SCHEDULE


def test_explicit_candidate_list(fake_simulator):
    ctx = ExecutionContext(device=RTX2070)
    pair = [PAPER_SCHEDULE, Schedule(ldg_interleave=2)]
    result = successive_halving(
        device=RTX2070, candidates=pair,
        budget=SearchBudget(max_rungs=1), context=ctx,
    )
    assert result.space_signature == "explicit:2"
    assert result.best.schedule == PAPER_SCHEDULE
    with pytest.raises(ConvConfigError):
        successive_halving(device=RTX2070, candidates=[], context=ctx)


def test_ranking_ties_break_deterministically(fake_simulator, monkeypatch):
    monkeypatch.setattr(
        "repro.sched.search.measure_main_loop",
        lambda prob, device, tunables, iters=3, num_blocks=None, context=None,
        tile=None:
            types.SimpleNamespace(cycles_per_iter=100.0, tflops=1.0, sol=0.5),
    )
    ctx = ExecutionContext(device=RTX2070)
    a = successive_halving(SMALL_SPACE, RTX2070,
                           budget=SearchBudget(max_rungs=1), context=ctx)
    b = successive_halving(SMALL_SPACE, RTX2070,
                           budget=SearchBudget(max_rungs=1), context=ctx)
    labels = [s.schedule.label() for s in a.ranking()]
    assert labels == sorted(labels)
    assert labels == [s.schedule.label() for s in b.ranking()]


def test_search_records_trace_spans(fake_simulator):
    ctx = ExecutionContext(device=RTX2070)
    successive_halving(SMALL_SPACE, RTX2070,
                       budget=SearchBudget(max_rungs=1), context=ctx)
    spans = ctx.export_trace()
    sched_spans = [s for s in spans if s["kind"] == "sched"]
    search_spans = [s for s in spans if s["kind"] == "sched_search"]
    assert len(sched_spans) == 4
    assert all("cycles_per_iter" in s["attrs"] for s in sched_spans)
    assert len(search_spans) == 1
    assert search_spans[0]["attrs"]["best"] == PAPER_SCHEDULE.label()
    assert search_spans[0]["attrs"]["evaluations"] == 4


def test_paper_ordering_uses_rung0(fake_simulator):
    ctx = ExecutionContext(device=RTX2070)
    result = successive_halving(
        SMALL_SPACE, RTX2070, budget=SearchBudget(max_rungs=2), context=ctx
    )
    ordering = paper_ordering(result)
    anchor = fake_cycles(PAPER_SCHEDULE.to_tunables())
    assert ordering["anchor"] == PAPER_SCHEDULE.label()
    assert ordering["ldg8_over_ldg2"] == pytest.approx(
        fake_cycles(Schedule(ldg_interleave=2).to_tunables()) / anchor
    )
    assert ordering["natural_over_nvcc8"] > 1.0
    # axes the space does not cover are simply absent
    assert "db2_over_db1" not in ordering
    assert "sts6_over_sts2" not in ordering


def test_schedule_book_memoizes(fake_simulator):
    calls = fake_simulator
    ctx = ExecutionContext(device=RTX2070)
    config = ScheduleSearchConfig(space=SMALL_SPACE,
                                  budget=SearchBudget(max_rungs=1))
    first = ensure_schedule(device=RTX2070, config=config, context=ctx)
    count = len(calls)
    second = ensure_schedule(device=RTX2070, config=config, context=ctx)
    assert second is first
    assert len(calls) == count  # no re-measurement
    assert len(ctx.schedules) == 1
    # a different budget is a different memo entry
    other = ScheduleSearchConfig(space=SMALL_SPACE,
                                 budget=SearchBudget(max_rungs=2))
    ensure_schedule(device=RTX2070, config=other, context=ctx)
    assert len(ctx.schedules) == 2
    ctx.reset()
    assert len(ctx.schedules) == 0


def test_ensure_schedule_defaults_to_context_config(fake_simulator):
    config = ScheduleSearchConfig(space=SMALL_SPACE,
                                  budget=SearchBudget(max_rungs=1))
    ctx = ExecutionContext(device=RTX2070, schedule_search=config)
    result = ensure_schedule(context=ctx)
    assert result.space_signature == SMALL_SPACE.signature()
    assert ctx.schedules.get(schedule_key(RTX2070.name, config)) is result


def test_budget_validation():
    with pytest.raises(ConvConfigError):
        SearchBudget(base_iters=2)
    with pytest.raises(ConvConfigError):
        SearchBudget(iters_step=0)
    with pytest.raises(ConvConfigError):
        SearchBudget(eta=1)
    with pytest.raises(ConvConfigError):
        SearchBudget(max_rungs=0)
    with pytest.raises(ConvConfigError):
        SearchBudget(num_blocks=0)


def test_result_serializes(fake_simulator):
    ctx = ExecutionContext(device=RTX2070)
    result = successive_halving(SMALL_SPACE, RTX2070,
                                budget=SearchBudget(max_rungs=1), context=ctx)
    payload = result.to_dict()
    assert payload["best"]["label"] == PAPER_SCHEDULE.label()
    assert payload["evaluations"] == 4
    assert len(payload["rungs"][0]) == 4
    assert payload["budget"]["eta"] == 3
    # every score row reconstructs its Schedule
    rebuilt = Schedule.from_dict(payload["best"]["schedule"])
    assert rebuilt == PAPER_SCHEDULE


def test_evaluate_schedule_rejects_too_few_iters():
    # The differential measure needs iters >= 3; asking for fewer is a
    # configuration error (a ReproError), raised before any build.
    with pytest.raises(ConvConfigError, match="at least 3 iterations"):
        evaluate_schedule(PAPER_SCHEDULE, RTX2070, iters=2,
                          context=ExecutionContext(device=RTX2070))


@pytest.mark.slow
def test_search_with_real_simulator(monkeypatch):
    """gpusim-in-the-loop on a 2-point space: LDG8 must beat LDG2."""
    monkeypatch.delenv("REPRO_SIM_CACHE", raising=False)
    monkeypatch.delenv("REPRO_SIM_CACHE_DIR", raising=False)  # no disk hits
    ctx = ExecutionContext(device=RTX2070)
    result = successive_halving(
        device=RTX2070,
        candidates=[PAPER_SCHEDULE, dataclasses.replace(PAPER_SCHEDULE,
                                                        ldg_interleave=2)],
        budget=SearchBudget(max_rungs=1),
        context=ctx,
    )
    assert result.best.schedule == PAPER_SCHEDULE
    scores = {s.schedule.ldg_interleave: s.cycles_per_iter
              for s in result.rungs[0]}
    assert scores[2] / scores[8] > 1.05  # Fig. 8's direction
    # the winning candidates were built and lint-gated through the caches
    assert ctx.kernel_cache.stats().builds > 0
    assert result.lint_gated == 2
    # One path to the simulator: each candidate's two differential runs
    # are looked up once, simulated once and stored once.
    sims = ctx.sim_cache.stats()
    assert (sims.stores, sims.misses, sims.memory_hits) == (4, 4, 0)
