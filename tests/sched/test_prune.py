"""Static pre-simulation pruning of the schedule-search space.

Fast tests patch ``static_cost_candidate`` with a synthetic cost table
so the split logic and bookkeeping run without building kernels; one
slow test prunes a real (small) space through the assembler and checks
the known-best schedule survives.
"""

import types

import pytest

from repro.common.errors import ConvConfigError
from repro.gpusim import RTX2070
from repro.runtime import ExecutionContext
from repro.sched import (
    PAPER_SCHEDULE,
    QUICK_SPACE,
    Schedule,
    ScheduleSpace,
    SearchBudget,
    prune_candidates,
    static_cost_candidate,
    successive_halving,
)

SMALL_SPACE = ScheduleSpace(
    yield_strategies=("natural", "nvcc8"),
    ldg_interleaves=(2, 8),
    sts_interleaves=(6,),
    double_buffers=(2,),
)

YIELD_PENALTY = {"natural": 0, "nvcc8": 60, "cudnn7": 100}


def fake_cycles(tunables) -> float:
    return (
        5000.0
        - 60 * tunables.ldg_interleave
        - 10 * tunables.sts_interleave
        + YIELD_PENALTY[tunables.yield_strategy]
        + (40 if tunables.double_buffer == 1 else 0)
    )


@pytest.fixture
def fake_search(monkeypatch):
    """Instant simulator + lint gate, as in test_search.py."""
    calls = []

    def fake_measure(prob, device, tunables, iters=3, num_blocks=None,
                     context=None, tile=None):
        calls.append(tunables)
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


@pytest.fixture
def fake_static_cost(monkeypatch):
    """Static costs shaped like the real ones: yield ablations cost more."""

    def cost(schedule, device, *, iters=3, context=None, tile=None):
        tunables = schedule.to_tunables()
        cycles = 1000 + YIELD_PENALTY[tunables.yield_strategy]
        return types.SimpleNamespace(static_issue_cycles=cycles)

    monkeypatch.setattr("repro.sched.search.static_cost_candidate", cost)
    return cost


def test_prune_margin_validation():
    with pytest.raises(ConvConfigError):
        SearchBudget(prune_margin=0.99)
    # 1.0 (prune everything above the floor) and None (off) are legal.
    assert SearchBudget(prune_margin=1.0).prune_margin == 1.0
    assert SearchBudget().prune_margin is None


def test_prune_candidates_splits_on_margin(fake_static_cost):
    candidates = list(SMALL_SPACE.candidates())
    kept, pruned = prune_candidates(candidates, RTX2070, 1.05)
    # natural costs 1000, nvcc8 costs 1060 = 1.06x floor: pruned.
    assert {s.yield_strategy for s in kept} == {"natural"}
    assert len(kept) + len(pruned) == len(candidates)
    assert all("nvcc8" in label for label in pruned)
    assert pruned == sorted(pruned)


def test_prune_candidates_keeps_everything_at_loose_margin(fake_static_cost):
    candidates = list(SMALL_SPACE.candidates())
    kept, pruned = prune_candidates(candidates, RTX2070, 2.0)
    assert kept == candidates and pruned == []


def test_cheapest_candidate_always_survives(fake_static_cost):
    # Even margin 1.0 must keep the floor candidate(s).
    kept, _ = prune_candidates(list(SMALL_SPACE.candidates()), RTX2070, 1.0)
    assert kept and all(s.yield_strategy == "natural" for s in kept)


def test_search_prunes_before_rung0(fake_search, fake_static_cost):
    calls = fake_search
    ctx = ExecutionContext(device=RTX2070)
    result = successive_halving(
        SMALL_SPACE, RTX2070,
        budget=SearchBudget(max_rungs=2, prune_margin=1.05), context=ctx,
    )
    # Both nvcc8 candidates pruned statically: rung 0 only measures the
    # two natural ones, and the pruned labels are recorded.
    assert result.best.schedule == PAPER_SCHEDULE
    assert [len(r) for r in result.rungs] == [2, 1]
    assert len(result.pruned) == 2
    assert all("nvcc8" in label for label in result.pruned)
    assert all(t.yield_strategy == "natural" for t in calls)
    # The search span records the prune count.
    (span,) = [s for s in ctx.export_trace() if s["kind"] == "sched_search"]
    assert span["attrs"]["pruned"] == 2


def test_search_without_margin_prunes_nothing(fake_search, fake_static_cost):
    ctx = ExecutionContext(device=RTX2070)
    result = successive_halving(
        SMALL_SPACE, RTX2070, budget=SearchBudget(max_rungs=1), context=ctx
    )
    assert result.pruned == []
    assert len(result.rungs[0]) == 4


def test_pruned_labels_serialize(fake_search, fake_static_cost):
    ctx = ExecutionContext(device=RTX2070)
    result = successive_halving(
        SMALL_SPACE, RTX2070,
        budget=SearchBudget(max_rungs=1, prune_margin=1.05), context=ctx,
    )
    payload = result.to_dict()
    assert payload["pruned"] == result.pruned
    assert payload["budget"]["prune_margin"] == 1.05


def test_explicit_single_candidate_skips_pruning(fake_search,
                                                 fake_static_cost):
    # One candidate: nothing to rank against, the pruner must not run.
    ctx = ExecutionContext(device=RTX2070)
    result = successive_halving(
        device=RTX2070, candidates=[Schedule(yield_strategy="nvcc8")],
        budget=SearchBudget(max_rungs=1, prune_margin=1.0), context=ctx,
    )
    assert result.pruned == []
    assert len(result.rungs[0]) == 1


@pytest.mark.slow
def test_real_static_costs_never_prune_known_best():
    """Through the real assembler: PAPER_SCHEDULE sits at the floor."""
    ctx = ExecutionContext(device=RTX2070)
    candidates = list(QUICK_SPACE.candidates())
    assert PAPER_SCHEDULE in candidates
    kept, pruned = prune_candidates(
        candidates, RTX2070, 1.05, iters=3, context=ctx
    )
    assert PAPER_SCHEDULE in kept
    assert PAPER_SCHEDULE.label() not in pruned
    # The margin separates the yield-strategy classes (Fig. 9): every
    # non-natural candidate in the space is statically prunable.
    assert all(s.yield_strategy == "natural" for s in kept)
    report = static_cost_candidate(PAPER_SCHEDULE, RTX2070, context=ctx)
    floor = min(
        static_cost_candidate(s, RTX2070, context=ctx).static_issue_cycles
        for s in candidates
    )
    assert report.static_issue_cycles == floor


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
