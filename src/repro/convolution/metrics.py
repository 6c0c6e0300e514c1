"""Observability for the autotuning dispatcher.

One :class:`DispatchStats` per :class:`repro.runtime.ExecutionContext`
(the process-wide default context unless one is activated) accumulates
per-plan counters for every plan the one planner
(``repro.convolution.autotune.plan_layer``) is asked for — by
``conv2d(algo="AUTO"/"AUTO_HEURISTIC")`` and by every
``InferenceSession`` layer compiled on the context: plan-cache
hits and misses, timed trials run (with per-algorithm wall times),
algorithms chosen, candidates excluded by the workspace budget or shape
restrictions, and runtime fallbacks taken when an algorithm raised.

``get_dispatch_stats()`` returns an independent snapshot so callers can
diff two readings without the dispatcher mutating their copy;
``reset_dispatch_stats()`` zeroes the live counters (e.g. between
benchmark phases).
"""

from __future__ import annotations

import copy
import dataclasses

# Per-algorithm trial history is capped: a long-lived process autotuning
# many shapes must not accumulate one float per trial forever.  Running
# aggregates (count/sum/min/max) keep full-precision statistics.
TRIAL_HISTORY_CAP = 32


@dataclasses.dataclass
class TrialAggregate:
    """Running aggregate of one algorithm's trial wall-times (never trimmed)."""

    count: int = 0
    total: float = 0.0
    min: float = float("inf")
    max: float = 0.0

    def record(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        self.min = min(self.min, seconds)
        self.max = max(self.max, seconds)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


@dataclasses.dataclass
class DispatchStats:
    """Counters for the planner behind ``conv2d``'s AUTO modes and sessions.

    Attributes
    ----------
    calls: plans requested, by ``conv2d`` in an AUTO mode and by each
        ``InferenceSession`` layer at compile, keyed further by mode
        (``AUTO``, ``AUTO_HEURISTIC`` or a session's forced algorithm)
        in :attr:`calls_by_mode`.
    cache_hits / cache_misses: plan-cache outcomes; a hit reuses the
        memoized plan and runs **zero** new trials.  The plan cache
        counts its own evictions (``ctx.plans.stats().evictions``).
    trials_run: timed candidate executions performed by ``AUTO`` misses.
    fallbacks: times a selected algorithm raised at execution and the
        dispatcher fell through to the next candidate.
    trial_times: per-algorithm wall-clock seconds of *recent* trials
        (the newest :data:`TRIAL_HISTORY_CAP` per algorithm; the
        unbounded history lives on only as :attr:`trial_stats`
        aggregates so long-lived processes don't leak).
    trial_stats: per-algorithm running count/sum/min/max over **all**
        trials ever run, regardless of the history cap.
    chosen: the algorithm of each new plan (one per plan-cache miss),
        plus each algorithm a self-heal promoted.
    excluded: candidates rejected *before* execution (workspace budget
        or unsupported shape), counted per algorithm.
    errors: candidates that raised during execution, per algorithm.
    """

    calls: int = 0
    calls_by_mode: dict[str, int] = dataclasses.field(default_factory=dict)
    cache_hits: int = 0
    cache_misses: int = 0
    trials_run: int = 0
    fallbacks: int = 0
    trial_times: dict[str, list[float]] = dataclasses.field(default_factory=dict)
    trial_stats: dict[str, TrialAggregate] = dataclasses.field(default_factory=dict)
    chosen: dict[str, int] = dataclasses.field(default_factory=dict)
    excluded: dict[str, int] = dataclasses.field(default_factory=dict)
    errors: dict[str, int] = dataclasses.field(default_factory=dict)

    # ------------------------------------------------------------------
    # Recording (used by repro.convolution.autotune)
    # ------------------------------------------------------------------
    def record_call(self, mode: str) -> None:
        self.calls += 1
        self.calls_by_mode[mode] = self.calls_by_mode.get(mode, 0) + 1

    def record_trial(self, algo: str, seconds: float) -> None:
        self.trials_run += 1
        history = self.trial_times.setdefault(algo, [])
        history.append(seconds)
        del history[:-TRIAL_HISTORY_CAP]
        self.trial_stats.setdefault(algo, TrialAggregate()).record(seconds)

    def record_choice(self, algo: str) -> None:
        self.chosen[algo] = self.chosen.get(algo, 0) + 1

    def record_exclusion(self, algo: str) -> None:
        self.excluded[algo] = self.excluded.get(algo, 0) + 1

    def record_error(self, algo: str) -> None:
        self.errors[algo] = self.errors.get(algo, 0) + 1

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def hit_rate(self) -> float:
        """Plan-cache hit rate over all dispatched calls (0.0 when idle)."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def mean_trial_time(self, algo: str) -> float:
        """Mean over *all* trials ever run (from the running aggregates,
        so the answer is exact even after the recent-history cap trims
        :attr:`trial_times`)."""
        agg = self.trial_stats.get(algo)
        return agg.mean if agg else 0.0

    def snapshot(self) -> "DispatchStats":
        return copy.deepcopy(self)


def get_dispatch_stats() -> DispatchStats:
    """An independent snapshot of the current context's dispatch counters."""
    from ..runtime import current_context

    return current_context().dispatch_stats.snapshot()


def reset_dispatch_stats() -> None:
    """Zero every counter (the live object is replaced, not mutated)."""
    from ..runtime import current_context

    current_context().dispatch_stats = DispatchStats()
