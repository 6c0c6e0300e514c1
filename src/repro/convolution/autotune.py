"""The one per-layer planner, behind ``conv2d``'s AUTO modes and sessions.

The paper's evaluation (Figs. 12-14, Table 7) is a study in *algorithm
selection*: which of cuDNN's convolution algorithms wins per layer,
under what workspace budget, and where the fused kernel's break-even
points lie.  This module turns that study into a runtime component,
mirroring cuDNN's own two selectors, plus a forced choice:

* ``AUTO_HEURISTIC`` — ``cudnnGetConvolutionForwardAlgorithm``: rank the
  candidates with the calibrated ``repro.perfmodel`` time models,
  filtered by the caller's ``workspace_limit_bytes`` budget (Fig. 14's
  workspace-limited selection), and take the predicted winner.  No data
  is touched during selection.
* ``AUTO`` — ``cudnnFindConvolutionForwardAlgorithm``: run timed trials
  of every surviving candidate on the actual tensors and keep the
  measured winner.
* a concrete algorithm (an :class:`~repro.runtime.InferenceSession`
  mode), kept unless the problem or the budget excludes it.

:func:`plan_layer` is the only place that choice is made: ``conv2d``'s
AUTO modes and ``InferenceSession.compile`` both call it.  Every
decision is a :class:`ConvPlan` memoized in a **plan cache** keyed by
the problem's shape (a :class:`ConvProblem` compares by shape, not by
name), dtype, workspace limit, device and mode, so repeated plans of
the same shape are lookups — a cache hit runs **zero** new trials.  The
plan cache is the context's ``plans``, an LRU of 256 plans; plans are
published whole, so a self-heal replaces an entry instead of mutating
it.

The dispatcher is robust by construction: a candidate that raises (e.g.
the fused kernel on a non-3×3/pad≠1 shape that slipped past the
structural filter) is recorded as ineligible and selection falls through
to the next candidate; ``DIRECT`` — workspace-free and
shape-unrestricted — terminates every chain.  Every decision is
observable through :func:`repro.convolution.get_dispatch_stats`.
"""

from __future__ import annotations

import copy
import dataclasses
import time
from typing import TYPE_CHECKING

import numpy as np

from ..common.errors import ConvConfigError, ReproError
from ..common.problem import ConvProblem
from ..common.cache import LRUCache
from .api import FUSED_TILE_FOR_ALGO, META_ALGORITHMS, TILE_FOR_ALGO, _run_concrete

if TYPE_CHECKING:
    from ..sched import Schedule


@dataclasses.dataclass(frozen=True)
class PlanKey:
    """The signature that identifies one plan-cache entry.

    *prob* compares and hashes by shape alone (its ``name`` is no part
    of its identity), so a named session layer and an anonymous
    ``conv2d`` call of the same shape share an entry.
    """

    prob: ConvProblem
    dtype: str
    workspace_limit: int | None
    device: str
    mode: str


@dataclasses.dataclass
class ConvPlan:
    """A memoized selection decision for one plan key.

    ``source`` is ``"measured"`` (AUTO), ``"heuristic"``
    (AUTO_HEURISTIC) or ``"forced"`` (one algorithm named by the
    caller).  ``fallbacks`` is the remaining try-order *after* ``algo``:
    if the chosen algorithm ever raises on a later call, the plan heals
    itself by promoting the next entry instead of re-running selection.

    ``schedule`` is the SASS instruction schedule chosen by the
    schedule-space search when planning ran with ``tune_schedule`` and
    the winning algorithm is a fused Winograd kernel; ``None`` otherwise.
    """

    key: PlanKey
    algo: str
    fallbacks: tuple[str, ...]
    source: str
    trial_times: dict[str, float] = dataclasses.field(default_factory=dict)
    predicted_times: dict[str, float] = dataclasses.field(default_factory=dict)
    excluded: dict[str, str] = dataclasses.field(default_factory=dict)
    hits: int = 0
    schedule: Schedule | None = None

    @property
    def prob(self) -> ConvProblem:
        return self.key.prob

    @property
    def tile(self) -> str | None:
        """The Winograd tile family ``algo`` runs on (``None``: not Winograd)."""
        return TILE_FOR_ALGO.get(self.algo)

    @property
    def workspace_bytes(self) -> int:
        """``algo``'s closed-form global workspace (what a session reserves)."""
        from ..perfmodel.workspace import dispatch_workspace_bytes

        return dispatch_workspace_bytes(self.prob, self.algo)

    @property
    def predicted_seconds(self) -> float:
        """The winner's trial time under AUTO, else its modelled time."""
        if self.source == "measured":
            return self.trial_times.get(self.algo, 0.0)
        return self.predicted_times[self.algo]

    def to_dict(self) -> dict:
        return {
            "layer": self.prob.label(),
            "algo": self.algo,
            "tile": self.tile,
            "workspace_bytes": self.workspace_bytes,
            "predicted_seconds": self.predicted_seconds,
            "fallbacks": list(self.fallbacks),
            "excluded": dict(self.excluded),
            "schedule": self.schedule.to_dict() if self.schedule else None,
        }


def _current_plans() -> LRUCache:
    from ..runtime import current_context

    return current_context().plans


def get_plan_cache() -> dict[PlanKey, ConvPlan]:
    """Deep-copied snapshot of the current context's plan cache.

    Deep-copied so the returned plans never alias the live entries: the
    dispatcher may heal or evict concurrently, and callers may freely
    poke at the snapshot without corrupting future dispatches.
    """
    return copy.deepcopy(dict(_current_plans().items()))


def clear_plan_cache() -> None:
    """Drop the current context's plans and zero their counters."""
    _current_plans().clear()


def _execute(
    algo: str, x: np.ndarray, f: np.ndarray, pad: int, stride: int = 1
) -> np.ndarray:
    return _run_concrete(algo, x, f, pad, stride)


def _select_candidates(prob, device, workspace_limit):
    # perfmodel pulls in the kernel generator and simulator packages;
    # importing it lazily keeps ``import repro.convolution`` light for
    # callers that never dispatch automatically.
    from ..perfmodel.selection import predicted_time, rank_algorithms

    ranked, excluded = rank_algorithms(prob, device, workspace_limit)
    predictions = {a: predicted_time(prob, device, a) for a in ranked}
    return ranked, excluded, predictions


def _tune_plan_schedule(plan: ConvPlan, device, ctx) -> None:
    """Attach the schedule-search winner to a fused-kernel plan (in place).

    The search runs over the winning algorithm's tile family (f22 for
    WINOGRAD, f44 for WINOGRAD_F44) and is memoized on the context's
    ``schedules`` cache, so only the first plan per
    (device, tile, space, budget) pays for it — everything after is a
    lookup.  Runs strictly behind the plan cache: cached plans that
    already carry a schedule never re-enter here.
    """
    from ..sched import ensure_schedule

    tile = FUSED_TILE_FOR_ALGO[plan.algo]
    plan.schedule = ensure_schedule(device=device, context=ctx, tile=tile).best.schedule


def plan_layer(
    prob: ConvProblem,
    mode: str,
    ctx,
    *,
    device,
    workspace_limit: int | None,
    tune_schedule: bool,
    dtype,
    data: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[ConvPlan, np.ndarray | None]:
    """Plan one layer on *ctx*; returns ``(plan, y)``.

    *mode* is ``"AUTO"``, ``"AUTO_HEURISTIC"`` or a concrete algorithm
    to force.  The call is counted in ``ctx.dispatch_stats``; a cached
    plan for the same key is returned as is (with the schedule attached
    if tuning is on now and was not when it was planned).  On a miss the
    candidates are ranked once; AUTO then runs timed trials on *data*
    ``(x, f)`` and *y* is the winner's output, otherwise *y* is ``None``
    and nothing runs.  A fused winner gets the schedule-search winner
    when *tune_schedule* is set.  Call it with *ctx* active.
    """
    stats = ctx.dispatch_stats
    stats.record_call(mode)
    key = PlanKey(prob, np.dtype(dtype).name, workspace_limit, device.name, mode)
    plan = ctx.plans.get(key)
    if plan is not None:
        stats.cache_hits += 1
        plan.hits += 1
        if tune_schedule and plan.schedule is None and plan.algo in FUSED_TILE_FOR_ALGO:
            # A plan cached before tuning was enabled: attach the
            # (memoized) winner so later snapshots see it too.
            _tune_plan_schedule(plan, device, ctx)
        return plan, None

    stats.cache_misses += 1
    y = None
    with ctx.span("plan", prob.label(), mode=mode, device=device.name) as span:
        ranked, excluded, predictions = _select_candidates(prob, device, workspace_limit)
        for algo in excluded:
            stats.record_exclusion(algo)
        if not ranked:  # cannot happen while DIRECT is a candidate; be loud
            raise ConvConfigError(
                f"no convolution algorithm eligible for {prob} "
                f"under workspace limit {workspace_limit}; excluded: {excluded}"
            )

        if mode == "AUTO":
            plan, y = _measure_plan(key, ranked, excluded, predictions, *data, stats)
        elif mode == "AUTO_HEURISTIC":
            plan = ConvPlan(
                key=key, algo=ranked[0], fallbacks=tuple(ranked[1:]),
                source="heuristic", predicted_times=predictions, excluded=excluded,
            )
        elif mode in ranked:
            plan = ConvPlan(
                key=key, algo=mode, fallbacks=(), source="forced",
                predicted_times=predictions, excluded=excluded,
            )
        else:
            raise ConvConfigError(
                f"forced algorithm {mode} cannot run {prob}: "
                f"{excluded.get(mode, 'not a dispatch candidate')}"
            )
        span["algo"] = plan.algo
        if tune_schedule and plan.algo in FUSED_TILE_FOR_ALGO:
            _tune_plan_schedule(plan, device, ctx)
            span["schedule"] = plan.schedule.label()
            span["tile"] = FUSED_TILE_FOR_ALGO[plan.algo]
    ctx.plans.put(key, plan)
    stats.record_choice(plan.algo)
    return plan, y


def autotune_conv2d(
    x: np.ndarray,
    f: np.ndarray,
    pad: int,
    mode: str,
    stride: int = 1,
    workspace_limit_bytes: int | None = None,
    device=None,
    context=None,
    tune_schedule: bool | None = None,
) -> np.ndarray:
    """Dispatch one convolution through the AUTO/AUTO_HEURISTIC pipeline.

    Called by :func:`repro.convolution.conv2d` after input validation;
    not intended as a public entry point (use ``conv2d(algo="AUTO")``).
    All mutable state (plan cache, dispatch stats) lives on *context*
    (default: the current :class:`repro.runtime.ExecutionContext`).

    ``tune_schedule`` opts the WINOGRAD winner into the SASS
    schedule-space search (``repro.sched``); ``None`` defers to whether
    the context carries a ``schedule_search`` config.
    """
    from ..runtime import activate, current_context

    if mode not in META_ALGORITHMS:
        raise ConvConfigError(
            f"unknown auto mode {mode!r}; choose from {META_ALGORITHMS}"
        )
    if workspace_limit_bytes is not None and workspace_limit_bytes < 0:
        raise ConvConfigError(
            f"workspace_limit_bytes must be >= 0 or None, got {workspace_limit_bytes}"
        )
    ctx = context if context is not None else current_context()
    with activate(ctx):
        if device is None:
            device = ctx.device
        else:
            from ..gpusim.arch import resolve_device

            device = resolve_device(device)
        if tune_schedule is None:
            tune_schedule = ctx.schedule_search is not None
        n, c, h, w = x.shape
        k, _, r, s = f.shape
        prob = ConvProblem(n=n, c=c, h=h, w=w, k=k, r=r, s=s, pad=pad, stride=stride)
        plan, y = plan_layer(
            prob, mode, ctx, device=device, workspace_limit=workspace_limit_bytes,
            tune_schedule=tune_schedule, dtype=np.result_type(x, f), data=(x, f),
        )
        if y is None:
            y = _run_plan(plan, x, f, pad, stride, ctx.dispatch_stats, ctx.plans)
        return y


def _measure_plan(key, ranked, excluded, predictions, x, f, stats):
    """AUTO: timed trials of every surviving candidate; keep the winner."""
    pad, stride = key.prob.pad, key.prob.stride
    trial_times: dict[str, float] = {}
    best_algo = None
    best_y = None
    for algo in ranked:
        t0 = time.perf_counter()
        try:
            y = _execute(algo, x, f, pad, stride)
        except ReproError as exc:
            excluded[algo] = f"raised during trial: {exc}"
            stats.record_error(algo)
            stats.fallbacks += 1
            continue
        elapsed = time.perf_counter() - t0
        trial_times[algo] = elapsed
        stats.record_trial(algo, elapsed)
        if best_algo is None or elapsed < trial_times[best_algo]:
            best_algo, best_y = algo, y
    if best_algo is None:
        raise ConvConfigError(
            f"every candidate algorithm failed for signature {key}; "
            f"reasons: {excluded}"
        )
    order = sorted(trial_times, key=trial_times.__getitem__)
    plan = ConvPlan(
        key=key,
        algo=best_algo,
        fallbacks=tuple(a for a in order if a != best_algo),
        source="measured",
        trial_times=trial_times,
        predicted_times=predictions,
        excluded=excluded,
    )
    return plan, best_y


def _run_plan(
    plan: ConvPlan, x, f, pad, stride, stats, plans: LRUCache
) -> np.ndarray:
    """Execute a cached plan, self-healing if its chosen algorithm raises.

    Healing never mutates the cached ``ConvPlan``: new exclusions are
    collected locally and a *replacement* plan is published to the cache
    once the promoted algorithm is known, so snapshots taken earlier (or
    concurrently, from other threads) stay internally consistent.
    """
    algo, fallbacks = plan.algo, plan.fallbacks
    new_exclusions: dict[str, str] = {}
    while True:
        try:
            y = _execute(algo, x, f, pad, stride)
        except ReproError as exc:
            stats.record_error(algo)
            stats.fallbacks += 1
            new_exclusions[algo] = f"raised on cached dispatch: {exc}"
            if not fallbacks:
                _publish_healed(plan, algo, fallbacks, new_exclusions, plans)
                raise ConvConfigError(
                    f"cached plan for {plan.key} exhausted every fallback; "
                    f"reasons: {dict(plan.excluded, **new_exclusions)}"
                ) from exc
            algo, fallbacks = fallbacks[0], fallbacks[1:]
            stats.record_choice(algo)
            continue
        if algo != plan.algo:
            _publish_healed(plan, algo, fallbacks, new_exclusions, plans)
        return y


def _publish_healed(
    plan: ConvPlan, algo: str, fallbacks: tuple[str, ...],
    new_exclusions: dict[str, str], plans: LRUCache,
) -> None:
    """Replace the cached entry with a healed copy of *plan*."""
    healed = ConvPlan(
        key=plan.key,
        algo=algo,
        fallbacks=fallbacks,
        source=plan.source,
        trial_times=dict(plan.trial_times),
        predicted_times=dict(plan.predicted_times),
        excluded=dict(plan.excluded, **new_exclusions),
        hits=plan.hits,
        # The schedule was tuned for the demoted algorithm's tile family;
        # a heal never carries it onto the promoted algorithm (a cache
        # hit with tuning enabled re-attaches the right family's winner).
        schedule=None,
    )
    plans.put(plan.key, healed)
