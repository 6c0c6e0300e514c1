"""Schedule-space autotuner: successive halving over SASS schedules.

maxDNN (Lavin 2015) and the Citadel Volta microbenchmarking study treat
the *instruction schedule* as the optimization target; TuringAs exists
to make that space writable.  This module makes it **searchable**: every
:class:`~repro.sched.space.Schedule` candidate is generated through the
existing ``kernels``/``sass`` pipeline, statically vetted by sasslint,
scored with the simulator in the loop (gpusim), and pruned with a plain
successive-halving schedule instead of an exhaustive sweep:

* rung 0 measures **every** candidate at the cheapest budget the
  differential microbenchmark allows (3 main-loop iterations);
* each following rung keeps the best ``1/eta`` fraction and re-measures
  at a larger iteration budget, so the expensive, high-fidelity
  simulations are spent only on surviving candidates.

Each candidate is scored one at a time through
:func:`~repro.kernels.runner.measure_main_loop`, the runner's one
build → lint → simulate → cache path.  Repeated points are (nearly)
free: kernel builds come from the context's build cache and
simulations from the two-tier
:class:`~repro.kernels.cache.SimulationCache` — and because a
rung-``r+1`` measurement at ``iters`` reuses the rung-``r`` simulation
at ``iters - 2`` as its differential baseline, promotion never repays
for cycles already simulated.

Every candidate evaluation records a ``"sched"`` trace span on the
:class:`~repro.runtime.ExecutionContext`, so a search is fully
observable in the session JSON trace.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import TYPE_CHECKING, Any

from ..common.errors import ConvConfigError
from ..gpusim.arch import DeviceSpec
from ..kernels.cache import build_fused_kernel
from ..kernels.runner import ensure_lint_clean, lint_family_key, measure_main_loop
from ..winograd.tilespec import get_tile
from .space import (
    DEFAULT_SPACE,
    PAPER_SCHEDULE,
    Schedule,
    ScheduleSpace,
    space_for_tile,
)

if TYPE_CHECKING:
    from ..common.problem import ConvProblem
    from ..runtime import ExecutionContext
    from ..sass.analysis import StaticReport


def _ctx(context: ExecutionContext | None = None) -> ExecutionContext:
    if context is not None:
        return context
    from ..runtime import current_context

    return current_context()


def _surrogate_problem() -> ConvProblem:
    # The main loop's per-iteration cost is layer-independent at fixed
    # tunables (§4: same block shape); the layer model's mid-size
    # surrogate keeps each simulation small.
    from ..perfmodel.layer_model import _SURROGATE

    return _SURROGATE


@dataclasses.dataclass(frozen=True)
class SearchBudget:
    """Successive-halving knobs (see ``docs/schedules.md``).

    ``base_iters`` is the rung-0 simulated main-loop iteration count
    (the differential measurement needs >= 3); every later rung adds
    ``iters_step`` iterations.  Each rung keeps ``ceil(n / eta)``
    survivors, stopping after ``max_rungs`` rungs or when a single
    candidate remains.

    ``prune_margin`` opts into the static pre-simulation pruner: before
    rung 0, every candidate's lint-gated kernel build is also statically
    costed (:func:`repro.sass.analysis.static_report`'s serialized issue
    cycles), and candidates costing more than ``prune_margin`` times the
    cheapest candidate are dropped without ever being simulated.  The
    statically cheapest candidate always survives.  ``None`` (the
    default) disables pruning, so every candidate is measured — the
    perf-regression gate and the figure benchmarks rely on that full
    rung-0 coverage.
    """

    base_iters: int = 3
    iters_step: int = 2
    eta: int = 3
    max_rungs: int = 3
    num_blocks: int | None = None
    prune_margin: float | None = None

    def __post_init__(self) -> None:
        if self.base_iters < 3:
            raise ConvConfigError(
                f"base_iters must be >= 3 (differential measure), "
                f"got {self.base_iters}"
            )
        if self.iters_step < 1:
            raise ConvConfigError(f"iters_step must be >= 1, got {self.iters_step}")
        if self.eta < 2:
            raise ConvConfigError(f"eta must be >= 2, got {self.eta}")
        if self.max_rungs < 1:
            raise ConvConfigError(f"max_rungs must be >= 1, got {self.max_rungs}")
        if self.num_blocks is not None and self.num_blocks < 1:
            raise ConvConfigError(
                f"num_blocks must be >= 1 or None, got {self.num_blocks}"
            )
        if self.prune_margin is not None and self.prune_margin < 1.0:
            raise ConvConfigError(
                "prune_margin is a ratio to the cheapest candidate's "
                f"static cost and must be >= 1.0, got {self.prune_margin}"
            )

    def rung_iters(self, rung: int) -> int:
        return self.base_iters + rung * self.iters_step

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class ScheduleSearchConfig:
    """What a context-level opt-in to schedule search runs.

    ``tile`` names the kernel family the search targets ("f22" default);
    each family gets its own entry in the context's ``schedules`` cache,
    so a session dispatching both f22 and f44 layers pays for (at most)
    one search per family per device.
    """

    space: ScheduleSpace = DEFAULT_SPACE
    budget: SearchBudget = SearchBudget()
    tile: str = "f22"

    @classmethod
    def for_tile(cls, tile, budget: SearchBudget | None = None) -> "ScheduleSearchConfig":
        """A family-targeted config over that family's searchable grid."""
        spec = get_tile(tile)
        return cls(
            space=space_for_tile(spec),
            budget=budget or SearchBudget(),
            tile=spec.name,
        )

    def with_tile(self, tile) -> "ScheduleSearchConfig":
        """This config retargeted at another family.

        Same budget; the space is re-derived from the new family (a
        space chosen for one generator does not transfer to another's
        invariants).
        """
        spec = get_tile(tile)
        if spec.name == self.tile:
            return self
        return ScheduleSearchConfig(
            space=space_for_tile(spec), budget=self.budget, tile=spec.name
        )


@dataclasses.dataclass(frozen=True)
class CandidateScore:
    """One schedule's measured main-loop cost at one budget."""

    schedule: Schedule
    iters: int
    cycles_per_iter: float
    tflops: float
    sol: float

    def to_dict(self) -> dict:
        return {
            "schedule": self.schedule.to_dict(),
            "label": self.schedule.label(),
            "iters": self.iters,
            "cycles_per_iter": self.cycles_per_iter,
            "tflops": self.tflops,
            "sol": self.sol,
        }


@dataclasses.dataclass
class SearchResult:
    """Outcome of one successive-halving run."""

    device: str
    space_signature: str
    budget: SearchBudget
    rungs: list[list[CandidateScore]]  # per rung, ranked best-first
    best: CandidateScore
    evaluations: int
    lint_gated: int  # candidates statically vetted before scoring
    #: Labels of candidates the static pruner dropped before rung 0
    #: (empty unless ``SearchBudget.prune_margin`` opted in).
    pruned: list[str] = dataclasses.field(default_factory=list)
    #: Kernel family the search targeted ("f22" / "f44").
    tile: str = "f22"

    @property
    def schedule(self) -> Schedule:
        return self.best.schedule

    def ranking(self) -> list[CandidateScore]:
        """The final rung's scores, best first."""
        return list(self.rungs[-1])

    def rung0_score_for(self, schedule: Schedule) -> CandidateScore | None:
        """The rung-0 score — the only rung where every candidate was
        measured at the *same* budget, so cross-candidate ratios are
        meaningful (simulated marginal cycles/iter drifts with the
        iteration budget, so scores from different rungs never compare)."""
        for score in self.rungs[0]:
            if score.schedule == schedule:
                return score
        return None

    def to_dict(self) -> dict:
        return {
            "device": self.device,
            "tile": self.tile,
            "space": self.space_signature,
            "budget": self.budget.to_dict(),
            "best": self.best.to_dict(),
            "evaluations": self.evaluations,
            "lint_gated": self.lint_gated,
            "pruned": list(self.pruned),
            "rungs": [[s.to_dict() for s in rung] for rung in self.rungs],
        }


def evaluate_schedule(
    schedule: Schedule,
    device: DeviceSpec,
    *,
    iters: int = 3,
    num_blocks: int | None = None,
    context: ExecutionContext | None = None,
    tile=None,
) -> CandidateScore:
    """Score one schedule with the simulator in the loop.

    Builds (or fetches) the main-loop-only kernel for the schedule's
    tunables — for the *tile* family, f22 by default — and measures
    steady-state cycles per bc-iteration; records a ``"sched"`` trace
    span carrying the result.  Lint gating happens on build via the
    context's lint gate (:func:`~repro.kernels.runner.ensure_lint_clean`).
    """
    ctx = _ctx(context)
    spec = get_tile(tile)
    tunables = schedule.to_tunables(tile=spec)
    with ctx.span(
        "sched", schedule.label(), device=device.name, iters=iters,
        tile=spec.name,
    ) as span:
        meas = measure_main_loop(
            _surrogate_problem(), device=device, tunables=tunables, iters=iters,
            num_blocks=num_blocks, context=ctx, tile=spec,
        )
        span["cycles_per_iter"] = meas.cycles_per_iter
        span["tflops"] = meas.tflops
    return CandidateScore(
        schedule=schedule,
        iters=iters,
        cycles_per_iter=meas.cycles_per_iter,
        tflops=meas.tflops,
        sol=meas.sol,
    )


def lint_gate_candidate(
    schedule: Schedule,
    device: DeviceSpec,
    *,
    iters: int = 3,
    context: ExecutionContext | None = None,
    tile=None,
) -> None:
    """Statically vet one candidate's generated SASS (sasslint).

    Raises :class:`~repro.common.errors.LintError` on any error-severity
    diagnostic.  Builds through the kernel-build cache, so a vetted
    candidate's later measurement reuses the assembled kernel.
    """
    ctx = _ctx(context)
    spec = get_tile(tile)
    prob = _surrogate_problem()
    tunables = schedule.to_tunables(tile=spec)
    kernel = build_fused_kernel(
        prob, tunables, device.name,
        main_loop_only=True, iters=iters, tile=spec, context=ctx,
    )
    ensure_lint_clean(
        kernel, context=ctx,
        family=lint_family_key(prob, tunables, tile=spec),
    )


def static_cost_candidate(
    schedule: Schedule,
    device: DeviceSpec,
    *,
    iters: int = 3,
    context: ExecutionContext | None = None,
    tile=None,
) -> StaticReport:
    """The static issue-cost report of one candidate's main-loop kernel.

    Returns :class:`repro.sass.analysis.StaticReport`.  Builds through
    the kernel-build cache, so on the search path (after
    :func:`lint_gate_candidate`) this re-costs an already-assembled
    kernel — no extra assembly.  ``static_issue_cycles`` is the
    serialized per-warp issue cost the simulator will charge: candidates
    with identical instruction streams but different control codes
    (yield strategies, interleaves, buffering depths) differ statically
    in exactly that quantity, which is what makes pre-simulation pruning
    sound for *this* space.
    """
    from ..sass.analysis import AnalysisContext, static_report

    ctx = _ctx(context)
    spec = get_tile(tile)
    kernel = build_fused_kernel(
        _surrogate_problem(), schedule.to_tunables(tile=spec), device.name,
        main_loop_only=True, iters=iters, tile=spec, context=ctx,
    )
    return static_report(
        AnalysisContext(instructions=kernel.instructions, meta=kernel.meta)
    )


def prune_candidates(
    candidates: list[Schedule],
    device: DeviceSpec,
    margin: float,
    *,
    iters: int = 3,
    context: ExecutionContext | None = None,
    tile=None,
) -> tuple[list[Schedule], list[str]]:
    """Split *candidates* into (survivors, pruned labels) by static cost.

    A candidate is pruned when its ``static_issue_cycles`` exceeds
    ``margin`` times the cheapest candidate's — it cannot plausibly win
    rung 0, so simulating it would be wasted budget.  The cheapest
    candidate always survives, so the result is never empty.
    """
    costs = {
        schedule.label(): static_cost_candidate(
            schedule, device, iters=iters, context=context, tile=tile,
        ).static_issue_cycles
        for schedule in candidates
    }
    floor = min(costs.values())
    survivors: list[Schedule] = []
    pruned: list[str] = []
    for schedule in candidates:
        if costs[schedule.label()] > margin * floor:
            pruned.append(schedule.label())
        else:
            survivors.append(schedule)
    return survivors, pruned


def successive_halving(
    space: ScheduleSpace | None = None,
    device: DeviceSpec | None = None,
    *,
    budget: SearchBudget | None = None,
    candidates: list[Schedule] | None = None,
    context: ExecutionContext | None = None,
    tile=None,
) -> SearchResult:
    """Prune *space* down to one winning :class:`Schedule`.

    Rung 0 lint-gates and measures every candidate at ``base_iters``;
    each later rung keeps the best ``ceil(n / eta)`` and re-measures at
    a larger iteration budget.  Ranking is by steady-state cycles per
    main-loop iteration (ascending), with the schedule label as a
    deterministic tie-break.  Returns the full rung history so callers
    (figures, the perf gate, the CLI) can read every intermediate score.
    """
    from ..runtime import activate

    ctx = _ctx(context)
    device = device or ctx.device
    budget = budget or SearchBudget()
    spec = get_tile(tile)
    if candidates is None:
        space = space or space_for_tile(spec)
        candidates = space.candidates()
        signature = space.signature()
    else:
        candidates = list(candidates)
        signature = f"explicit:{len(candidates)}"
    if not candidates:
        raise ConvConfigError("schedule search needs at least one candidate")

    rungs: list[list[CandidateScore]] = []
    evaluations = 0
    with activate(ctx):
        with ctx.span(
            "sched_search", signature, device=device.name,
            candidates=len(candidates), tile=spec.name,
        ) as span:
            for candidate in candidates:
                lint_gate_candidate(
                    candidate, device, iters=budget.rung_iters(0),
                    context=ctx, tile=spec,
                )
            lint_gated = len(candidates)

            pruned: list[str] = []
            if budget.prune_margin is not None and len(candidates) > 1:
                candidates, pruned = prune_candidates(
                    candidates, device, budget.prune_margin,
                    iters=budget.rung_iters(0), context=ctx, tile=spec,
                )
                span["pruned"] = len(pruned)

            survivors = candidates
            for rung in range(budget.max_rungs):
                iters = budget.rung_iters(rung)
                scores = [
                    evaluate_schedule(
                        s, device, iters=iters, num_blocks=budget.num_blocks,
                        context=ctx, tile=spec,
                    )
                    for s in survivors
                ]
                evaluations += len(scores)
                scores.sort(key=lambda s: (s.cycles_per_iter, s.schedule.label()))
                rungs.append(scores)
                if len(scores) == 1:
                    break
                keep = max(1, math.ceil(len(scores) / budget.eta))
                if rung == budget.max_rungs - 1:
                    break
                survivors = [s.schedule for s in scores[:keep]]
            span["evaluations"] = evaluations
            span["best"] = rungs[-1][0].schedule.label()

    return SearchResult(
        device=device.name,
        space_signature=signature,
        budget=budget,
        rungs=rungs,
        best=rungs[-1][0],
        evaluations=evaluations,
        lint_gated=lint_gated,
        pruned=pruned,
        tile=spec.name,
    )


def schedule_key(device_name: str, config: ScheduleSearchConfig) -> tuple[Any, ...]:
    """The key of one search's result in a context's ``schedules`` cache.

    The AUTO dispatch path and :class:`~repro.runtime.InferenceSession`
    look winners up under it, so a whole layer stack pays for at most
    one search per (device, tile family, space, budget).
    """
    return device_name, config.tile, config.space.signature(), config.budget


def ensure_schedule(
    device: DeviceSpec | None = None,
    config: ScheduleSearchConfig | None = None,
    context: ExecutionContext | None = None,
    tile=None,
) -> SearchResult:
    """The context's memoized search result for *device* (searching once).

    *config* defaults to the context's ``schedule_search`` configuration
    (or a fresh :class:`ScheduleSearchConfig` if the context has none).
    An explicit *tile* retargets the config at that kernel family
    (:meth:`ScheduleSearchConfig.with_tile`), so f22 and f44 layers each
    get their own memoized search.
    """
    ctx = _ctx(context)
    device = device or ctx.device
    config = config or getattr(ctx, "schedule_search", None) or ScheduleSearchConfig()
    if tile is not None:
        config = config.with_tile(tile)
    search = functools.partial(
        successive_halving, config.space, device, budget=config.budget,
        context=ctx, tile=config.tile,
    )
    # Searched outside the cache's lock (it is long); a concurrent
    # duplicate search is wasteful but harmless: the result is
    # deterministic and the first one stored wins.
    return ctx.schedules.get_or_build(schedule_key(device.name, config), search)


def paper_ordering(result: SearchResult) -> dict:
    """The Fig. 7-9 orderings extracted from one search's rung-0 scores.

    Returns ratio entries (>1.0 means the paper's choice wins) for every
    axis the searched space covered, anchored at :data:`PAPER_SCHEDULE`:

    * ``natural_over_nvcc8`` / ``natural_over_cudnn7`` — Fig. 7;
    * ``ldg8_over_ldg2`` — Fig. 8 (paper: up to 1.24×);
    * ``sts6_over_sts2`` — Fig. 9 (paper: ~1.02×);
    * ``db2_over_db1`` — the §3.4 double-buffer ablation.

    Ratios are cycles(worse) / cycles(paper's choice), i.e. the
    simulated main-loop *throughput* advantage of the paper's setting.
    """

    def cycles(**kwargs: Any) -> float | None:
        score = result.rung0_score_for(dataclasses.replace(PAPER_SCHEDULE, **kwargs))
        return score.cycles_per_iter if score else None

    base = cycles()
    report: dict = {"anchor": PAPER_SCHEDULE.label()}
    if base is None:
        return report
    pairs = {
        "natural_over_nvcc8": cycles(yield_strategy="nvcc8"),
        "natural_over_cudnn7": cycles(yield_strategy="cudnn7"),
        "ldg8_over_ldg2": cycles(ldg_interleave=2),
        "sts6_over_sts2": cycles(sts_interleave=2),
        "db2_over_db1": cycles(double_buffer=1),
    }
    for name, other in pairs.items():
        if other is not None:
            report[name] = other / base
    return report
