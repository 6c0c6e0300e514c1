"""Cross-device schedule validation: what a plan tuned elsewhere costs.

The paper evaluates every result on *both* Tesla V100 (Volta) and RTX
2070 (Turing), and §7.1's occupancy argument (96 KB vs 64 KB shared
memory per SM) predicts the two machines can genuinely prefer different
schedules.  This module quantifies that: :func:`validate_plan_on`
re-simulates a schedule tuned on one device against another device's
own searched optimum and reports the **penalty** — how much slower the
foreign schedule runs than the best schedule known for the target
device.

Measurement discipline: simulated marginal cycles per main-loop
iteration drift with the iteration budget, so cross-candidate ratios
are only meaningful at a *fixed* budget where every candidate was
measured — which is exactly the search's rung 0 (see
``SearchResult.rung0_score_for``).  Validation therefore evaluates the
foreign schedule at the rung-0 budget and compares it against the
target device's rung-0 floor, reusing the target's (memoized) search.

This is the decision input for fleet routing
(:class:`repro.serving.fleet.FleetRouter`): a plan that validates with
a near-zero penalty can migrate devices freely; one with a real penalty
should be re-tuned on arrival.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

from ..common.errors import ConvConfigError
from ..gpusim.arch import DeviceSpec, device_key, resolve_device
from .search import (
    ScheduleSearchConfig,
    SearchResult,
    ensure_schedule,
    evaluate_schedule,
)
from .space import Schedule

if TYPE_CHECKING:
    from ..runtime import ExecutionContext


@dataclasses.dataclass(frozen=True)
class CrossDeviceReport:
    """One schedule's measured cost away from the device it was tuned on.

    ``penalty_pct`` is the headline number: how many percent slower the
    foreign schedule's main loop runs on ``validated_on`` than that
    device's own best rung-0 candidate.  Zero means the schedule
    transfers perfectly (both devices agree on the winner); positive
    means a plan migrated across the fleet without re-tuning leaves
    cycles on the table.
    """

    schedule: Schedule
    tile: str
    tuned_on: str
    validated_on: str
    iters: int
    tuned_cycles: float  # the schedule on its home device
    foreign_cycles: float  # the schedule re-simulated on validated_on
    foreign_best: str  # validated_on's own rung-0 floor (label)
    foreign_best_cycles: float

    @property
    def penalty_pct(self) -> float:
        """Percent slowdown vs the target device's own best schedule."""
        return (self.foreign_cycles / self.foreign_best_cycles - 1.0) * 100.0

    def to_dict(self) -> dict:
        return {
            "schedule": self.schedule.label(),
            "tile": self.tile,
            "tuned_on": self.tuned_on,
            "validated_on": self.validated_on,
            "iters": self.iters,
            "tuned_cycles": self.tuned_cycles,
            "foreign_cycles": self.foreign_cycles,
            "foreign_best": self.foreign_best,
            "foreign_best_cycles": self.foreign_best_cycles,
            "penalty_pct": self.penalty_pct,
        }


def _plan_schedule(plan) -> tuple[Schedule, str | None, str | None]:
    """(schedule, tile, tuned_on device name) extracted from *plan*.

    Accepts a :class:`~repro.sched.search.SearchResult`, a
    :class:`~repro.convolution.ConvPlan` (or anything carrying
    ``schedule``/``tile`` attributes), or a bare :class:`Schedule`.
    """
    if isinstance(plan, SearchResult):
        return plan.best.schedule, plan.tile, plan.device
    if isinstance(plan, Schedule):
        return plan, None, None
    schedule = getattr(plan, "schedule", None)
    if isinstance(schedule, Schedule):
        return schedule, getattr(plan, "tile", None), None
    raise ConvConfigError(
        "validate_plan_on needs a SearchResult, a ConvPlan with a tuned "
        f"schedule, or a Schedule; got {plan!r}"
    )


def validate_plan_on(
    plan,
    device: DeviceSpec | str,
    *,
    tuned_on: DeviceSpec | str | None = None,
    tile=None,
    config: ScheduleSearchConfig | None = None,
    context: ExecutionContext | None = None,
) -> CrossDeviceReport:
    """Re-simulate *plan*'s schedule on *device*; report the penalty.

    Parameters
    ----------
    plan: a :class:`~repro.sched.search.SearchResult` (carries its own
        schedule, tile and home device), a
        :class:`~repro.convolution.ConvPlan` with a tuned
        schedule, or a bare :class:`Schedule`.
    device: the target device to validate against (spec or any
        registry name).
    tuned_on: the home device (required when *plan* does not carry one).
    tile: kernel family override (required for a bare
        :class:`Schedule`; defaults to the plan's own tile).
    config: the search configuration used to find the target device's
        own optimum (defaults to the context's ``schedule_search``
        config, else the family's full grid).  The target search is
        memoized in the context's ``schedules`` cache,
        so validating many plans against one device pays for one
        search.
    """
    schedule, plan_tile, plan_device = _plan_schedule(plan)
    tile = tile if tile is not None else plan_tile
    home = resolve_device(tuned_on if tuned_on is not None else plan_device)
    target = resolve_device(device)

    # The target device's own (memoized) search supplies both the rung-0
    # floor and the canonical tile/budget to measure the plan at.
    foreign_result = ensure_schedule(
        device=target, config=config, context=context, tile=tile,
    )
    tile = foreign_result.tile
    iters = foreign_result.budget.base_iters
    foreign = evaluate_schedule(
        schedule, target, iters=iters, context=context, tile=tile,
    )
    native = evaluate_schedule(
        schedule, home, iters=iters, context=context, tile=tile,
    )
    floor = foreign_result.rungs[0][0]
    # The foreign schedule itself may sit outside the searched grid and
    # beat the grid floor; the floor is then whichever is cheaper, so
    # the penalty is never negative by construction artifacts.
    if foreign.cycles_per_iter < floor.cycles_per_iter:
        floor = foreign
    return CrossDeviceReport(
        schedule=schedule,
        tile=foreign_result.tile,
        tuned_on=device_key(home) or home.name,
        validated_on=device_key(target) or target.name,
        iters=iters,
        tuned_cycles=native.cycles_per_iter,
        foreign_cycles=foreign.cycles_per_iter,
        foreign_best=floor.schedule.label(),
        foreign_best_cycles=floor.cycles_per_iter,
    )


def cross_validate(
    results: dict[str, SearchResult],
    *,
    config: ScheduleSearchConfig | None = None,
    contexts: dict[str, ExecutionContext] | None = None,
) -> list[CrossDeviceReport]:
    """Validate every search winner on every *other* device.

    *results* maps device keys to their own searches (one tile family);
    *contexts* optionally maps device keys to the contexts whose
    schedule books memoize those searches.  Returns one report per
    ordered device pair — the Table-5-style cross-arch matrix.
    """
    reports: list[CrossDeviceReport] = []
    for src_key, result in results.items():
        for dst_key in results:
            if dst_key == src_key:
                continue
            ctx = (contexts or {}).get(dst_key)
            reports.append(
                validate_plan_on(
                    result, dst_key, config=config, context=ctx,
                )
            )
    return reports
