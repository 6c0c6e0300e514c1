"""Schedule-space autotuning for the fused kernel's SASS instruction
schedule (§6): the search space (:mod:`repro.sched.space`), the
successive-halving tuner (:mod:`repro.sched.search`) and the
``python -m repro sched`` CLI (:mod:`repro.sched.cli`).
"""

from .crossdev import CrossDeviceReport, cross_validate, validate_plan_on
from .search import (
    CandidateScore,
    ScheduleSearchConfig,
    SearchBudget,
    SearchResult,
    ensure_schedule,
    evaluate_schedule,
    paper_ordering,
    prune_candidates,
    static_cost_candidate,
    successive_halving,
)
from .space import (
    CUDNN_SCHEDULE,
    DEFAULT_SPACE,
    F44_SPACE,
    PAPER_SCHEDULE,
    QUICK_SPACE,
    SCHEDULE_FIELDS,
    Schedule,
    ScheduleSpace,
    space_for_tile,
)

__all__ = [
    "CUDNN_SCHEDULE",
    "CandidateScore",
    "CrossDeviceReport",
    "DEFAULT_SPACE",
    "F44_SPACE",
    "PAPER_SCHEDULE",
    "QUICK_SPACE",
    "SCHEDULE_FIELDS",
    "Schedule",
    "ScheduleSearchConfig",
    "ScheduleSpace",
    "SearchBudget",
    "SearchResult",
    "cross_validate",
    "ensure_schedule",
    "evaluate_schedule",
    "paper_ordering",
    "prune_candidates",
    "space_for_tile",
    "static_cost_candidate",
    "successive_halving",
    "validate_plan_on",
]
