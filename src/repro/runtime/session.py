"""InferenceSession: compile a layer stack once, execute it end to end.

The paper evaluates its kernel on whole ResNet/VGG layer stacks
(Table 1, Figs. 10-13); this module turns that evaluation into a
runnable inference path, the way cuDNN callers and TVM's graph runtime
do it:

1. **compile** — every layer's :class:`ConvProblem` goes through the
   perfmodel-driven selector (or timed trials, or a forced algorithm)
   exactly once, producing a :class:`LayerPlan` with the chosen
   algorithm, its fallback order and its closed-form workspace size
   (``repro.perfmodel.workspace``).  The context's
   :class:`~repro.runtime.arena.WorkspaceArena` is pre-sized to the
   plan's high-water mark.
2. **run** — the layers execute in order, each through
   :func:`repro.convolution.conv2d`'s path for its planned algorithm
   while its workspace is reserved from the arena, so the whole network
   shares one workspace whose peak is the *largest single layer's*, not
   the sum.  A fused Winograd layer takes its transformed filters from
   the context's :class:`~repro.runtime.context.PreparedFilterCache`, so
   the filter transform runs once per weight set rather than once per
   call.

Outputs are bit-identical to calling ``conv2d`` per layer with the same
algorithm — the session adds planning, reuse and observability, never
numerics.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from ..common.errors import ConvConfigError
from ..common.problem import ConvProblem
from ..convolution.api import FUSED_TILE_FOR_ALGO, TILE_FOR_ALGO, _run_planned
from ..convolution.autotune import _select_candidates
from .arena import ArenaStats
from .context import ExecutionContext, activate, current_context

#: Selection modes accepted by :class:`InferenceSession` on top of any
#: algorithm the dispatcher can plan
#: (``repro.perfmodel.selection.DISPATCH_CANDIDATES``).
SESSION_MODES = ("AUTO", "AUTO_HEURISTIC")


@dataclasses.dataclass(frozen=True)
class LayerPlan:
    """One layer's compiled execution decision.

    ``tile`` is the Winograd tile family the chosen algorithm executes
    on ("f22" / "f44"; ``None`` for non-Winograd algorithms).
    ``schedule`` is the SASS schedule the ``repro.sched`` search chose
    for a fused-kernel layer compiled with ``tune_schedule``; ``None``
    when tuning was off or another algorithm won.
    """

    prob: ConvProblem
    algo: str
    workspace_bytes: int
    predicted_seconds: float
    fallbacks: tuple[str, ...] = ()
    excluded: dict = dataclasses.field(default_factory=dict)
    schedule: object | None = None  # repro.sched.Schedule when tuned
    tile: str | None = None

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


@dataclasses.dataclass
class LayerRun:
    """Measured execution of one layer.

    ``seconds`` is the wall-clock around the layer's convolution call.
    """

    layer: str
    algo: str
    seconds: float
    workspace_bytes: int
    output_shape: tuple

    def to_dict(self) -> dict:
        return {
            "layer": self.layer,
            "algo": self.algo,
            "seconds": self.seconds,
            "workspace_bytes": self.workspace_bytes,
            "output_shape": list(self.output_shape),
        }


@dataclasses.dataclass
class SessionResult:
    """Per-layer and end-to-end statistics of one session run.

    ``total_seconds`` is the wall-clock around the whole run: the layer
    ``seconds`` plus arena and span bookkeeping.
    """

    layers: list[LayerRun]
    outputs: list[np.ndarray]
    total_seconds: float
    arena: ArenaStats

    def to_dict(self) -> dict:
        """JSON-serializable stats (outputs excluded — they are tensors)."""
        return {
            "layers": [run.to_dict() for run in self.layers],
            "total_seconds": self.total_seconds,
            "arena": dataclasses.asdict(self.arena),
        }

    def summary(self) -> str:
        from ..common.tables import format_table

        rows = [
            (run.layer, run.algo, run.workspace_bytes / (1024 * 1024),
             run.seconds * 1e3)
            for run in self.layers
        ]
        table = format_table(
            ["layer", "algo", "workspace MB", "ms"], rows,
            title="InferenceSession", float_fmt="{:.3f}",
        )
        a = self.arena
        return (
            f"{table}\n"
            f"end-to-end: {self.total_seconds * 1e3:.3f} ms over "
            f"{len(self.layers)} layers\n"
            f"arena: peak {a.peak_bytes / (1024 * 1024):.3f} MB, "
            f"{a.reserves} reserves, {a.reuses} reuses, {a.grows} grows"
        )


class InferenceSession:
    """Compile a list of :class:`ConvProblem` layers; execute them as one.

    Parameters
    ----------
    problems: the layer stack (e.g. ``repro.models.paper_layers()``).
    mode: ``"AUTO_HEURISTIC"`` (default — perfmodel-ranked, no data
        touched at compile time), ``"AUTO"`` (timed trials on the first
        run's tensors), or any algorithm in ``DISPATCH_CANDIDATES`` to
        force it for every layer.
    workspace_limit_bytes: excluded candidates whose closed-form
        workspace exceeds this budget; also installed as the arena's
        enforced limit.
    context: the owning :class:`ExecutionContext` (default: current).
    device: ranking device (default: the context's device).
    tune_schedule: run the ``repro.sched`` schedule-space search for
        WINOGRAD layers at compile time and record the winner on each
        :class:`LayerPlan`; ``None`` (default) defers to whether the
        context carries a ``schedule_search`` config.
    """

    def __init__(
        self,
        problems,
        *,
        mode: str = "AUTO_HEURISTIC",
        workspace_limit_bytes: int | None = None,
        context: ExecutionContext | None = None,
        device=None,
        tune_schedule: bool | None = None,
    ):
        problems = list(problems)
        if not problems:
            raise ConvConfigError("InferenceSession needs at least one layer")
        for prob in problems:
            if not isinstance(prob, ConvProblem):
                raise ConvConfigError(
                    f"layers must be ConvProblem instances, got {prob!r}"
                )
        from ..perfmodel.selection import DISPATCH_CANDIDATES

        mode = mode.upper()
        if mode not in SESSION_MODES + DISPATCH_CANDIDATES:
            raise ConvConfigError(
                f"unknown session mode {mode!r}; choose from "
                f"{SESSION_MODES + DISPATCH_CANDIDATES}"
            )
        self.problems = problems
        self.mode = mode
        self.workspace_limit_bytes = workspace_limit_bytes
        self.context = context or current_context()
        if device is None:
            self.device = self.context.device
        else:
            from ..gpusim.arch import resolve_device

            self.device = resolve_device(device)
        if tune_schedule is None:
            tune_schedule = self.context.schedule_search is not None
        self.tune_schedule = tune_schedule
        self._plans: list[LayerPlan] | None = None
        if workspace_limit_bytes is not None:
            self.context.arena.set_limit(workspace_limit_bytes)

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def compile(self, calibration=None) -> list[LayerPlan]:
        """Select an algorithm and workspace size for every layer (once).

        ``mode="AUTO"`` needs *calibration* — ``(inputs, filters)``
        sample tensors, one pair per layer — because its selection runs
        timed trials on real data (``run()`` passes its own tensors
        automatically).  The other modes compile without touching data.
        """
        if self._plans is not None:
            return self._plans
        plans: list[LayerPlan] = []
        with activate(self.context):
            for i, prob in enumerate(self.problems):
                with self.context.span(
                    "plan", prob.label(), mode=self.mode
                ) as span:
                    plan = self._plan_layer(
                        prob,
                        calibration[0][i] if calibration else None,
                        calibration[1][i] if calibration else None,
                    )
                    span["algo"] = plan.algo
                    if plan.tile is not None:
                        span["tile"] = plan.tile
                    if plan.schedule is not None:
                        span["schedule"] = plan.schedule.label()
                plans.append(plan)
            # One workspace sized at the network's high-water mark: the core
            # of the arena story (not counted as a runtime "grow").
            self.context.arena.reserve_capacity(
                max(plan.workspace_bytes for plan in plans)
            )
        self._plans = plans
        return plans

    def _plan_layer(self, prob, x, f) -> LayerPlan:
        from ..perfmodel.workspace import dispatch_workspace_bytes

        if self.mode == "AUTO":
            if x is None or f is None:
                raise ConvConfigError(
                    'mode="AUTO" compiles from timed trials: pass '
                    "calibration=(inputs, filters) to compile(), or let "
                    "run() compile with its own tensors"
                )
            from ..convolution import conv2d
            from ..convolution.autotune import PlanKey

            conv2d(
                x, f, pad=prob.pad, stride=prob.stride, algo="AUTO",
                workspace_limit_bytes=self.workspace_limit_bytes,
                device=self.device, context=self.context,
                tune_schedule=self.tune_schedule,
            )
            key = PlanKey.from_problem(
                prob, np.result_type(x, f), self.workspace_limit_bytes,
                self.device.name, "AUTO",
            )
            plan = self.context.plans.lookup(key)
            assert plan is not None, "AUTO dispatch must have cached a plan"
            return LayerPlan(
                prob=prob,
                algo=plan.algo,
                workspace_bytes=dispatch_workspace_bytes(prob, plan.algo),
                predicted_seconds=plan.trial_times.get(plan.algo, 0.0),
                fallbacks=plan.fallbacks,
                excluded=dict(plan.excluded),
                schedule=plan.schedule,
                tile=TILE_FOR_ALGO.get(plan.algo),
            )

        ranked, excluded, predictions = _select_candidates(
            prob, self.device, self.workspace_limit_bytes
        )
        if self.mode == "AUTO_HEURISTIC":
            if not ranked:
                raise ConvConfigError(
                    f"no algorithm eligible for {prob} under workspace "
                    f"limit {self.workspace_limit_bytes}; excluded: {excluded}"
                )
            algo, fallbacks = ranked[0], tuple(ranked[1:])
        else:  # a forced concrete algorithm
            algo, fallbacks = self.mode, ()
            if algo in excluded:
                raise ConvConfigError(
                    f"forced algorithm {algo} cannot run {prob}: "
                    f"{excluded[algo]}"
                )
        schedule = None
        if self.tune_schedule and algo in FUSED_TILE_FOR_ALGO:
            from ..sched import ScheduleSearchConfig, ensure_schedule

            config = self.context.schedule_search or ScheduleSearchConfig()
            schedule = ensure_schedule(
                device=self.device, config=config, context=self.context,
                tile=FUSED_TILE_FOR_ALGO[algo],
            ).best.schedule
        return LayerPlan(
            prob=prob,
            algo=algo,
            workspace_bytes=dispatch_workspace_bytes(prob, algo),
            predicted_seconds=predictions[algo],
            fallbacks=fallbacks,
            excluded=excluded,
            schedule=schedule,
            tile=TILE_FOR_ALGO.get(algo),
        )

    @property
    def plans(self) -> list[LayerPlan] | None:
        """The compiled per-layer plans (``None`` before compilation)."""
        return self._plans

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, inputs, filters) -> SessionResult:
        """Execute every layer; returns outputs plus per-layer/e2e stats.

        *inputs* and *filters* are sequences with one NCHW activation
        and one KCRS filter per layer (the paper's layers are evaluated
        independently; chain outputs yourself for a sequential network).
        Fused Winograd layers reuse the transformed filters of an earlier
        run (of any session on this context) while the same filter
        arrays hold the same bits.
        """
        inputs, filters = list(inputs), list(filters)
        if len(inputs) != len(self.problems) or len(filters) != len(self.problems):
            raise ConvConfigError(
                f"session has {len(self.problems)} layers but got "
                f"{len(inputs)} inputs / {len(filters)} filters"
            )
        for prob, x, f in zip(self.problems, inputs, filters):
            expect_x = (prob.n, prob.c, prob.h, prob.w)
            expect_f = (prob.k, prob.c, prob.r, prob.s)
            if getattr(x, "shape", None) != expect_x:
                raise ConvConfigError(
                    f"layer {prob.label()}: input shape "
                    f"{getattr(x, 'shape', None)} != {expect_x}"
                )
            if getattr(f, "shape", None) != expect_f:
                raise ConvConfigError(
                    f"layer {prob.label()}: filter shape "
                    f"{getattr(f, 'shape', None)} != {expect_f}"
                )
        plans = self.compile(calibration=(inputs, filters))
        runs: list[LayerRun] = []
        outputs: list[np.ndarray] = []
        with activate(self.context):
            t0 = time.perf_counter()
            for plan, x, f in zip(plans, inputs, filters):
                label = plan.prob.label()
                with self.context.span("layer", label, algo=plan.algo):
                    with self.context.arena.reserve(plan.workspace_bytes, tag=label):
                        start = time.perf_counter()
                        y = _run_planned(
                            plan.algo, x, f, plan.prob.pad, plan.prob.stride,
                            self.context.prepared_filters,
                        )
                        dt = time.perf_counter() - start
                runs.append(LayerRun(label, plan.algo, dt, plan.workspace_bytes, y.shape))
                outputs.append(y)
            total = time.perf_counter() - t0
        return SessionResult(
            layers=runs,
            outputs=outputs,
            total_seconds=total,
            arena=self.context.arena.stats(),
        )
