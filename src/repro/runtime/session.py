"""InferenceSession: compile a layer stack once, execute it end to end.

The paper evaluates its kernel on whole ResNet/VGG layer stacks
(Table 1, Figs. 10-13); this module turns that evaluation into a
runnable inference path, the way cuDNN callers and TVM's graph runtime
do it:

1. **compile** — every layer's :class:`ConvProblem` goes through the
   dispatcher's one planner, :func:`repro.convolution.autotune.plan_layer`
   (perfmodel ranking, timed trials, or a forced algorithm), exactly
   once, producing a :class:`~repro.convolution.ConvPlan` with the
   chosen algorithm, its fallback order and its closed-form workspace
   size (``repro.perfmodel.workspace``).  Plans live in the context's
   plan cache, so a second session of the same stack on the same
   context compiles from lookups.  The context's
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
from ..convolution.api import META_ALGORITHMS, _run_planned
from ..convolution.autotune import ConvPlan, plan_layer
from ..perfmodel.selection import DISPATCH_CANDIDATES
from .arena import ArenaStats
from .context import ExecutionContext, activate, current_context


def session_mode(mode: str) -> str:
    """*mode*, upper-cased, if a session can plan it: an AUTO mode or a
    dispatch candidate to force.  Raises :class:`ConvConfigError` naming
    the accepted modes otherwise.  The serving frontend and fleet check
    a model's mode with it before they register or cost the model."""
    mode = mode.upper()
    if mode not in META_ALGORITHMS + DISPATCH_CANDIDATES:
        raise ConvConfigError(
            f"unknown session mode {mode!r}; choose from "
            f"{META_ALGORITHMS + DISPATCH_CANDIDATES}"
        )
    return mode


@dataclasses.dataclass
class LayerRun:
    """Measured execution of one layer.

    ``seconds`` is the wall-clock around the layer's convolution call
    (for an AUTO layer planned by this run, its winning timed trial).
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
    context: the owning :class:`ExecutionContext` (default: current).
        Planning reads its device, its arena's workspace limit (the
        budget over which candidates are excluded) and whether it
        carries a ``schedule_search`` config (:attr:`tune_schedule`).
    """

    def __init__(
        self,
        problems,
        *,
        mode: str = "AUTO_HEURISTIC",
        context: ExecutionContext | None = None,
    ):
        problems = list(problems)
        if not problems:
            raise ConvConfigError("InferenceSession needs at least one layer")
        for prob in problems:
            if not isinstance(prob, ConvProblem):
                raise ConvConfigError(
                    f"layers must be ConvProblem instances, got {prob!r}"
                )
        self.problems = problems
        self.mode = session_mode(mode)
        self.context = context or current_context()
        self._plans: list[ConvPlan] | None = None

    @property
    def tune_schedule(self) -> bool:
        """Whether compiling runs the ``repro.sched`` schedule search for
        fused-kernel layers: the context carries a ``schedule_search``
        config."""
        return self.context.schedule_search is not None

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def compile(self, calibration=None) -> list[ConvPlan]:
        """Select an algorithm and workspace size for every layer (once).

        ``mode="AUTO"`` needs *calibration* — ``(inputs, filters)``
        sample tensors, one pair per layer, of the layers' shapes —
        because its selection runs timed trials on real data (``run()``
        passes its own tensors automatically).  The other modes compile
        without touching data.
        """
        return self._compile(calibration)[0]

    def _compile(self, calibration) -> tuple[list[ConvPlan], list]:
        """:meth:`compile`, plus each layer's timed-trial output: the AUTO
        winner's output on *calibration* where this call planned the
        layer (a plan-cache miss), else ``None``."""
        if self._plans is not None:
            return self._plans, [None] * len(self._plans)
        layer_data = [None] * len(self.problems)
        if calibration is not None:
            layer_data = list(zip(*self._checked(*calibration)))
        elif self.mode == "AUTO":
            raise ConvConfigError(
                'mode="AUTO" compiles from timed trials: pass '
                "calibration=(inputs, filters) to compile(), or let "
                "run() compile with its own tensors"
            )
        ctx = self.context
        plans: list[ConvPlan] = []
        trials = []
        with activate(ctx):
            for prob, data in zip(self.problems, layer_data):
                plan, y = plan_layer(
                    prob, self.mode, ctx, device=ctx.device,
                    workspace_limit=ctx.arena.limit_bytes,
                    tune_schedule=self.tune_schedule,
                    dtype=np.result_type(*data) if data else np.float32,
                    data=data,
                )
                plans.append(plan)
                trials.append(y)
            # One workspace sized at the network's high-water mark: the core
            # of the arena story (not counted as a runtime "grow").
            ctx.arena.reserve_capacity(max(plan.workspace_bytes for plan in plans))
        self._plans = plans
        return plans, trials

    @property
    def plans(self) -> list[ConvPlan] | None:
        """The compiled per-layer plans (``None`` before compilation)."""
        return self._plans

    def _checked(self, inputs, filters) -> tuple[list, list]:
        """*inputs* and *filters* as lists, one per layer, of its shapes."""
        inputs, filters = list(inputs), list(filters)
        if len(inputs) != len(self.problems) or len(filters) != len(self.problems):
            raise ConvConfigError(
                f"session has {len(self.problems)} layers but got "
                f"{len(inputs)} inputs / {len(filters)} filters"
            )
        for prob, x, f in zip(self.problems, inputs, filters):
            for what, array, expect in (
                ("input", x, (prob.n, prob.c, prob.h, prob.w)),
                ("filter", f, (prob.k, prob.c, prob.r, prob.s)),
            ):
                shape = getattr(array, "shape", None)
                if shape != expect:
                    raise ConvConfigError(
                        f"layer {prob.label()}: {what} shape {shape} != {expect}"
                    )
        return inputs, filters

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
        arrays hold the same bits.  An AUTO layer that this call plans
        from these tensors is not executed again: its output is the
        winning trial's, and its ``seconds`` that trial's time.
        """
        inputs, filters = self._checked(inputs, filters)
        plans, trials = self._compile((inputs, filters))
        runs: list[LayerRun] = []
        outputs: list[np.ndarray] = []
        with activate(self.context):
            t0 = time.perf_counter()
            for prob, plan, x, f, y in zip(
                self.problems, plans, inputs, filters, trials
            ):
                label, workspace = prob.label(), plan.workspace_bytes
                with self.context.span("layer", label, algo=plan.algo):
                    with self.context.arena.reserve(workspace, tag=label):
                        if y is not None:
                            dt = plan.trial_times[plan.algo]
                        else:
                            start = time.perf_counter()
                            y = _run_planned(
                                plan.algo, x, f, prob.pad, prob.stride,
                                self.context.prepared_filters,
                            )
                            dt = time.perf_counter() - start
                runs.append(LayerRun(label, plan.algo, dt, workspace, y.shape))
                outputs.append(y)
            total = time.perf_counter() - t0
        return SessionResult(
            layers=runs,
            outputs=outputs,
            total_seconds=total,
            arena=self.context.arena.stats(),
        )
