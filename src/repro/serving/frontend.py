"""Async serving frontend: dynamic batching over the unified runtime.

The paper's central result is that the batch dimension N is what drives
Winograd throughput on GPUs (§7: one image's tiles cannot fill the
machine; a stack of them can).  The runtime below this module only
*executes* batches it is handed — this module is the layer that
**creates** them from concurrent single-image traffic, the way Clipper
does it (adaptive batch formation under a latency deadline; PAPERS.md):

1. Clients ``await frontend.submit(tenant, model, image)`` with N=1
   inputs.  Each (tenant, model) pair — the *layer-stack signature* —
   has its own queue.
2. A per-signature flusher coalesces queued requests into one batched
   :class:`~repro.common.problem.ConvProblem` stack, flushing when the
   batch reaches ``max_batch`` **or** the oldest request has waited
   ``max_queue_delay_s``, whichever comes first.
3. The formed batch runs through a cached
   :class:`~repro.runtime.session.InferenceSession` compiled for that
   batch size, inside the **tenant's own**
   :class:`~repro.runtime.context.ExecutionContext` — plan caches,
   schedule books, dispatch stats and the workspace arena never cross
   tenants.
4. Admission control sheds load instead of degrading everyone: a full
   signature queue or a dispatch that would blow the tenant's
   :class:`~repro.runtime.arena.WorkspaceArena` budget resolves the
   affected requests with a typed
   :class:`~repro.common.errors.BackpressureError` — a raw
   :class:`~repro.common.errors.WorkspaceLimitError` never reaches a
   client.

Everything observable lands in :class:`~repro.serving.metrics.ServingMetrics`
(:meth:`ServingFrontend.stats` exports it alongside each tenant's
dispatch stats — which count every session layer compiled — arena
counters and prepared-filter cache counters, and every batch records a
``batch`` trace span in the tenant's context).
The per-batch-size sessions of one tenant share its context, so a
model's fused Winograd filters are transformed once for all batch sizes.
"""

from __future__ import annotations

import asyncio
import collections
import dataclasses
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..common.errors import (
    BackpressureError,
    ConvConfigError,
    ReproError,
    ServingError,
    WorkspaceLimitError,
)
from ..common.problem import ConvProblem
from ..convolution.api import META_ALGORITHMS
from ..perfmodel.selection import algorithm_supports
from ..perfmodel.workspace import DISPATCH_WORKSPACE, reserved_bytes
from ..runtime.context import ExecutionContext
from ..runtime.session import InferenceSession, session_mode
from .config import ServingConfig
from .metrics import ServingMetrics


@dataclasses.dataclass(frozen=True)
class ModelSpec:
    """One servable layer stack: N=1 problems plus their filters.

    Filters are part of the model (server-resident weights), not the
    request — that is what makes requests *batchable*: two requests to
    the same model differ only in their activations, so stacking them
    along N is exact.
    """

    name: str
    problems: tuple[ConvProblem, ...]
    filters: tuple[np.ndarray, ...]
    mode: str | None = None  # override the frontend-wide session mode

    def __post_init__(self) -> None:
        if not self.name:
            raise ServingError("ModelSpec needs a non-empty name")
        if not self.problems:
            raise ServingError(f"model {self.name!r} needs at least one layer")
        if len(self.problems) != len(self.filters):
            raise ServingError(
                f"model {self.name!r}: {len(self.problems)} layers but "
                f"{len(self.filters)} filters"
            )
        for prob, filt in zip(self.problems, self.filters):
            if not isinstance(prob, ConvProblem):
                raise ServingError(
                    f"model {self.name!r}: layers must be ConvProblem, got {prob!r}"
                )
            if prob.n != 1:
                raise ServingError(
                    f"model {self.name!r} layer {prob.label()}: serving models "
                    f"are single-image (n=1) stacks, got n={prob.n}; the "
                    "frontend forms the batch dimension"
                )
            expect = (prob.k, prob.c, prob.r, prob.s)
            if getattr(filt, "shape", None) != expect:
                raise ServingError(
                    f"model {self.name!r} layer {prob.label()}: filter shape "
                    f"{getattr(filt, 'shape', None)} != {expect}"
                )

    def signature(self) -> tuple:
        """The layer-stack signature batching keys on (geometry only)."""
        return tuple(
            (p.c, p.h, p.w, p.k, p.r, p.s, p.pad) for p in self.problems
        )


def model_mode(model: ModelSpec, config: ServingConfig) -> str:
    """The session mode *model* runs in under *config*.

    Raises :class:`ServingError` naming the model if no session can run
    that mode (:func:`repro.runtime.session.session_mode`).
    """
    try:
        return session_mode(model.mode or config.mode)
    except ConvConfigError as exc:
        raise ServingError(f"model {model.name!r}: {exc}") from None


@dataclasses.dataclass
class _Request:
    """One queued single-image inference (internal)."""

    inputs: list[np.ndarray]  # one (1, C, H, W) activation per layer
    future: asyncio.Future
    submitted_at: float  # loop.time() at admission
    expires_at: float  # submitted_at + max_queue_delay_s


class _TenantState:
    """Per-tenant isolation unit: context, models, compiled sessions."""

    def __init__(self, name: str, context: ExecutionContext):
        self.name = name
        self.context = context
        self.models: dict[str, ModelSpec] = {}
        self.batch_caps: dict[str, int] = {}
        self.sessions: dict[tuple[str, int], InferenceSession] = {}
        self.lock = threading.Lock()  # sessions dict: dispatch threads race


class _SignatureQueue:
    """One (tenant, model) request queue plus its flusher task."""

    def __init__(self, frontend: "ServingFrontend", tenant: _TenantState,
                 model: ModelSpec):
        self.frontend = frontend
        self.tenant = tenant
        self.model = model
        self.key = (tenant.name, model.name)
        self.pending: collections.deque[_Request] = collections.deque()
        self.wake = asyncio.Event()
        self.task = asyncio.get_running_loop().create_task(
            self._run(), name=f"repro-serve-{tenant.name}-{model.name}"
        )

    # ------------------------------------------------------------------
    async def _run(self) -> None:
        cfg = self.frontend.config
        metrics = self.frontend.metrics
        loop = asyncio.get_running_loop()
        cap = self.tenant.batch_caps[self.model.name]
        try:
            while True:
                while not self.pending:
                    self.wake.clear()
                    await self.wake.wait()
                # Batch window: grow until `cap` requests are queued or
                # the *oldest* request's deadline arrives.
                first = self.pending[0]
                slept = False
                while len(self.pending) < cap:
                    delay = first.expires_at - loop.time()
                    if delay <= 0:
                        break
                    slept = True
                    self.wake.clear()
                    try:
                        await asyncio.wait_for(self.wake.wait(), timeout=delay)
                    except asyncio.TimeoutError:
                        break
                if slept and len(self.pending) < cap:
                    # We held the batch open on purpose; audit how late
                    # the deadline flush actually fired.  (A flush with
                    # delay <= 0 up front was blocked behind a previous
                    # dispatch — backpressure, not a policy violation.)
                    overshoot = loop.time() - first.expires_at
                    if overshoot > cfg.deadline_slack_s:
                        metrics.deadline_overshoot()
                batch = [
                    self.pending.popleft()
                    for _ in range(min(cap, len(self.pending)))
                ]
                metrics.queue_depth_changed(self.key, len(self.pending))
                await self._dispatch(batch)
        except asyncio.CancelledError:
            self._fail_pending(ServingError("serving frontend closed"))
            raise

    def _fail_pending(self, exc: Exception) -> None:
        while self.pending:
            req = self.pending.popleft()
            if not req.future.done():
                req.future.set_exception(exc)
        self.frontend.metrics.queue_depth_changed(self.key, 0)

    # ------------------------------------------------------------------
    async def _dispatch(self, batch: list[_Request]) -> None:
        metrics = self.frontend.metrics
        loop = asyncio.get_running_loop()
        metrics.batch_dispatched(len(batch))
        try:
            outputs = await loop.run_in_executor(
                self.frontend._executor,
                self.frontend._run_batch,
                self.tenant, self.model, [req.inputs for req in batch],
            )
        except WorkspaceLimitError as exc:
            # The arena budget is admission policy, not a crash: shed
            # this batch as typed backpressure the client can retry.
            self._resolve_error(
                batch,
                BackpressureError(
                    f"batch of {len(batch)} for model {self.model.name!r} "
                    f"over the tenant workspace budget: {exc}",
                    reason="workspace_limit",
                ),
                rejected_reason="workspace_limit",
            )
            return
        except Exception as exc:  # noqa: BLE001 - server must outlive a batch
            for req in batch:
                metrics.request_failed()
            self._resolve_error(
                batch,
                exc if isinstance(exc, ReproError)
                else ServingError(f"batch execution failed: {exc!r}"),
            )
            return
        now = loop.time()
        for req, outs in zip(batch, outputs):
            metrics.request_completed(now - req.submitted_at)
            if not req.future.done():
                req.future.set_result(outs)

    def _resolve_error(self, batch, exc, rejected_reason: str | None = None):
        for req in batch:
            if rejected_reason is not None:
                self.frontend.metrics.request_rejected(rejected_reason)
            if not req.future.done():
                req.future.set_exception(exc)


class ServingFrontend:
    """Asyncio request frontend with per-signature dynamic batching.

    Usage::

        frontend = ServingFrontend(ServingConfig(max_batch=32,
                                                 max_queue_delay_s=0.002))
        frontend.register_model("tenant-a", ModelSpec(
            name="conv3", problems=(prob_n1,), filters=(weights,)))
        ...
        outs = await frontend.submit("tenant-a", "conv3", image)   # (C,H,W)
        await frontend.close()

    ``submit`` resolves to one output per layer, each shaped
    ``(K, H', W')`` — the request's slice of the batched stack.  Slicing
    a batch is numerically exact at the algorithm level; the batched
    kernel may order fp32 reductions differently than an N=1 call, so
    outputs match a solo run to ``repro.common.conv_tolerance``, not
    necessarily bit-for-bit.
    """

    def __init__(self, config: ServingConfig | None = None, *, device=None):
        self.config = config or ServingConfig()
        if device is None:
            self.device = None  # each tenant context resolves its own
        else:
            from ..gpusim.arch import resolve_device

            self.device = resolve_device(device)
        self.metrics = ServingMetrics()
        self._tenants: dict[str, _TenantState] = {}
        self._queues: dict[tuple[str, str], _SignatureQueue] = {}
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.dispatch_workers,
            thread_name_prefix="repro-serve",
        )
        self._closed = False

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register_model(self, tenant: str, model: ModelSpec) -> None:
        """Install *model* for *tenant* (creating the tenant on first use).

        Raises :class:`ServingError` if the model's session mode is not
        one a session can run, if it forces an algorithm that cannot run
        one of the layers, or if even a batch of one cannot fit the
        workspace budget — such a model could never be served, so the
        failure belongs at registration, not per request.
        """
        if self._closed:
            raise ServingError("serving frontend is closed")
        if not tenant:
            raise ServingError("tenant name must be non-empty")
        mode = model_mode(model, self.config)
        for prob in model.problems:
            if mode not in META_ALGORITHMS and not algorithm_supports(mode, prob):
                raise ServingError(
                    f"model {model.name!r} layer {prob.label()}: {mode} cannot run "
                    f"a {prob.r}x{prob.s} filter at pad {prob.pad}, stride "
                    f"{prob.stride}; choose an AUTO mode or another algorithm"
                )
        state = self._tenants.get(tenant)
        if state is None:
            ctx = ExecutionContext(
                device=self.device,
                workspace_limit_bytes=self.config.workspace_limit_bytes,
            )
            state = self._tenants[tenant] = _TenantState(tenant, ctx)
        if model.name in state.models:
            raise ServingError(
                f"tenant {tenant!r} already has a model named {model.name!r}"
            )
        cap = self._budget_batch_cap(model, mode)
        if cap < 1:
            raise ServingError(
                f"model {model.name!r} cannot run even at batch 1 under the "
                f"{self.config.workspace_limit_bytes} B workspace budget"
            )
        state.models[model.name] = model
        state.batch_caps[model.name] = cap

    def _budget_batch_cap(self, model: ModelSpec, mode: str) -> int:
        """Largest batch N whose planned workspace fits the arena budget.

        Only computable up front when the session *mode* forces a
        concrete algorithm (its closed-form workspace is monotone in N);
        the AUTO modes already exclude over-budget algorithms per layer
        at plan time, so they keep the configured ``max_batch``.
        """
        limit = self.config.workspace_limit_bytes
        if limit is None or mode in META_ALGORITHMS:
            return self.config.max_batch
        workspace = DISPATCH_WORKSPACE[mode]
        cap = 0
        for n in range(1, self.config.max_batch + 1):
            worst = max(
                reserved_bytes(workspace(p.with_batch(n))) for p in model.problems
            )
            if worst > limit:
                break
            cap = n
        return cap

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    async def submit(self, tenant: str, model: str, inputs) -> list[np.ndarray]:
        """Queue one single-image request; resolves to per-layer outputs.

        *inputs* is one ``(C, H, W)`` (or ``(1, C, H, W)``) activation
        per layer — a bare array is accepted for single-layer models.
        Raises :class:`BackpressureError` when admission control sheds
        the request (full queue, workspace budget) and
        :class:`ServingError` on malformed submissions.
        """
        if self._closed:
            raise ServingError("serving frontend is closed")
        state = self._tenants.get(tenant)
        if state is None:
            raise ServingError(f"unknown tenant {tenant!r}")
        spec = state.models.get(model)
        if spec is None:
            raise ServingError(
                f"tenant {tenant!r} has no model {model!r}; registered: "
                f"{sorted(state.models)}"
            )
        images = self._normalize_inputs(spec, inputs)
        queue = self._queues.get((tenant, model))
        if queue is None:
            queue = self._queues[(tenant, model)] = _SignatureQueue(
                self, state, spec
            )
        if len(queue.pending) >= self.config.max_queue_depth:
            self.metrics.request_rejected("queue_full")
            raise BackpressureError(
                f"queue for {tenant!r}/{model!r} is at its "
                f"{self.config.max_queue_depth}-request depth bound",
                reason="queue_full",
            )
        loop = asyncio.get_running_loop()
        now = loop.time()
        request = _Request(
            inputs=images,
            future=loop.create_future(),
            submitted_at=now,
            expires_at=now + self.config.max_queue_delay_s,
        )
        self.metrics.request_submitted()
        queue.pending.append(request)
        self.metrics.queue_depth_changed(queue.key, len(queue.pending))
        queue.wake.set()
        return await request.future

    def _normalize_inputs(self, spec: ModelSpec, inputs) -> list[np.ndarray]:
        if isinstance(inputs, np.ndarray):
            inputs = [inputs]
        inputs = list(inputs)
        if len(inputs) != len(spec.problems):
            raise ServingError(
                f"model {spec.name!r} has {len(spec.problems)} layers but "
                f"got {len(inputs)} inputs"
            )
        images = []
        for prob, x in zip(spec.problems, inputs):
            expect = (prob.c, prob.h, prob.w)
            shape = getattr(x, "shape", None)
            if shape == expect:
                x = x[np.newaxis]
            elif shape != (1, *expect):
                raise ServingError(
                    f"model {spec.name!r} layer {prob.label()}: input shape "
                    f"{shape} != {expect} (or (1, *{expect}))"
                )
            images.append(np.ascontiguousarray(x))
        return images

    # ------------------------------------------------------------------
    # Batched execution (dispatch threads)
    # ------------------------------------------------------------------
    def _run_batch(self, tenant: _TenantState, model: ModelSpec,
                   inputs_list: list[list[np.ndarray]]) -> list[list[np.ndarray]]:
        batch = len(inputs_list)
        session = self._session(tenant, model, batch)
        stacked = [
            np.concatenate([images[i] for images in inputs_list], axis=0)
            for i in range(len(model.problems))
        ]
        with tenant.context.span(
            "batch", f"{tenant.name}/{model.name}", batch=batch
        ) as span:
            result = session.run(stacked, list(model.filters))
            span["seconds"] = result.total_seconds
        return [
            [layer_out[i] for layer_out in result.outputs]
            for i in range(batch)
        ]

    def _session(self, tenant: _TenantState, model: ModelSpec,
                 batch: int) -> InferenceSession:
        key = (model.name, batch)
        with tenant.lock:
            session = tenant.sessions.get(key)
            if session is None:
                session = InferenceSession(
                    [p.with_batch(batch) for p in model.problems],
                    mode=(model.mode or self.config.mode),
                    context=tenant.context,
                )
                tenant.sessions[key] = session
        return session

    # ------------------------------------------------------------------
    # Observability / lifecycle
    # ------------------------------------------------------------------
    def tenant_context(self, tenant: str) -> ExecutionContext:
        """The tenant's isolated context (for tests and trace export)."""
        state = self._tenants.get(tenant)
        if state is None:
            raise ServingError(f"unknown tenant {tenant!r}")
        return state.context

    def stats(self) -> dict:
        """Serving metrics alongside each tenant's runtime counters."""
        return {
            "config": self.config.to_dict(),
            "serving": self.metrics.snapshot().to_dict(),
            "tenants": {
                name: {
                    "models": sorted(state.models),
                    "batch_caps": dict(state.batch_caps),
                    "sessions_compiled": len(state.sessions),
                    "dispatch": dataclasses.asdict(state.context.dispatch_stats),
                    "arena": dataclasses.asdict(state.context.arena.stats()),
                    "prepared_filters": dataclasses.asdict(
                        state.context.prepared_filters.stats()
                    ),
                    "trace_spans": len(state.context.tracer.spans()),
                }
                for name, state in self._tenants.items()
            },
        }

    async def close(self) -> None:
        """Cancel flushers, fail queued requests, release the executor."""
        if self._closed:
            return
        self._closed = True
        tasks = [queue.task for queue in self._queues.values()]
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        self._executor.shutdown(wait=True)

    async def __aenter__(self) -> "ServingFrontend":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()
