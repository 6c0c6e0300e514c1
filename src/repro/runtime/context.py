"""ExecutionContext: one object owning every piece of runtime state.

Before this layer existed, execution state was scattered as module
globals: the plan cache and dispatch stats in ``repro.convolution``, the
kernel-build and simulation caches in ``repro.kernels.cache``, the lint
gate and the simulator's memory images in ``repro.kernels.runner``.
Tests had to call three different ``reset_*``/``clear_*`` helpers to get
a clean slate, and two workloads in one process could not be isolated
from each other at all.

:class:`ExecutionContext` inverts that ownership: *it* holds the device,
the caches (each a :class:`~repro.common.cache.LRUCache` with the same
counters), the dispatch stats, the workspace arena, the prepared
fused-Winograd filters of :class:`InferenceSession` runs and the trace
hooks, and the legacy module-level helpers now delegate to the **default
context** (so every existing public API — ``conv2d``,
``get_dispatch_stats``, ``get_kernel_cache_stats`` … — behaves exactly
as before).  Code that wants isolation builds its own context and either
passes it explicitly (``conv2d(..., context=ctx)``) or activates it for
a dynamic extent::

    ctx = ExecutionContext(device=RTX2070)
    with activate(ctx):
        conv2d(x, f, algo="AUTO_HEURISTIC")   # uses ctx's plan cache
    ctx.reset()                                # one call clears everything

Tracing: every kernel build, plan selection and simulator launch records
a :class:`TraceSpan`; hooks added with :meth:`ExecutionContext.add_trace_hook`
observe spans as they complete, and :meth:`ExecutionContext.export_trace`
/ :meth:`write_trace` serialize the buffer as JSON (the artifact the
session benchmark uploads from CI).

(Unrelated to :class:`repro.gpusim.engine.ExecutionContext`, which is the
simulator's per-block instruction context; this one is the *library's*
execution context.)
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import json
import threading
import time
import weakref
from typing import Callable, Iterator

import numpy as np

from ..common.cache import LRUCache
from ..convolution.metrics import DispatchStats
from ..gpusim.arch import DeviceSpec, resolve_device
from ..kernels.cache import SimulationCache
from .arena import WorkspaceArena

#: Trace buffer bound: old spans are dropped (and counted) rather than
#: letting a long-lived process grow the buffer without limit.
DEFAULT_TRACE_SPANS = 4096


@dataclasses.dataclass
class TraceSpan:
    """One timed region of runtime work (a build, a plan, a launch)."""

    kind: str  # "build" | "plan" | "launch" | "layer" | caller-defined
    label: str
    start: float  # time.perf_counter() at entry
    end: float
    attrs: dict

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "label": self.label,
            "start": self.start,
            "end": self.end,
            "seconds": self.seconds,
            "attrs": self.attrs,
        }


class Tracer:
    """Bounded span buffer plus observer hooks (thread-safe)."""

    def __init__(self, max_spans: int = DEFAULT_TRACE_SPANS):
        self._lock = threading.RLock()
        self._spans: collections.deque[TraceSpan] = collections.deque(maxlen=max_spans)
        self._hooks: list[Callable[[TraceSpan], None]] = []
        self.dropped = 0

    @contextlib.contextmanager
    def span(self, kind: str, label: str, **attrs) -> Iterator[dict]:
        """Record a span around the ``with`` body; yields the attrs dict
        so the body can attach results (e.g. the chosen algorithm)."""
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            finished = TraceSpan(
                kind=kind, label=label, start=start,
                end=time.perf_counter(), attrs=attrs,
            )
            with self._lock:
                if len(self._spans) == self._spans.maxlen:
                    self.dropped += 1
                self._spans.append(finished)
                hooks = list(self._hooks)
            for hook in hooks:
                hook(finished)

    def add_hook(self, hook: Callable[[TraceSpan], None]) -> None:
        with self._lock:
            self._hooks.append(hook)

    def remove_hook(self, hook: Callable[[TraceSpan], None]) -> None:
        with self._lock:
            self._hooks.remove(hook)

    def spans(self) -> list[TraceSpan]:
        with self._lock:
            return list(self._spans)

    def export(self) -> list[dict]:
        return [span.to_dict() for span in self.spans()]

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self.dropped = 0


@dataclasses.dataclass
class PreparedFilterStats:
    """Counters for :class:`PreparedFilterCache` (queryable at runtime)."""

    hits: int = 0
    misses: int = 0
    entries: int = 0
    bytes: int = 0  # kept filter copies plus their transformed filters


@dataclasses.dataclass
class _PreparedFilter:
    ref: weakref.ref  # the caller's filter array
    kept: np.ndarray  # private copy of its bits when it was transformed
    prepared: np.ndarray  # the transformed filters of ``kept``


def _same_bits(kept: np.ndarray, f: np.ndarray) -> bool:
    """Whether *f* has *kept*'s dtype, shape and bits: −0.0 differs from
    0.0, and a NaN matches only its own payload."""
    if kept.dtype != f.dtype or kept.shape != f.shape:
        return False
    try:
        unsigned = np.dtype(f"u{f.itemsize}")
    except TypeError:  # no unsigned integer this wide (complex128, longdouble)
        return kept.tobytes() == f.tobytes()
    return bool(np.array_equal(kept.view(unsigned), f.view(unsigned)))


class PreparedFilterCache:
    """Transformed fused-Winograd filters, reused while the weights hold.

    An inference caller's filters are its weights and change only when
    the model does, so the filter transform (the paper's separate FTF
    kernel, §4.1) need not rerun on every call.  :meth:`get` looks a
    filter up by (tile, array identity) and reuses the stored transform
    only while the caller's array still holds the bits of the private
    copy kept with the entry; otherwise it transforms again and replaces
    the entry.  An entry lives as long as the caller's array (a weak
    reference), so the resident bytes are the kept copies plus their
    transforms over the live prepared filters, with no size bound to
    tune.  Thread-safe: serving dispatch threads share a tenant context.
    """

    def __init__(self):
        # Reentrant: a weak-reference callback may fire on this thread
        # (through garbage collection) while it holds the lock.
        self._lock = threading.RLock()
        self._entries: dict[tuple[str, int], _PreparedFilter] = {}
        self._hits = 0
        self._misses = 0

    def get(
        self,
        tile: str,
        f: np.ndarray,
        prepare: Callable[[np.ndarray], np.ndarray],
    ) -> np.ndarray:
        """The transform of *f* for *tile*: the stored one, or *prepare*
        applied to a private copy of *f*, which the new entry keeps."""
        key = (tile, id(f))
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry.ref() is f and _same_bits(entry.kept, f):
                self._hits += 1
                return entry.prepared
            self._misses += 1
        kept = f.copy()
        prepared = prepare(kept)
        ref = weakref.ref(f, lambda ref: self._drop(key, ref))
        with self._lock:
            self._entries[key] = _PreparedFilter(ref, kept, prepared)
        return prepared

    def _drop(self, key: tuple[str, int], ref: weakref.ref) -> None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry.ref is ref:
                del self._entries[key]

    def stats(self) -> PreparedFilterStats:
        with self._lock:
            return PreparedFilterStats(
                hits=self._hits,
                misses=self._misses,
                entries=len(self._entries),
                bytes=sum(
                    e.kept.nbytes + e.prepared.nbytes for e in self._entries.values()
                ),
            )

    def clear(self) -> None:
        """Drop every entry and zero the counters."""
        with self._lock:
            self._entries.clear()
            self._hits = self._misses = 0


class ExecutionContext:
    """Owner of every piece of state one execution environment needs.

    Parameters
    ----------
    device: default device for AUTO dispatch and simulation — a
        :class:`DeviceSpec` or any name the
        :func:`~repro.gpusim.arch.resolve_device` registry accepts
        ("V100", "rtx2070", "turing", ...).  ``None`` resolves through
        the registry too: the ``REPRO_DEVICE`` environment variable if
        set, else V100 (the historical default).
    kernel_cache_entries: bound of the kernel-build cache (``None``:
        the default of 64).
    workspace_limit_bytes: arena-level workspace budget (``None`` =
        unlimited); see :class:`~repro.runtime.arena.WorkspaceArena`.
    trace_spans: trace-buffer bound.
    schedule_search: a :class:`repro.sched.ScheduleSearchConfig` that
        opts AUTO dispatch into the SASS schedule search (``None`` =
        off; a per-call ``tune_schedule=True`` still searches with the
        default config).  Winners are memoized on :attr:`schedules`.

    Every cache is an :class:`~repro.common.cache.LRUCache` (for
    :attr:`sim_cache`, its memory tier; see ``docs/runtime.md``):
    :attr:`kernel_cache`, :attr:`sim_cache`, :attr:`plans`,
    :attr:`schedules` and :attr:`lint_gate` (both unbounded), and
    :attr:`memory_images`, the simulator's per-problem global-memory
    images (not the workspace :attr:`arena`).
    """

    def __init__(
        self,
        device: DeviceSpec | str | None = None,
        *,
        kernel_cache_entries: int | None = None,
        workspace_limit_bytes: int | None = None,
        trace_spans: int = DEFAULT_TRACE_SPANS,
        schedule_search=None,
    ):
        self.device = resolve_device(device)
        self.schedule_search = schedule_search
        self.kernel_cache: LRUCache = LRUCache(
            64 if kernel_cache_entries is None else kernel_cache_entries
        )
        self.sim_cache = SimulationCache(512)
        self.plans: LRUCache = LRUCache(256)
        self.schedules: LRUCache = LRUCache(None)
        self.lint_gate: LRUCache = LRUCache(None)
        self.memory_images: LRUCache = LRUCache(8)
        self.dispatch_stats = DispatchStats()
        self.arena = WorkspaceArena(limit_bytes=workspace_limit_bytes)
        self.prepared_filters = PreparedFilterCache()
        self.tracer = Tracer(max_spans=trace_spans)

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------
    def span(self, kind: str, label: str, **attrs):
        """``with ctx.span("build", "Conv3N32"): ...`` — time one region."""
        return self.tracer.span(kind, label, **attrs)

    def add_trace_hook(self, hook: Callable[[TraceSpan], None]) -> None:
        self.tracer.add_hook(hook)

    def remove_trace_hook(self, hook: Callable[[TraceSpan], None]) -> None:
        self.tracer.remove_hook(hook)

    def export_trace(self) -> list[dict]:
        """The span buffer as JSON-serializable dicts (oldest first)."""
        return self.tracer.export()

    def write_trace(self, path: str) -> None:
        """Dump :meth:`export_trace` as a JSON file."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.export_trace(), fh, indent=2)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Clear *every* piece of state this context owns, together.

        Each cache drops its entries and zeroes its counters; the
        dispatch stats, arena and trace buffer start over too.
        """
        for cache in (
            self.kernel_cache, self.sim_cache, self.plans, self.schedules,
            self.lint_gate, self.memory_images, self.prepared_filters,
            self.tracer,
        ):
            cache.clear()
        self.dispatch_stats = DispatchStats()
        self.arena.reset()


# ---------------------------------------------------------------------------
# Default + active context plumbing
# ---------------------------------------------------------------------------
_DEFAULT: ExecutionContext | None = None
_DEFAULT_LOCK = threading.Lock()
_ACTIVE = threading.local()


def default_context() -> ExecutionContext:
    """The process-wide default context (created lazily, once).

    Owns what used to be the module-global caches/stats, so the legacy
    helpers (``get_dispatch_stats`` …) read and write it.
    """
    global _DEFAULT
    if _DEFAULT is None:
        with _DEFAULT_LOCK:
            if _DEFAULT is None:
                _DEFAULT = ExecutionContext()
    return _DEFAULT


def current_context() -> ExecutionContext:
    """The innermost :func:`activate`\\ d context, else the default."""
    stack = getattr(_ACTIVE, "stack", None)
    if stack:
        return stack[-1]
    return default_context()


@contextlib.contextmanager
def activate(ctx: ExecutionContext) -> Iterator[ExecutionContext]:
    """Make *ctx* the :func:`current_context` for the ``with`` body.

    Activation is per-thread and re-entrant (contexts stack); worker
    threads spawned inside the body do **not** inherit it — pass the
    context explicitly across thread boundaries.
    """
    stack = getattr(_ACTIVE, "stack", None)
    if stack is None:
        stack = _ACTIVE.stack = []
    stack.append(ctx)
    try:
        yield ctx
    finally:
        popped = stack.pop()
        assert popped is ctx, "unbalanced ExecutionContext activation"
