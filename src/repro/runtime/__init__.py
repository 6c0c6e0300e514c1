"""Unified execution runtime.

Three layers, each owning what used to be module-global state:

- :class:`ExecutionContext` — device, kernel-build + simulation caches,
  plan cache, dispatch metrics, lint gate, workspace arena, prepared
  fused-Winograd filters (:class:`PreparedFilterCache`) and trace hooks,
  with one :meth:`~ExecutionContext.reset` clearing them all.
- :class:`WorkspaceArena` — a bump/free-list allocator so multi-layer
  runs share one high-water-mark workspace buffer.
- :class:`InferenceSession` — compiles a layer stack into per-layer
  plans and executes it end to end (optionally pipelined).

``default_context()`` provides the process-wide context that keeps the
legacy module-level APIs (``repro.convolution.conv2d``, the cache
helpers in ``repro.kernels.cache``, ...) working unchanged;
``activate(ctx)`` scopes a different context to a ``with`` block.
"""

from .arena import ALIGNMENT, ArenaStats, WorkspaceArena, WorkspaceBlock
from .context import (
    ExecutionContext,
    PreparedFilterCache,
    PreparedFilterStats,
    TraceSpan,
    Tracer,
    activate,
    current_context,
    default_context,
)
from .parallel import default_workers, parallel_map
from .session import (
    InferenceSession,
    LayerPlan,
    LayerRun,
    SessionResult,
)

__all__ = [
    "ALIGNMENT",
    "ArenaStats",
    "ExecutionContext",
    "InferenceSession",
    "LayerPlan",
    "LayerRun",
    "PreparedFilterCache",
    "PreparedFilterStats",
    "SessionResult",
    "TraceSpan",
    "Tracer",
    "WorkspaceArena",
    "WorkspaceBlock",
    "activate",
    "current_context",
    "default_context",
    "default_workers",
    "parallel_map",
]
