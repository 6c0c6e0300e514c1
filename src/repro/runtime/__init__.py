"""Unified execution runtime.

Three layers, each owning what used to be module-global state:

- :class:`ExecutionContext` — device, kernel-build + simulation caches,
  plan cache, dispatch metrics, lint gate, workspace arena, prepared
  fused-Winograd filters (:class:`PreparedFilterCache`) and trace hooks,
  with one :meth:`~ExecutionContext.reset` clearing them all.
- :class:`WorkspaceArena` — the bump/free-list offset model of one
  high-water-mark workspace that multi-layer runs share (it counts
  bytes; it holds none).
- :class:`InferenceSession` — compiles a layer stack into per-layer
  plans (the dispatcher's ``ConvPlan``, from the context's plan cache)
  and executes it end to end, one layer after another.

``default_context()`` provides the process-wide context that keeps the
legacy module-level APIs (``repro.convolution.conv2d``, the cache
helpers in ``repro.kernels.cache``, ...) working unchanged;
``activate(ctx)`` scopes a different context to a ``with`` block.
"""

from ..perfmodel.workspace import ALIGNMENT
from .arena import ArenaStats, WorkspaceArena, WorkspaceBlock
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
from .session import InferenceSession, LayerRun, SessionResult

__all__ = [
    "ALIGNMENT",
    "ArenaStats",
    "ExecutionContext",
    "InferenceSession",
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
]
