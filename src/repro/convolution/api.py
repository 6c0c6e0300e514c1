"""Unified convolution entry point.

``conv2d(x, f, algo=...)`` mirrors cuDNN's forward-algorithm enum (the
column labels of the paper's Figures 12-14) plus this library's Winograd
pipelines.  All algorithms take NCHW activations and KCRS filters and
return NCHW output, converting to the kernel-native layouts internally,
so callers can swap algorithms without touching their data.

Two *meta*-algorithms dispatch automatically (see
``repro.convolution.autotune``): ``AUTO`` runs timed trials of the
eligible candidates and memoizes the winner in a plan cache, and
``AUTO_HEURISTIC`` picks from the calibrated ``repro.perfmodel`` time
models without touching the data — cuDNN's ``Find`` vs ``Get``
selectors, respectively.  Both honour ``workspace_limit_bytes``
(Fig. 14's workspace-limited selection) and fall back algorithm by
algorithm, ultimately to ``DIRECT``, if a candidate cannot run.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..common.errors import ConvConfigError
from ..common.layouts import kcrs_to_crsk, khwn_to_nkhw, nchw_to_chwn
from ..winograd.fused import FusedWinogradConv
from ..winograd.nonfused import NonFusedWinogradConv
from ..winograd.reference import winograd_conv2d_nchw
from .direct import direct_conv2d
from .dwm import dwm_conv2d_with_plan
from .fft import fft_conv2d, fft_tiling_conv2d
from .im2col import gemm_conv2d, implicit_gemm_conv2d

ALGORITHMS = (
    "DIRECT",
    "GEMM",
    "IMPLICIT_GEMM",
    "IMPLICIT_PRECOMP_GEMM",
    "FFT",
    "FFT_TILING",
    "WINOGRAD",            # this library's fused F(2×2, 3×3) kernel (4×4 tiles)
    "WINOGRAD_F44",        # fused F(4×4, 3×3) kernel (6×6 transformed tiles)
    "WINOGRAD_DWM",        # decomposed: large/strided filters via F(m, 3) parts
    "WINOGRAD_NONFUSED",   # non-fused F(4×4, 3×3) with global workspace
    "WINOGRAD_REFERENCE",  # plain oracle implementation (any F(m×m, r×r))
)

#: Winograd tile family each algorithm executes on; algorithms missing
#: here are not Winograd.  DWM decomposes onto f22-family parts.
TILE_FOR_ALGO = {
    "WINOGRAD": "f22",
    "WINOGRAD_F44": "f44",
    "WINOGRAD_DWM": "f22",
    "WINOGRAD_NONFUSED": "f44",
    "WINOGRAD_REFERENCE": "f22",
}

#: The fused SASS-kernel algorithms: the ones whose plans carry a tuned
#: schedule, searched over this tile family.
FUSED_TILE_FOR_ALGO = {
    algo: TILE_FOR_ALGO[algo] for algo in ("WINOGRAD", "WINOGRAD_F44")
}

# Automatic selection modes layered on top of the concrete ALGORITHMS.
META_ALGORITHMS = (
    "AUTO",            # measured: timed trials, plan-cached winner
    "AUTO_HEURISTIC",  # model-ranked: no trials, perfmodel prediction
)


def shape_error(algo: str, r: int, s: int, pad: int, stride: int) -> str | None:
    """Why *algo* cannot run an R×S filter at this pad and stride, naming
    the algorithms that can; ``None`` when it can.

    The tile-family Winograd pipelines (F(2×2) and F(4×4)) implement the
    paper's 3×3/pad-1/stride-1 case only.  ``WINOGRAD_DWM`` decomposes
    any square filter at stride 1 or 2 into such sub-problems.  Only DWM
    and DIRECT run strided problems; everything else additionally
    handles arbitrary R×S and padding at stride 1.  The planner's
    eligibility filter (``perfmodel.selection.algorithm_supports``) and
    the executor dispatch both apply this rule.
    """
    if algo == "WINOGRAD_DWM":
        if r == s and stride in (1, 2):
            return None
        return (
            f"WINOGRAD_DWM decomposes square filters at stride 1 or 2; use "
            f"DIRECT for a {r}x{s} filter at stride {stride}"
        )
    if stride != 1:
        if algo == "DIRECT":
            return None
        return (
            f"{algo} implements stride-1 convolution; use WINOGRAD_DWM "
            "(polyphase decomposition) or DIRECT for stride 2"
        )
    if algo in ("WINOGRAD", "WINOGRAD_F44", "WINOGRAD_NONFUSED") and (
        (r, s) != (3, 3) or pad != 1
    ):
        return (
            f"{algo} implements the paper's 3×3/pad-1 case; use WINOGRAD_DWM "
            "to decompose larger (or strided) filters, or "
            "WINOGRAD_REFERENCE/DIRECT"
        )
    return None


def _validate_conv_inputs(
    x: np.ndarray, f: np.ndarray, pad: int, stride: int = 1
) -> None:
    """Reject malformed problems up front, at the call site.

    Without this, a channel mismatch or a 3-D activation surfaces as a
    NumPy broadcast error deep inside whichever algorithm ran — far from
    the caller's mistake and different per algorithm.
    """
    x_shape = getattr(x, "shape", None)
    f_shape = getattr(f, "shape", None)
    if not isinstance(x, np.ndarray) or x.ndim != 4:
        raise ConvConfigError(
            f"x must be a 4-D NCHW ndarray, got shape {x_shape!r}"
        )
    if not isinstance(f, np.ndarray) or f.ndim != 4:
        raise ConvConfigError(
            f"f must be a 4-D KCRS ndarray, got shape {f_shape!r}"
        )
    if x.shape[1] != f.shape[1]:
        raise ConvConfigError(
            f"channel mismatch: x (N,C,H,W)={x.shape} has C={x.shape[1]} "
            f"but f (K,C,R,S)={f.shape} has C={f.shape[1]}"
        )
    if isinstance(pad, bool) or not isinstance(pad, (int, np.integer)):
        raise ConvConfigError(f"pad must be a non-negative int, got {pad!r}")
    if pad < 0:
        raise ConvConfigError(f"pad must be >= 0, got {pad}")
    if isinstance(stride, bool) or not isinstance(stride, (int, np.integer)):
        raise ConvConfigError(f"stride must be 1 or 2, got {stride!r}")
    if stride not in (1, 2):
        raise ConvConfigError(f"stride must be 1 or 2, got {stride}")
    n, c, h, w = x.shape
    k, _, r, s = f.shape
    if min(n, c, h, w, k, r, s) < 1:
        raise ConvConfigError(
            f"empty tensor dimension: x={x.shape}, f={f.shape}"
        )
    if (h + 2 * pad - r) // stride + 1 < 1 or (w + 2 * pad - s) // stride + 1 < 1:
        raise ConvConfigError(
            f"filter {r}x{s} with pad={pad} stride={stride} does not fit "
            f"the {h}x{w} input (output would be empty)"
        )


def _run_concrete(
    algo: str,
    x: np.ndarray,
    f: np.ndarray,
    pad: int,
    stride: int = 1,
    prepared_filters=None,
) -> np.ndarray:
    """Execute one concrete algorithm (no AUTO handling, no validation).

    *prepared_filters* (a :class:`repro.runtime.PreparedFilterCache`)
    serves the fused algorithms' transformed filters; without one they
    transform *f* on the call.
    """
    reason = shape_error(algo, f.shape[2], f.shape[3], pad, stride)
    if reason is not None:
        raise ConvConfigError(reason)
    if algo == "DIRECT":
        return direct_conv2d(x, f, pad, stride)
    if algo == "WINOGRAD_DWM":
        from ..runtime import current_context

        ctx = current_context()
        with ctx.span("dwm", f"{f.shape[2]}x{f.shape[3]}/s{stride}") as span:
            y, plan = dwm_conv2d_with_plan(x, f, pad=pad, stride=stride)
            span["plan"] = plan.label()
            span["parts"] = plan.num_parts
        return y
    if algo == "GEMM":
        return gemm_conv2d(x, f, pad)[0]
    if algo == "IMPLICIT_GEMM":
        return implicit_gemm_conv2d(x, f, pad, precomputed_offsets=False)[0]
    if algo == "IMPLICIT_PRECOMP_GEMM":
        return implicit_gemm_conv2d(x, f, pad, precomputed_offsets=True)[0]
    if algo == "FFT":
        return fft_conv2d(x, f, pad)[0]
    if algo == "FFT_TILING":
        return fft_tiling_conv2d(x, f, pad)[0]
    if algo == "WINOGRAD_REFERENCE":
        return winograd_conv2d_nchw(x, f, m=2, pad=pad)
    if algo in FUSED_TILE_FOR_ALGO:
        return _fused_conv2d(FUSED_TILE_FOR_ALGO[algo], x, f, prepared_filters)
    # WINOGRAD_NONFUSED
    return khwn_to_nkhw(NonFusedWinogradConv(m=4)(nchw_to_chwn(x), kcrs_to_crsk(f)))


def _fused_conv2d(tile: str, x: np.ndarray, f: np.ndarray, prepared_filters) -> np.ndarray:
    """One fused Winograd layer: NCHW and KCRS in, NCHW out, with the
    transformed filters from *prepared_filters* when given."""
    conv = FusedWinogradConv(tile=tile)

    def prepare(f_kcrs: np.ndarray) -> np.ndarray:
        return conv.transform_filters(kcrs_to_crsk(f_kcrs))

    if prepared_filters is None:
        f_transformed = prepare(f)
    else:
        f_transformed = prepared_filters.get(tile, f, prepare)
    y_khwn, _ = conv.run(nchw_to_chwn(x), f_transformed)
    return khwn_to_nkhw(y_khwn)


def _run_planned(
    algo: str, x: np.ndarray, f: np.ndarray, pad: int, stride: int,
    prepared_filters=None,
) -> np.ndarray:
    """:func:`conv2d`'s path for a concrete *algo*: validate, then run.

    :class:`repro.runtime.InferenceSession` runs its planned layers
    through this with its context's *prepared_filters*.
    """
    _validate_conv_inputs(x, f, pad, stride)
    return _run_concrete(algo, x, f, pad, stride, prepared_filters)


def conv2d(
    x: np.ndarray,
    f: np.ndarray,
    pad: int = 1,
    algo: str = "WINOGRAD",
    *,
    stride: int = 1,
    workspace_limit_bytes: int | None = None,
    device=None,
    context=None,
    tune_schedule: bool | None = None,
) -> np.ndarray:
    """Batched 2-D convolution with a selectable (or automatic) algorithm.

    Parameters
    ----------
    x: activations (N, C, H, W).
    f: filters (K, C, R, S).
    pad: symmetric zero padding (1 for the paper's layers).
    algo: one of :data:`ALGORITHMS`, or a :data:`META_ALGORITHMS` mode
        (``"AUTO"`` / ``"AUTO_HEURISTIC"``) that selects among them.
    stride: 1 (the paper's layers) or 2; stride 2 runs only through
        ``WINOGRAD_DWM`` (polyphase decomposition into stride-1 parts),
        ``DIRECT``, or the AUTO modes which route between those.
    workspace_limit_bytes: AUTO modes only — exclude candidates whose
        global workspace (``perfmodel.dispatch_workspace_bytes``)
        exceeds this budget; ``None`` means unlimited.
    device: AUTO modes only — the :class:`repro.gpusim.arch.DeviceSpec`
        the heuristic time models rank for (default: the context's
        device, V100 unless configured otherwise).
    context: the :class:`repro.runtime.ExecutionContext` supplying the
        plan cache, dispatch stats and trace hooks (default: the current
        context — the process-wide default unless one is activated).
    tune_schedule: AUTO modes only — run the ``repro.sched``
        schedule-space search for a WINOGRAD winner and store the chosen
        :class:`~repro.sched.Schedule` on the cached plan.  ``None``
        (default) defers to the context's ``schedule_search`` config.
    """
    if not isinstance(algo, str):
        raise ConvConfigError(f"algo must be a string, got {algo!r}")
    algo = algo.upper()
    if algo not in ALGORITHMS + META_ALGORITHMS:
        raise ConvConfigError(
            f"unknown algorithm {algo!r}; choose from "
            f"{ALGORITHMS + META_ALGORITHMS}"
        )
    if algo in META_ALGORITHMS:
        from .autotune import autotune_conv2d

        _validate_conv_inputs(x, f, pad, stride)
        return autotune_conv2d(
            x, f, pad, mode=algo, stride=stride,
            workspace_limit_bytes=workspace_limit_bytes, device=device,
            context=context, tune_schedule=tune_schedule,
        )
    if (workspace_limit_bytes is not None or device is not None
            or tune_schedule is not None):
        raise ConvConfigError(
            "workspace_limit_bytes/device/tune_schedule only apply to the "
            f"AUTO modes; algo={algo!r} was requested explicitly"
        )
    if context is not None:
        from ..runtime import activate

        with activate(context):
            return _run_planned(algo, x, f, pad, stride)
    return _run_planned(algo, x, f, pad, stride)


def get_algorithm(algo: str) -> Callable[..., np.ndarray]:
    """Curried form of :func:`conv2d` for benchmarking loops.

    The returned callable carries ``__name__``/``__qualname__``/
    ``__doc__`` (so ``pytest-benchmark`` labels and ``help()`` work) and
    exposes the bound algorithm as ``.algo``.
    """
    if not isinstance(algo, str):
        raise ConvConfigError(f"algo must be a string, got {algo!r}")
    algo_u = algo.upper()
    if algo_u not in ALGORITHMS + META_ALGORITHMS:
        raise ConvConfigError(
            f"unknown algorithm {algo!r}; choose from "
            f"{ALGORITHMS + META_ALGORITHMS}"
        )

    def run(x: np.ndarray, f: np.ndarray, pad: int = 1, **kwargs) -> np.ndarray:
        return conv2d(x, f, pad=pad, algo=algo_u, **kwargs)

    run.__name__ = f"conv2d_{algo_u.lower()}"
    run.__qualname__ = run.__name__
    run.__doc__ = (
        f"conv2d specialised to algo={algo_u!r}.\n\n{conv2d.__doc__}"
    )
    run.__wrapped__ = conv2d
    run.algo = algo_u
    return run
