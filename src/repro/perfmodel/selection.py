"""Model-driven algorithm selection for the runtime dispatcher.

This module is the analytical half of ``repro.convolution.autotune``: it
reuses the calibrated cuDNN time models (Figs. 12-13) and the workspace
formulas (Fig. 14) to answer, for an arbitrary :class:`ConvProblem`,

* which dispatcher algorithms are *structurally* able to run it
  (the fused paper kernel only implements 3×3/pad-1),
* which of those fit inside a caller-supplied workspace budget
  (the Fig. 14 workspace-limited selection, as a runtime component), and
* in what order the surviving candidates should be tried (cheapest
  predicted time first, ``DIRECT`` pinned last as the unconditional
  fallback).

It is intentionally free of any NumPy execution: everything here is
closed-form so ``AUTO_HEURISTIC`` can pick an algorithm without touching
the data, mirroring cuDNN's ``cudnnGetConvolutionForwardAlgorithm``
(heuristic) vs ``cudnnFind...`` (measured) split.
"""

from __future__ import annotations

from ..common.errors import ModelError
from ..common.problem import ConvProblem
from ..convolution.api import shape_error
from ..gpusim.arch import DeviceSpec
from .breakeven import fused_time
from .cudnn_model import (
    _io_time,
    fft_time,
    fft_tiling_time,
    gemm_time,
    implicit_gemm_time,
    implicit_precomp_gemm_time,
    winograd_nonfused_time,
)
from .workspace import dispatch_workspace_bytes, reserved_bytes

# Every algorithm the dispatcher may execute, in Fig. 12-14 column order.
# ``DIRECT`` is the library's arithmetic ground truth: it has no
# workspace, no shape restrictions, and therefore terminates every
# fallback chain.
DISPATCH_CANDIDATES = (
    "WINOGRAD",
    "WINOGRAD_F44",
    "WINOGRAD_DWM",
    "WINOGRAD_NONFUSED",
    "IMPLICIT_PRECOMP_GEMM",
    "IMPLICIT_GEMM",
    "GEMM",
    "FFT",
    "FFT_TILING",
    "DIRECT",
)

# A shift-and-accumulate direct convolution runs one tap at a time with
# no data reuse in registers; a small fraction of peak is generous.
EFF_DIRECT = 0.10


def direct_time(prob: ConvProblem, device: DeviceSpec) -> float:
    """Model of the last-resort direct convolution (not a cuDNN column)."""
    compute = prob.direct_flops / (EFF_DIRECT * device.peak_fp32_tflops * 1e12)
    return max(compute, _io_time(prob, device))


def fused_winograd_time(prob: ConvProblem, device: DeviceSpec) -> float:
    """§8.1's idealized model of *this library's* fused F(2×2) kernel."""
    return max(fused_time(prob, device), _io_time(prob, device))


def fused_winograd_f44_time(prob: ConvProblem, device: DeviceSpec) -> float:
    """The fused F(4×4,3×3) kernel at its best feasible blocking (§8.1).

    Uses the ``f44_study`` projection: 4× multiplication reduction with
    6×6-tile overcompute, capped by the blocking's attainable
    (memory-limited) SOL — the model that predicts F(4×4) only beats
    F(2×2) on deep, high-K layers.
    """
    from .f44_study import projected_fused_f44_time

    return max(projected_fused_f44_time(prob, device), _io_time(prob, device))


# DWM launches one fused kernel per part plus the polyphase gather /
# partial-sum traffic; a flat per-part tax keeps the trivial one-part
# plan ranked (slightly) behind the native fused kernel it wraps.
DWM_PART_OVERHEAD = 1.15


def dwm_winograd_time(prob: ConvProblem, device: DeviceSpec) -> float:
    """DWM decomposition: fused F(2×2) parts over the decomposed problem.

    Each part is a VALID 3×3 stride-1 convolution producing the full
    output extent, so the per-part cost is the fused model on the
    equivalent (out + 2)² pad-0 problem; parts run sequentially.
    """
    from ..convolution.dwm import dwm_plan

    plan = dwm_plan(prob.r, prob.s, prob.pad, prob.stride)
    part = ConvProblem(
        n=prob.n, c=prob.c, h=prob.out_h + 2, w=prob.out_w + 2, k=prob.k, pad=0
    )
    per_part = max(fused_time(part, device), _io_time(part, device))
    return plan.num_parts * per_part * DWM_PART_OVERHEAD


_TIME_MODELS = {
    "DIRECT": direct_time,
    "GEMM": gemm_time,
    "IMPLICIT_GEMM": implicit_gemm_time,
    "IMPLICIT_PRECOMP_GEMM": implicit_precomp_gemm_time,
    "FFT": fft_time,
    "FFT_TILING": fft_tiling_time,
    "WINOGRAD": fused_winograd_time,
    "WINOGRAD_F44": fused_winograd_f44_time,
    "WINOGRAD_DWM": dwm_winograd_time,
    "WINOGRAD_NONFUSED": winograd_nonfused_time,
}


def predicted_time(prob: ConvProblem, device: DeviceSpec, algo: str) -> float:
    """Predicted seconds for one forward pass of *algo* on *prob*."""
    try:
        fn = _TIME_MODELS[algo]
    except KeyError:
        raise ModelError(
            f"no time model for dispatcher algorithm {algo!r}; "
            f"choose from {sorted(_TIME_MODELS)}"
        ) from None
    return fn(prob, device)


def algorithm_supports(algo: str, prob: ConvProblem) -> bool:
    """Structural eligibility: can *algo* run this problem shape at all?

    *algo* must be a dispatcher algorithm (one with a time model) whose
    executor runs the shape: :func:`repro.convolution.api.shape_error`,
    the rule ``conv2d`` raises ``ConvConfigError`` from, admits it.
    """
    return algo in _TIME_MODELS and (
        shape_error(algo, prob.r, prob.s, prob.pad, prob.stride) is None
    )


def rank_algorithms(
    prob: ConvProblem,
    device: DeviceSpec,
    workspace_limit_bytes: int | None = None,
    candidates: tuple[str, ...] = DISPATCH_CANDIDATES,
) -> tuple[list[str], dict[str, str]]:
    """Order *candidates* for a problem under a workspace budget.

    Returns ``(ranked, excluded)``: *ranked* is the eligible candidates
    sorted by predicted time (``DIRECT`` always last, whatever its
    prediction, so the fallback chain ends at the unconditional
    algorithm), and *excluded* maps each rejected candidate to a
    human-readable reason — the same bookkeeping the dispatcher surfaces
    through ``get_dispatch_stats()``.
    """
    ranked: list[str] = []
    excluded: dict[str, str] = {}
    for algo in candidates:
        if not algorithm_supports(algo, prob):
            excluded[algo] = (
                f"unsupported shape: {prob.r}x{prob.s}/pad={prob.pad}"
                f"/stride={prob.stride} (tile kernels run 3x3/pad-1/"
                "stride-1; WINOGRAD_DWM decomposes larger or strided)"
            )
            continue
        if workspace_limit_bytes is not None:
            # Compared in the bytes the arena will reserve, so a plan
            # that passes this filter also fits the arena's budget.
            need = reserved_bytes(dispatch_workspace_bytes(prob, algo))
            if need > workspace_limit_bytes:
                excluded[algo] = (
                    f"workspace {need} B exceeds limit {workspace_limit_bytes} B"
                )
                continue
        ranked.append(algo)
    ranked.sort(
        key=lambda a: (a == "DIRECT", predicted_time(prob, device, a))
    )
    return ranked, excluded
