"""Convolution algorithms: direct, GEMM-based, FFT-based, and the dispatcher."""

from .api import ALGORITHMS, META_ALGORITHMS, conv2d, get_algorithm
from .autotune import (
    ConvPlan,
    PlanKey,
    autotune_conv2d,
    clear_plan_cache,
    get_plan_cache,
)
from .direct import direct_conv2d, direct_conv2d_naive
from .dwm import DWMPart, DWMPlan, dwm_conv2d, dwm_conv2d_with_plan, dwm_plan
from .fft import FftRunStats, fft_conv2d, fft_tiling_conv2d
from .im2col import GemmRunStats, gemm_conv2d, im2col, implicit_gemm_conv2d
from .metrics import (
    TRIAL_HISTORY_CAP,
    DispatchStats,
    TrialAggregate,
    get_dispatch_stats,
    reset_dispatch_stats,
)

__all__ = [
    "ALGORITHMS",
    "ConvPlan",
    "DispatchStats",
    "DWMPart",
    "DWMPlan",
    "FftRunStats",
    "GemmRunStats",
    "META_ALGORITHMS",
    "PlanKey",
    "TRIAL_HISTORY_CAP",
    "TrialAggregate",
    "autotune_conv2d",
    "clear_plan_cache",
    "conv2d",
    "direct_conv2d",
    "direct_conv2d_naive",
    "dwm_conv2d",
    "dwm_conv2d_with_plan",
    "dwm_plan",
    "fft_conv2d",
    "fft_tiling_conv2d",
    "gemm_conv2d",
    "get_algorithm",
    "get_dispatch_stats",
    "get_plan_cache",
    "im2col",
    "implicit_gemm_conv2d",
    "reset_dispatch_stats",
]
