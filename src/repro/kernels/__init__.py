"""SASS kernel generators and simulator runners (the paper's kernels)."""

from .cache import (
    BuildKey,
    SimCacheStats,
    build_fused_kernel,
    code_fingerprint,
    get_kernel_cache_stats,
    get_sim_cache_stats,
)
from .ftf import TILES_PER_BLOCK, FilterTransformKernel
from .gemm import BM, BN_GEMM, E_PER_BLOCK, BatchedGemmKernel
from .runner import (
    MainLoopMeasurement,
    measure_main_loop,
    run_fused_sass_conv,
)
from .schedules import (
    YIELD_STRATEGIES,
    apply_yield_strategy,
    is_float_line,
    weave,
)
from .winograd_fused import BC, BN, THREADS, WARPS, Tunables, WinogradF22Kernel

__all__ = [
    "BC",
    "BM",
    "BN",
    "BN_GEMM",
    "BatchedGemmKernel",
    "BuildKey",
    "E_PER_BLOCK",
    "FilterTransformKernel",
    "MainLoopMeasurement",
    "SimCacheStats",
    "THREADS",
    "TILES_PER_BLOCK",
    "Tunables",
    "WARPS",
    "WinogradF22Kernel",
    "YIELD_STRATEGIES",
    "apply_yield_strategy",
    "build_fused_kernel",
    "code_fingerprint",
    "get_kernel_cache_stats",
    "get_sim_cache_stats",
    "is_float_line",
    "measure_main_loop",
    "run_fused_sass_conv",
    "weave",
]
