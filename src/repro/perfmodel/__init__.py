"""Analytical performance models: roofline, workspace, break-even, baselines."""

from .breakeven import break_even_k, faster_variant, fused_time, nonfused_time
from .cudnn_model import (
    CUDNN_ALGORITHMS,
    cudnn_time,
    cudnn_winograd_time,
    tile_overcompute,
)
from .layer_model import LayerPerformance, our_layer_performance
from .paper_data import (
    ALGO_ORDER,
    LAYER_ORDER,
    PAPER_CLAIMS,
    PAPER_FIG12_RTX2070,
    PAPER_FIG13_V100,
    PAPER_FIG14_WORKSPACE_MB,
    PAPER_TABLE2_V100,
    PAPER_TABLE6,
)
from .roofline import (
    RooflinePoint,
    direct_conv_intensity,
    gemm_step_intensity,
    paper_points,
    roofline_table,
    transform_intensity,
)
from .selection import (
    DISPATCH_CANDIDATES,
    algorithm_supports,
    direct_time,
    dwm_winograd_time,
    fused_winograd_f44_time,
    fused_winograd_time,
    predicted_time,
    rank_algorithms,
)
from .workspace import (
    DISPATCH_WORKSPACE,
    dispatch_workspace_bytes,
    workspace_mb,
)

__all__ = [
    "ALGO_ORDER",
    "DISPATCH_CANDIDATES",
    "DISPATCH_WORKSPACE",
    "CUDNN_ALGORITHMS",
    "LAYER_ORDER",
    "LayerPerformance",
    "PAPER_CLAIMS",
    "PAPER_FIG12_RTX2070",
    "PAPER_FIG13_V100",
    "PAPER_FIG14_WORKSPACE_MB",
    "PAPER_TABLE2_V100",
    "PAPER_TABLE6",
    "RooflinePoint",
    "algorithm_supports",
    "break_even_k",
    "cudnn_time",
    "cudnn_winograd_time",
    "direct_conv_intensity",
    "direct_time",
    "dispatch_workspace_bytes",
    "dwm_winograd_time",
    "faster_variant",
    "fused_time",
    "fused_winograd_f44_time",
    "fused_winograd_time",
    "gemm_step_intensity",
    "nonfused_time",
    "our_layer_performance",
    "paper_points",
    "predicted_time",
    "rank_algorithms",
    "roofline_table",
    "tile_overcompute",
    "transform_intensity",
    "workspace_mb",
]
