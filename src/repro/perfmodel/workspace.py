"""Workspace requirements per convolution algorithm (paper Fig. 14).

The GEMM, IMPLICIT_GEMM, IMPLICIT_PRECOMP_GEMM and WINOGRAD_NONFUSED
formulas are the closed forms of the matching executor's
``*RunStats.workspace_bytes`` (4-byte elements in any host dtype).  The
FFT and FFT_TILING formulas model cuDNN's allocations (full complex
planes; fixed 32-point tiles), not the NumPy executors, whose packed
spectra sized from the output hold less on small images and more on
multi-tile ones.  cuDNN's absolute numbers differ somewhat, but the
figure's structure — FFT enormous, explicit GEMM large, implicit GEMM
zero, non-fused Winograd mid, our fused kernel only the 16·K·C
transformed filter — is reproduced.
"""

from __future__ import annotations


from ..common.problem import ConvProblem

MB = 1024.0 * 1024.0

#: A workspace reservation is rounded up to this many bytes, the
#: 256-byte alignment cudaMalloc guarantees.
ALIGNMENT = 256


def reserved_bytes(nbytes: int) -> int:
    """The bytes a workspace of *nbytes* takes: *nbytes* rounded up to
    :data:`ALIGNMENT`.  The arena reserves this, so a budget is compared
    with it, not with the closed form."""
    return (nbytes + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


def fft_workspace_bytes(prob: ConvProblem) -> int:
    """Whole-image FFT: complex input, filter and output spectra.

    Allocated as full (unpacked) complex planes, which is what cuDNN's
    reported workspaces correspond to (198 MB for Conv2N32 vs 217 MB
    here); the *transferred* traffic in the time model uses the packed
    Hermitian half.
    """
    fh = prob.h + 2 * prob.pad
    fw = prob.w + 2 * prob.pad
    spectra = prob.n * prob.c + prob.k * prob.c + prob.n * prob.k
    return spectra * fh * fw * 8  # complex64


def fft_tiling_workspace_bytes(prob: ConvProblem, size: int = 32) -> int:
    """Tiled FFT with fixed 32-point transforms (cuDNN's choice).

    The input spectra for every tile plus the filter spectra: with
    size = 32 this reproduces cuDNN's reported numbers closely (51 MB on
    Conv2N32, 340 MB on Conv4N32, 1.2 GB on Conv5N32 — Fig. 14), the
    filter term C·K·size·(size/2+1)·8 dominating the deep layers.
    """
    half = size // 2 + 1
    out_tile = size - prob.r + 1
    tiles = (-(-prob.out_h // out_tile)) * (-(-prob.out_w // out_tile))
    return (prob.n * prob.c * tiles + prob.c * prob.k) * size * half * 8


def gemm_workspace_bytes(prob: ConvProblem) -> int:
    """Explicit im2col matrix: (N·H'·W') × (C·R·S) fp32."""
    return prob.n * prob.out_h * prob.out_w * prob.c * prob.r * prob.s * 4


def implicit_gemm_workspace_bytes(prob: ConvProblem) -> int:
    return 0


def implicit_precomp_gemm_workspace_bytes(prob: ConvProblem) -> int:
    """Precomputed gather offsets: one index per C·R·S patch column."""
    return prob.c * prob.r * prob.s * 4


def winograd_nonfused_workspace_bytes(prob: ConvProblem, m: int = 4) -> int:
    """Transformed input + filter + output in global memory (F(4×4,3×3))."""
    alpha = m + prob.r - 1
    total_tiles = prob.total_tiles(m)
    a2 = alpha * alpha
    return 4 * a2 * (
        prob.c * total_tiles + prob.c * prob.k + prob.k * total_tiles
    )


def winograd_fused_workspace_bytes(prob: ConvProblem) -> int:
    """Our kernel: only the 16·K·C transformed filter (§7.3: 0.25 MB-16 MB)."""
    return 16 * prob.k * prob.c * 4


def winograd_fused_f44_workspace_bytes(prob: ConvProblem) -> int:
    """Fused F(4×4,3×3): the 36·K·C transformed filter (6×6 tiles)."""
    return 36 * prob.k * prob.c * 4


def winograd_dwm_workspace_bytes(prob: ConvProblem) -> int:
    """DWM decomposition: explicitly padded input copy plus one part's
    16·K·C transformed sub-filter (parts run sequentially, so the filter
    workspace is reused, not multiplied by the part count)."""
    padded = 4 * prob.n * prob.c * (prob.h + 2 * prob.pad) * (prob.w + 2 * prob.pad)
    return padded + 16 * prob.k * prob.c * 4


def direct_workspace_bytes(prob: ConvProblem) -> int:
    """Shift-and-accumulate direct convolution allocates nothing."""
    return 0


ALGORITHM_WORKSPACE = {
    "FFT": fft_workspace_bytes,
    "FFT_TILING": fft_tiling_workspace_bytes,
    "GEMM": gemm_workspace_bytes,
    "IMPLICIT_GEMM": implicit_gemm_workspace_bytes,
    "IMPLICIT_PRECOMP_GEMM": implicit_precomp_gemm_workspace_bytes,
    "WINOGRAD_NONFUSED": winograd_nonfused_workspace_bytes,
    "OURS": winograd_fused_workspace_bytes,
}

# The same accounting keyed by the *dispatcher's* algorithm names
# (repro.convolution.ALGORITHMS): the fused paper kernel is "WINOGRAD"
# there, and DIRECT joins as the workspace-free last resort.  This is
# the budget filter behind conv2d(..., workspace_limit_bytes=...).
DISPATCH_WORKSPACE = {
    "DIRECT": direct_workspace_bytes,
    "GEMM": gemm_workspace_bytes,
    "IMPLICIT_GEMM": implicit_gemm_workspace_bytes,
    "IMPLICIT_PRECOMP_GEMM": implicit_precomp_gemm_workspace_bytes,
    "FFT": fft_workspace_bytes,
    "FFT_TILING": fft_tiling_workspace_bytes,
    "WINOGRAD": winograd_fused_workspace_bytes,
    "WINOGRAD_F44": winograd_fused_f44_workspace_bytes,
    "WINOGRAD_DWM": winograd_dwm_workspace_bytes,
    "WINOGRAD_NONFUSED": winograd_nonfused_workspace_bytes,
}


def workspace_mb(prob: ConvProblem, algo: str) -> float:
    return ALGORITHM_WORKSPACE[algo](prob) / MB


def dispatch_workspace_bytes(prob: ConvProblem, algo: str) -> int:
    """Workspace for a dispatcher algorithm name (KeyError on unknown)."""
    return DISPATCH_WORKSPACE[algo](prob)
