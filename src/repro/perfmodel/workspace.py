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

Each workspace formula is written once, here, and keyed by dispatcher
algorithm in :data:`DISPATCH_WORKSPACE`: the planner's budget filter,
the arena's reservations (:func:`reserved_bytes`) and Fig. 14
(:func:`workspace_mb`) all read it.  :func:`transformed_filter_bytes`
is the fused kernels' one filter workspace, and :func:`fft_tiles` the
FFT_TILING tile count that ``cudnn_model.fft_tiling_time`` charges
too; the problem geometry (output extent, Winograd tile counts) is
:class:`~repro.common.problem.ConvProblem`'s.
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
    tiles = fft_tiles(prob, size)
    return (prob.n * prob.c * tiles + prob.c * prob.k) * size * half * 8


def fft_tiles(prob: ConvProblem, size: int = 32) -> int:
    """Tiles per image of a *size*-point tiled FFT: each transform yields
    ``size − R + 1`` outputs along each axis."""
    out_tile = size - prob.r + 1
    return (-(-prob.out_h // out_tile)) * (-(-prob.out_w // out_tile))


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


def transformed_filter_bytes(prob: ConvProblem, m: int = 2) -> int:
    """The FTF's CR'S'K output for a fused F(m×m, 3×3) kernel: alpha²·K·C
    fp32 values, alpha = m + 2.  The tile is always 3×3, whatever the
    layer's R: a DWM part's sub-filter is 3×3."""
    alpha = m + 2
    return alpha * alpha * prob.k * prob.c * 4


def winograd_fused_workspace_bytes(prob: ConvProblem) -> int:
    """Our kernel: only the 16·K·C transformed filter (§7.3: 0.25 MB-16 MB)."""
    return transformed_filter_bytes(prob, m=2)


def winograd_fused_f44_workspace_bytes(prob: ConvProblem) -> int:
    """Fused F(4×4,3×3): the 36·K·C transformed filter (6×6 tiles)."""
    return transformed_filter_bytes(prob, m=4)


def winograd_dwm_workspace_bytes(prob: ConvProblem) -> int:
    """DWM decomposition: explicitly padded input copy plus one part's
    16·K·C transformed sub-filter (parts run sequentially, so the filter
    workspace is reused, not multiplied by the part count)."""
    padded = 4 * prob.n * prob.c * (prob.h + 2 * prob.pad) * (prob.w + 2 * prob.pad)
    return padded + transformed_filter_bytes(prob, m=2)


def direct_workspace_bytes(prob: ConvProblem) -> int:
    """Shift-and-accumulate direct convolution allocates nothing."""
    return 0


# Keyed by the dispatcher's algorithm names (repro.convolution.ALGORITHMS;
# Fig. 14's "OURS" is "WINOGRAD" there, see workspace_mb): the budget
# filter behind conv2d(..., workspace_limit_bytes=...).
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
    """Fig. 14's workspace in MB; the figure's "OURS" is ``WINOGRAD``."""
    return dispatch_workspace_bytes(prob, "WINOGRAD" if algo == "OURS" else algo) / MB


def dispatch_workspace_bytes(prob: ConvProblem, algo: str) -> int:
    """Workspace for a dispatcher algorithm name (KeyError on unknown)."""
    return DISPATCH_WORKSPACE[algo](prob)
