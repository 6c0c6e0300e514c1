"""Calibrated models of cuDNN 7.6.1's convolution algorithms.

cuDNN is closed source and there is no GPU here, so the baselines of
Tables 2/6 and Figures 12-13 are *models* (see DESIGN.md §2).  The
calibration discipline:

* constants are calibrated **only against cuDNN-internal data** the
  paper publishes (Table 2: cuDNN Winograd vs cuDNN GEMM on V100) plus
  first-principles efficiency assumptions for library GEMMs — never
  against the paper's "ours vs cuDNN" headline numbers, so this
  library's speedup tables remain genuine predictions of its simulated
  kernel against these baselines;
* per-layer *variation* comes from structure (roofline terms, tile
  overcompute, occupancy), not per-layer fudge factors — with one
  exception: ``CUDNN_WINOGRAD`` uses the Table 2 per-layer ratios
  directly on V100, because that table *is* the paper's measurement of
  that kernel, and a Turing degradation factor derived from the §7.1
  occupancy argument (cuDNN's 48 KB block fits twice on a V100 SM but
  once on Turing).

Every function returns seconds for one forward convolution.
"""

from __future__ import annotations

import math

import numpy as np

from ..common.errors import ModelError
from ..common.problem import ConvProblem
from ..gpusim.arch import DeviceSpec
from .paper_data import PAPER_TABLE2_V100
from .workspace import fft_tiles, fft_tiling_workspace_bytes, gemm_workspace_bytes

# First-principles efficiency of a large library SGEMM / implicit-GEMM
# convolution (fraction of FP32 peak).
EFF_IMPLICIT_PRECOMP = 0.88
EFF_IMPLICIT = 0.52  # recomputes offsets; ~2× slower than precomp (Fig. 12)
EFF_FFT_POINTWISE = 0.60  # batched complex GEMM over the spectra
EFF_NONFUSED_GEMM = 0.80  # the non-fused variant's batched SGEMM step
# §7.1: cuDNN's Winograd loses concurrency on Turing (occupancy 2 → 1).
TURING_WINOGRAD_PENALTY = 1.30


def tile_overcompute(prob: ConvProblem, m: int = 2) -> float:
    """Wasted-pixel factor of F(m×m) tiling (≈1.31 for 7×7 outputs, §7.3)."""
    th, tw = prob.tiles_h(m), prob.tiles_w(m)
    return (th * m / prob.out_h) * (tw * m / prob.out_w)


def _direct_flops(prob: ConvProblem) -> float:
    return float(prob.direct_flops)


def _io_time(prob: ConvProblem, device: DeviceSpec) -> float:
    """Compulsory DRAM traffic: input + filter + output, once each."""
    bytes_ = prob.input_bytes + prob.filter_bytes + prob.output_bytes
    return bytes_ / (device.dram_gbps * 1e9)


def _gemm_utilization(prob: ConvProblem, device: DeviceSpec, tile: int = 128) -> float:
    """SM utilization of a tiled GEMM over the implicit conv matrix.

    The GEMM is (N·H'·W') × K; with tile×tile thread blocks the grid may
    not fill the device — the reason cuDNN's GEMM kernels degrade on
    small-output layers like Conv5 (few tiles, many SMs idle in the tail
    wave).
    """
    m_dim = prob.n * prob.out_h * prob.out_w
    blocks = math.ceil(m_dim / tile) * math.ceil(prob.k / tile)
    return blocks / (device.waves(blocks) * device.num_sms)


def implicit_precomp_gemm_time(prob: ConvProblem, device: DeviceSpec) -> float:
    eff = EFF_IMPLICIT_PRECOMP * _gemm_utilization(prob, device)
    compute = _direct_flops(prob) / (eff * device.peak_fp32_tflops * 1e12)
    return max(compute, _io_time(prob, device))


def implicit_gemm_time(prob: ConvProblem, device: DeviceSpec) -> float:
    # Plain implicit GEMM uses smaller tiles, so its grid fills the
    # device even on Conv5; no utilization penalty on top of its lower
    # base efficiency.
    compute = _direct_flops(prob) / (
        EFF_IMPLICIT * device.peak_fp32_tflops * 1e12
    )
    return max(compute, _io_time(prob, device))


def gemm_time(prob: ConvProblem, device: DeviceSpec) -> float:
    """Explicit im2col: the lowering writes and re-reads the 9× matrix."""
    ws = gemm_workspace_bytes(prob)
    lowering = 2 * ws / (device.dram_gbps * 1e9)
    return implicit_precomp_gemm_time(prob, device) + lowering


def fft_time(prob: ConvProblem, device: DeviceSpec) -> float:
    """Whole-image FFT: spectra traffic + transform + pointwise cgemm.

    Traffic moves the Hermitian-packed half-spectra (half the allocated
    workspace) three times: write after forward FFT, read + write around
    the pointwise product.
    """
    fh = prob.h + 2 * prob.pad
    fw = prob.w + 2 * prob.pad
    fw_half = fw // 2 + 1
    packed = (
        (prob.n * prob.c + prob.k * prob.c + prob.n * prob.k) * fh * fw_half * 8
    )
    traffic = 3 * packed / (device.dram_gbps * 1e9)
    transform_flops = (
        5.0 * (prob.n * prob.c + prob.k * prob.c + prob.n * prob.k)
        * fh * fw * math.log2(max(fh * fw, 2))
    )
    pointwise_flops = 8.0 * prob.n * prob.k * prob.c * fh * fw_half
    # Tiny batched FFT/cgemm problems run far below library efficiency —
    # the structural reason cuDNN's FFT algorithm collapses on Conv5
    # (9×9 spectra), Figs. 12-13.
    eff = EFF_FFT_POINTWISE * min(1.0, math.sqrt(fh * fw / 512.0))
    compute = (transform_flops + pointwise_flops) / (
        eff * device.peak_fp32_tflops * 1e12
    )
    return traffic + compute


def fft_tiling_time(prob: ConvProblem, device: DeviceSpec, size: int = 32) -> float:
    """Tiled FFT with cuDNN's fixed 32-point transforms.

    Every tile — and every image smaller than a tile — is padded to the
    fixed ``size``.  The filter spectra alone are C·K·size·(size/2+1)
    complex values, which is what blows this algorithm up on Conv4/Conv5
    (Figs. 12-14: 4-14× worse than our kernel, gigabyte workspaces).
    """
    half = size // 2 + 1
    tiles = fft_tiles(prob, size)
    ws = fft_tiling_workspace_bytes(prob, size)
    traffic = 3 * ws / (device.dram_gbps * 1e9)
    pointwise_flops = 8.0 * prob.n * prob.k * prob.c * size * half * tiles
    transform_flops = (
        5.0 * (prob.n * prob.c + prob.n * prob.k) * size * size
        * math.log2(size * size) * tiles
        + 5.0 * prob.k * prob.c * size * size * math.log2(size * size)
    )
    compute = (transform_flops + pointwise_flops) / (
        EFF_FFT_POINTWISE * device.peak_fp32_tflops * 1e12
    )
    return traffic + compute


def winograd_nonfused_time(prob: ConvProblem, device: DeviceSpec) -> float:
    """§8.1's non-fused F(4×4) model with a library-GEMM efficiency.

    Both scatter passes are charged: the input side moves the original
    plus the 2.25×-inflated transformed input through DRAM (write +
    read), and symmetrically the output side moves the transformed
    output (write + read) plus the final gather's store.
    """
    over = tile_overcompute(prob, m=4)
    compute = over * _direct_flops(prob) / (
        4.0 * EFF_NONFUSED_GEMM * device.peak_fp32_tflops * 1e12
    )
    in_volume = prob.n * prob.c * prob.h * prob.w
    out_volume = prob.n * prob.k * prob.out_h * prob.out_w
    traffic_bytes = (in_volume + out_volume) * (1 + 2.25) * 2 * 4
    return compute + traffic_bytes / (device.dram_gbps * 1e9)


def cudnn_winograd_time(prob: ConvProblem, device: DeviceSpec) -> float:
    """cuDNN's fused F(2×2) Winograd kernel.

    Anchored to Table 2: on V100, cuDNN Winograd = cuDNN GEMM time ÷
    the published per-layer-family ratio.  Batch sizes within a family
    share the family's interpolated ratio; Turing applies the §7.1
    occupancy degradation.
    """
    family = prob.name.split("N")[0] if prob.name else None
    ratio = PAPER_TABLE2_V100.get(prob.name or "")
    if ratio is None and family:
        family_vals = [
            v for k, v in PAPER_TABLE2_V100.items() if k.startswith(family + "N")
        ]
        ratio = sum(family_vals) / len(family_vals) if family_vals else None
    if ratio is None:
        # Unnamed layer: fall back to a structural model — the 2.25×
        # reduction at the non-fused GEMM efficiency, with overcompute.
        ratio = 2.25 * 0.62 * EFF_IMPLICIT_PRECOMP / tile_overcompute(prob)
    time = implicit_precomp_gemm_time(prob, device) / ratio
    if device.arch == "turing":
        time *= TURING_WINOGRAD_PENALTY
    return time


CUDNN_ALGORITHMS = {
    "FFT": fft_time,
    "FFT_TILING": fft_tiling_time,
    "GEMM": gemm_time,
    "IMPLICIT_GEMM": implicit_gemm_time,
    "IMPLICIT_PRECOMP_GEMM": implicit_precomp_gemm_time,
    "WINOGRAD": cudnn_winograd_time,
    "WINOGRAD_NONFUSED": winograd_nonfused_time,
}


def cudnn_time(prob: ConvProblem, device: DeviceSpec, algo: str) -> float:
    try:
        fn = CUDNN_ALGORITHMS[algo]
    except KeyError:
        raise ModelError(
            f"unknown cuDNN algorithm {algo!r}; choose from {sorted(CUDNN_ALGORITHMS)}"
        ) from None
    return fn(prob, device)
