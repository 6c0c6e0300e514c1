"""Fused F(2×2) vs non-fused F(4×4) break-even analysis (paper §8.1).

The paper's two-term model:

* fused F(2×2,3×3), compute-bound:  ``T_f = 2NCHWKRS / (2.25 · FLOPS)``
* non-fused F(4×4,3×3): a 4× multiplication reduction plus the
  memory-bound transform passes moving ``(1 + 2.25)`` input volumes
  twice (write + read) through DRAM:

  ``T_nf = 2NCHWKRS / (4 · FLOPS) + NCHW · 3.25 · 2 · 4 / BW``

Setting them equal, NCHW cancels and the break-even is a pure function
of K and the machine balance: the paper reports K = 129 on V100 and
K = 127 on RTX 2070 (with its sheet peak), in line with its Figs. 12-13
where the non-fused algorithm only wins on Conv5 (K = 512).

The flops are :attr:`ConvProblem.direct_flops`, counted over the output
extent H'·W': the paper's H·W on its pad-1 layers, and the right count
for the pad-0 parts that ``selection.dwm_winograd_time`` prices.
"""

from __future__ import annotations

from ..common.problem import ConvProblem
from ..gpusim.arch import DeviceSpec


def fused_time(prob: ConvProblem, device: DeviceSpec) -> float:
    """§8.1's idealized fused-kernel time (seconds)."""
    return prob.direct_flops / (2.25 * device.peak_fp32_tflops * 1e12)


def nonfused_time(prob: ConvProblem, device: DeviceSpec) -> float:
    """§8.1's idealized non-fused F(4×4) time (seconds)."""
    compute = prob.direct_flops / (4.0 * device.peak_fp32_tflops * 1e12)
    volume = prob.n * prob.c * prob.h * prob.w  # input elements
    traffic = volume * (1 + 2.25) * 2 * 4  # bytes through DRAM
    return compute + traffic / (device.dram_gbps * 1e9)


def break_even_k(device: DeviceSpec, rs: int = 9) -> float:
    """K where the two models cross (independent of N, C, H, W).

    Derivation: equate the §8.1 expressions and cancel NCHW:

        2·K·RS·(1/2.25 − 1/4)/FLOPS = 3.25·8/BW
        K = 13·FLOPS / (RS·(1/2.25 − 1/4)·BW)
    """
    flops = device.peak_fp32_tflops * 1e12
    bw = device.dram_gbps * 1e9
    return 13.0 * flops / (rs * (1 / 2.25 - 1 / 4.0) * bw)


def faster_variant(prob: ConvProblem, device: DeviceSpec) -> str:
    """Which §8.1 variant the model predicts wins for this layer."""
    return (
        "fused_f2x2"
        if fused_time(prob, device) <= nonfused_time(prob, device)
        else "nonfused_f4x4"
    )
