"""Projections for the paper's §8.3 extensions (fp16 and tensor cores).

"The implementation can be ported to the fp16 version by increasing bn
to 64.  To further increase the throughput with the newly introduced
tensor core, the data layout needs a redesign.  Nevertheless, many
techniques introduced in this work ... can be adopted."

These are analytical projections (no fp16 kernel is generated), built
on the fp32 model's :class:`~repro.perfmodel.roofline.Blocking` with
2-byte elements; the simulator's HFMA2 support
(``tests/gpusim/test_fp16.py``) demonstrates the 2× flops-per-issue
substrate the projection rests on.
"""

from __future__ import annotations

from ..gpusim.arch import DeviceSpec
from ..sass.hw import TURING_LIMITS
from .roofline import Blocking, gemm_step_intensity

#: The §8.3 fp16 port of the fused kernel's blocking: bn doubled to 64.
FP16_BLOCKING = Blocking(bk=64, bn=64, bc=8, width=2)


def fp16_projection_summary(device: DeviceSpec) -> dict:
    """The §8.3 claims as numbers for a given device.

    HFMA2 issues two half-precision FMAs at once, which doubles the
    peak and halves the issues per thread.
    """
    return {
        "fp32_intensity_flops_per_byte": gemm_step_intensity(64),
        "fp16_intensity_flops_per_byte": FP16_BLOCKING.arithmetic_intensity,
        "fp16_peak_tflops": 2 * device.peak_fp32_tflops,
        "fp16_smem_bytes_per_block": FP16_BLOCKING.smem_bytes,
        "hfma2_per_thread_per_iter": FP16_BLOCKING.fma_per_thread // 2,
        "fits_turing_smem": FP16_BLOCKING.smem_bytes <= TURING_LIMITS.smem_per_block,
    }
