"""§8.3 fp16 projection."""

import pytest

from repro.gpusim import RTX2070, V100
from repro.perfmodel.extensions import FP16_BLOCKING, fp16_projection_summary


def test_bn_doubles_per_section_8_3():
    assert FP16_BLOCKING.bn == 64 and FP16_BLOCKING.bk == 64
    assert FP16_BLOCKING.width == 2  # half-precision elements


def test_intensity_doubles():
    """Half the bytes at bn=64's flop rate: 2·(bk·bn)/(bk+bn)/2 flops/B."""
    # bk=bn=64: 2·16·64·64·8 flops over 16·128·8·2 bytes = 32 flops/B.
    assert FP16_BLOCKING.arithmetic_intensity == pytest.approx(32.0)
    summary = fp16_projection_summary(V100)
    assert (
        summary["fp16_intensity_flops_per_byte"]
        == 3 * summary["fp32_intensity_flops_per_byte"]
    )


def test_peak_doubles():
    assert fp16_projection_summary(V100)["fp16_peak_tflops"] == pytest.approx(
        2 * V100.peak_fp32_tflops
    )


def test_smem_still_fits_turing():
    """fp16 halves element size: the doubled bn block still fits 64 KB."""
    assert FP16_BLOCKING.smem_bytes == 16 * 8 * 128 * 2  # 32 KB
    assert fp16_projection_summary(RTX2070)["fits_turing_smem"]


def test_hfma2_count():
    """Same 1024 FMA-issues per thread, each now two half lanes."""
    assert fp16_projection_summary(V100)["hfma2_per_thread_per_iter"] == 1024
