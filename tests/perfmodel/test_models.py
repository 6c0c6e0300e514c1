"""Analytical models: roofline, workspace, break-even, cuDNN baselines."""

import pytest

from repro.common import ConvProblem, ModelError
from repro.gpusim import RTX2070, V100
from repro.models import paper_layers, resnet_layer
from repro.perfmodel import (
    ALGO_ORDER,
    PAPER_CLAIMS,
    PAPER_FIG14_WORKSPACE_MB,
    break_even_k,
    cudnn_time,
    direct_conv_intensity,
    faster_variant,
    fused_time,
    gemm_step_intensity,
    nonfused_time,
    paper_points,
    roofline_table,
    tile_overcompute,
    transform_intensity,
    workspace_mb,
)
from repro.perfmodel.selection import (
    DWM_PART_OVERHEAD,
    dwm_winograd_time,
    fused_winograd_time,
)


# ---------------------------------------------------------------------------
# Roofline (Fig. 2)
# ---------------------------------------------------------------------------
def test_gemm_step_intensities_match_section_3_3():
    assert gemm_step_intensity(32) == pytest.approx(8.0)
    assert gemm_step_intensity(64) == pytest.approx(10.67, abs=0.01)
    gain = gemm_step_intensity(64) / gemm_step_intensity(32)
    assert gain == pytest.approx(PAPER_CLAIMS["bk64_intensity_gain"], abs=0.01)


def test_transform_steps_are_memory_bound():
    for kind in ("ITF", "FTF", "OTF"):
        point = [p for p in paper_points() if p.name == kind][0]
        assert point.bound(V100, "dram") == "memory"
        assert point.intensity < 0.5  # far-left of Fig. 2


def test_bk64_compute_bound_at_l2_but_not_dram():
    """§3.3's argument: bk=64 needs the L2 to be compute-bound on V100."""
    point = [p for p in paper_points() if "bk=64" in p.name and "GEMM" in p.name][0]
    assert point.bound(V100, "l2") == "compute"
    assert point.bound(V100, "dram") == "memory"


def test_direct_conv_right_of_winograd_gemm():
    assert direct_conv_intensity(64) > gemm_step_intensity(64)


def test_roofline_table_rows():
    rows = roofline_table(V100)
    assert len(rows) == 6
    assert all(r["dram_tflops"] <= V100.peak_fp32_tflops + 1e-9 for r in rows)


def test_bad_transform_kind():
    with pytest.raises(ValueError):
        transform_intensity("XXX")


# ---------------------------------------------------------------------------
# Workspace (Fig. 14)
# ---------------------------------------------------------------------------
def test_our_workspace_matches_paper_exactly():
    """§7.3: 0.25 MB (Conv2), 1 MB (Conv3), 4 MB (Conv4), 16 MB (Conv5)."""
    for family, mb in PAPER_CLAIMS["ours_workspace_mb"].items():
        prob = resnet_layer(family, 32)
        assert workspace_mb(prob, "OURS") == pytest.approx(mb)


def test_implicit_gemm_zero_workspace():
    prob = resnet_layer("Conv2", 32)
    assert workspace_mb(prob, "IMPLICIT_GEMM") == 0.0
    assert workspace_mb(prob, "IMPLICIT_PRECOMP_GEMM") < 0.01


def test_explicit_gemm_workspace_matches_paper():
    """im2col is exactly 9× the activations — cuDNN reports the same."""
    for name, col in (("Conv2N32", 2), ("Conv5N128", 2)):
        prob = resnet_layer(name.split("N")[0], int(name.split("N")[1]))
        ours = workspace_mb(prob, "GEMM")
        paper = PAPER_FIG14_WORKSPACE_MB[name][ALGO_ORDER.index("GEMM")]
        assert ours == pytest.approx(paper, rel=0.01)


def test_nonfused_workspace_same_magnitude_as_paper():
    prob = resnet_layer("Conv2", 32)
    ours = workspace_mb(prob, "WINOGRAD_NONFUSED")
    paper = PAPER_FIG14_WORKSPACE_MB["Conv2N32"][ALGO_ORDER.index("WINOGRAD_NONFUSED")]
    assert 0.5 < ours / paper < 2.0


def test_fft_workspace_dominates():
    for name in ("Conv2", "Conv5"):
        prob = resnet_layer(name, 32)
        assert workspace_mb(prob, "FFT") > workspace_mb(prob, "WINOGRAD_NONFUSED")
        assert workspace_mb(prob, "FFT") > 10 * workspace_mb(prob, "OURS")


def test_workspace_scales_with_batch():
    a = workspace_mb(resnet_layer("Conv2", 32), "GEMM")
    b = workspace_mb(resnet_layer("Conv2", 128), "GEMM")
    assert b == pytest.approx(4 * a)
    # Our fused workspace is batch-independent (filters only).
    assert workspace_mb(resnet_layer("Conv2", 32), "OURS") == workspace_mb(
        resnet_layer("Conv2", 128), "OURS"
    )


# ---------------------------------------------------------------------------
# Break-even (§8.1)
# ---------------------------------------------------------------------------
def test_break_even_k_v100():
    assert break_even_k(V100) == pytest.approx(
        PAPER_CLAIMS["break_even_k_v100"], abs=2
    )


def test_break_even_k_rtx2070():
    assert break_even_k(RTX2070) == pytest.approx(
        PAPER_CLAIMS["break_even_k_rtx2070"], abs=5
    )


def test_variant_choice_flips_at_break_even():
    dev = V100
    below = ConvProblem(n=32, c=64, h=28, w=28, k=64)
    above = ConvProblem(n=32, c=64, h=28, w=28, k=512)
    assert faster_variant(below, dev) == "fused_f2x2"
    assert faster_variant(above, dev) == "nonfused_f4x4"


def test_break_even_independent_of_nchw():
    dev = V100
    k = int(break_even_k(dev))
    for scale in (1, 4):
        p_lo = ConvProblem(n=8 * scale, c=32, h=14, w=14, k=k - 30)
        p_hi = ConvProblem(n=8 * scale, c=32, h=14, w=14, k=k + 30)
        assert fused_time(p_lo, dev) < nonfused_time(p_lo, dev)
        assert fused_time(p_hi, dev) > nonfused_time(p_hi, dev)


@pytest.mark.parametrize("dev", [V100, RTX2070], ids=["V100", "RTX2070"])
def test_section_8_1_models_count_flops_over_the_output(dev):
    """A pad-0 layer costs its same-output pad-1 twin's FLOPs; only the
    non-fused traffic moves the larger input.  So DWM's single pad-0
    (out + 2)² part of a Table-1 layer is priced at the fused kernel's
    time, not ((out + 2) / out)² above it."""
    pad0 = ConvProblem(n=32, c=64, h=9, w=9, k=64, pad=0)
    pad1 = ConvProblem(n=32, c=64, h=7, w=7, k=64)
    assert fused_time(pad0, dev) == fused_time(pad1, dev)
    extra_traffic = 32 * 64 * (9 * 9 - 7 * 7) * 3.25 * 2 * 4 / (dev.dram_gbps * 1e9)
    assert nonfused_time(pad0, dev) - nonfused_time(pad1, dev) == pytest.approx(
        extra_traffic, rel=1e-9
    )
    for name in ("Conv2", "Conv3", "Conv4", "Conv5"):
        prob = resnet_layer(name, 32)
        assert dwm_winograd_time(prob, dev) == pytest.approx(
            DWM_PART_OVERHEAD * fused_winograd_time(prob, dev), rel=1e-12
        )


# ---------------------------------------------------------------------------
# cuDNN baseline models
# ---------------------------------------------------------------------------
def test_all_algorithms_return_positive_times():
    prob = resnet_layer("Conv3", 64)
    for algo in ("FFT", "FFT_TILING", "GEMM", "IMPLICIT_GEMM",
                 "IMPLICIT_PRECOMP_GEMM", "WINOGRAD", "WINOGRAD_NONFUSED"):
        assert cudnn_time(prob, V100, algo) > 0
        assert cudnn_time(prob, RTX2070, algo) > 0


def test_unknown_algorithm_raises():
    with pytest.raises(ModelError):
        cudnn_time(resnet_layer("Conv2", 32), V100, "NOPE")


def test_cudnn_winograd_beats_gemm_except_conv5():
    """Table 2's shape: Winograd ≥ GEMM on Conv2-4, loses on Conv5 N≥64."""
    for layer in ("Conv2", "Conv3", "Conv4"):
        p = resnet_layer(layer, 64)
        assert cudnn_time(p, V100, "WINOGRAD") < cudnn_time(
            p, V100, "IMPLICIT_PRECOMP_GEMM"
        )
    p = resnet_layer("Conv5", 96)
    assert cudnn_time(p, V100, "WINOGRAD") > cudnn_time(
        p, V100, "IMPLICIT_PRECOMP_GEMM"
    )


def test_cudnn_winograd_turing_penalty():
    """§7.1: the cuDNN kernel is relatively slower on Turing (occupancy)."""
    p = resnet_layer("Conv3", 64)
    v_ratio = cudnn_time(p, V100, "WINOGRAD") / cudnn_time(
        p, V100, "IMPLICIT_PRECOMP_GEMM"
    )
    t_ratio = cudnn_time(p, RTX2070, "WINOGRAD") / cudnn_time(
        p, RTX2070, "IMPLICIT_PRECOMP_GEMM"
    )
    assert t_ratio > v_ratio


def test_implicit_gemm_slower_than_precomp():
    p = resnet_layer("Conv2", 32)
    assert cudnn_time(p, V100, "IMPLICIT_GEMM") > 1.5 * cudnn_time(
        p, V100, "IMPLICIT_PRECOMP_GEMM"
    )


def test_explicit_gemm_pays_lowering():
    p = resnet_layer("Conv2", 32)
    assert cudnn_time(p, V100, "GEMM") > cudnn_time(
        p, V100, "IMPLICIT_PRECOMP_GEMM"
    )


def test_fft_worst_on_conv5():
    """Figures 12-13: FFT degrades most on the small-image layer."""
    r5 = cudnn_time(resnet_layer("Conv5", 32), V100, "FFT") / cudnn_time(
        resnet_layer("Conv5", 32), V100, "IMPLICIT_PRECOMP_GEMM"
    )
    r3 = cudnn_time(resnet_layer("Conv3", 32), V100, "FFT") / cudnn_time(
        resnet_layer("Conv3", 32), V100, "IMPLICIT_PRECOMP_GEMM"
    )
    assert r5 > r3


def test_nonfused_wins_on_conv5_only():
    """Figures 12-13 col WINOGRAD_NONFUSED: <1 ratio appears only on Conv5."""
    for layer, batch in (("Conv2", 64), ("Conv3", 64)):
        p = resnet_layer(layer, batch)
        assert cudnn_time(p, V100, "WINOGRAD_NONFUSED") > cudnn_time(
            p, V100, "WINOGRAD"
        ) / 2.3  # nonfused never dramatically wins on big images


def test_tile_overcompute():
    assert tile_overcompute(resnet_layer("Conv2", 32)) == pytest.approx(1.0)
    assert tile_overcompute(resnet_layer("Conv5", 32)) == pytest.approx(
        (8 / 7) ** 2
    )


def test_paper_layers_enumeration():
    layers = paper_layers()
    assert len(layers) == 16
    assert layers[0].name == "Conv2N32" and layers[-1].name == "Conv5N128"
