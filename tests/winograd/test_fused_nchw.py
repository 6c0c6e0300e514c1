"""The §8.4 NCHW-layout port of the fused pipeline."""

import numpy as np
import pytest

from repro.common import (
    ConvProblem,
    conv_tolerance,
    kcrs_to_crsk,
    make_rng,
    random_activation,
    random_filter,
)
from repro.convolution import direct_conv2d
from repro.winograd.fused_nchw import (
    FusedWinogradConvNCHW,
    warp_load_sectors,
)


def _run(prob, seed=0):
    rng = make_rng(seed)
    x = random_activation(prob, rng)
    f = random_filter(prob, rng)
    conv = FusedWinogradConvNCHW()
    f_t = conv.transform_filters(kcrs_to_crsk(f))
    y = conv.run_nchw(x, f_t, prob)
    np.testing.assert_allclose(
        y, direct_conv2d(x, f), atol=conv_tolerance(prob) * 4
    )


def test_matches_direct_exact_patch():
    # 16×8 output = exactly one 8×4 tile patch.
    _run(ConvProblem(n=2, c=8, h=16, w=8, k=64))


def test_matches_direct_ragged_patches():
    _run(ConvProblem(n=2, c=8, h=14, w=10, k=16))


def test_matches_direct_small_image():
    _run(ConvProblem(n=3, c=4, h=7, w=7, k=8))


def test_matches_direct_multi_kblock():
    _run(ConvProblem(n=1, c=8, h=16, w=8, k=96))


def test_same_results_as_chwn_pipeline():
    """§8.4: only the offsets change, so the NCHW port's output is the CHWN
    pipeline's byte for byte, float64 included (a channel remainder and
    two K blocks)."""
    from repro.common import khwn_to_nkhw, nchw_to_chwn
    from repro.winograd import FusedWinogradConv

    for prob in (
        ConvProblem(n=2, c=8, h=16, w=8, k=32),
        ConvProblem(n=4, c=19, h=13, w=6, k=70),
    ):
        for tile in ("f22", "f44"):
            for dtype in (np.float32, np.float64):
                rng = np.random.default_rng(5)
                x = rng.standard_normal((prob.n, prob.c, prob.h, prob.w)).astype(dtype)
                f_crsk = rng.standard_normal((prob.c, 3, 3, prob.k)).astype(dtype)
                nchw_conv = FusedWinogradConvNCHW(tile=tile)
                f_t = nchw_conv.transform_filters(f_crsk)
                y_nchw = nchw_conv.run_nchw(x, f_t, prob)
                y_chwn, _ = FusedWinogradConv(tile=tile).run(nchw_to_chwn(x), f_t, prob)
                assert y_nchw.flags.c_contiguous
                np.testing.assert_array_equal(y_nchw, khwn_to_nkhw(y_chwn))


# ---------------------------------------------------------------------------
# The coalescing argument (§8.4 / §4.2)
# ---------------------------------------------------------------------------
PROB = ConvProblem(n=32, c=64, h=56, w=56, k=64, name="Conv2N32")


def test_matched_mappings_fully_coalesce():
    """Each warp load = 128 consecutive bytes = 4 sectors (CHWN);
    the NCHW patch keeps the accesses within dense image rows (≤ 2
    sectors per patch row vs. one full sector per lane mismatched)."""
    assert warp_load_sectors(PROB, "CHWN", "batch") == 4
    assert warp_load_sectors(PROB, "NCHW", "patch") <= 16


def test_mismatched_mappings_scatter():
    """The §8.4 point: keep the mapping matched to the layout."""
    # Batch-fastest tiles in NCHW: 32 different images → 32 sectors.
    assert warp_load_sectors(PROB, "NCHW", "batch") == 32
    # Patch tiles in CHWN: every pixel lands N floats apart → 32 sectors.
    assert warp_load_sectors(PROB, "CHWN", "patch") == 32


def test_bad_arguments():
    from repro.common import LayoutError

    with pytest.raises(LayoutError):
        warp_load_sectors(PROB, "NHWC", "batch")
    with pytest.raises(LayoutError):
        warp_load_sectors(PROB, "CHWN", "spiral")
