"""Non-fused F(4×4,3×3) pipeline and its workspace accounting."""

import numpy as np
import pytest

from repro.common import (
    ConvConfigError,
    ConvProblem,
    LayoutError,
    conv_tolerance,
    kcrs_to_crsk,
    khwn_to_nkhw,
    make_rng,
    nchw_to_chwn,
    random_activation,
    random_filter,
)
from repro.convolution import direct_conv2d
from repro.winograd import NonFusedWinogradConv


def _run(prob, m=4, seed=0):
    rng = make_rng(seed)
    x = random_activation(prob, rng)
    f = random_filter(prob, rng)
    conv = NonFusedWinogradConv(m=m)
    y, stats = conv.run(nchw_to_chwn(x), kcrs_to_crsk(f), prob)
    ref = direct_conv2d(x, f)
    np.testing.assert_allclose(khwn_to_nkhw(y), ref, atol=conv_tolerance(prob) * 8)
    return conv, stats


@pytest.mark.parametrize("m", [2, 4])
def test_matches_direct(m):
    _run(ConvProblem(n=2, c=4, h=10, w=10, k=6), m=m)


def test_odd_sizes():
    _run(ConvProblem(n=2, c=3, h=7, w=9, k=5))


def test_conv5_like():
    _run(ConvProblem(n=4, c=8, h=7, w=7, k=8))


def test_workspace_formula_matches_run():
    prob = ConvProblem(n=2, c=4, h=8, w=8, k=6)
    conv, stats = _run(prob)
    assert stats.workspace_bytes == conv.workspace_bytes(prob)
    assert stats.workspace_bytes == (
        stats.transformed_input_bytes
        + stats.transformed_filter_bytes
        + stats.transformed_output_bytes
    )


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_run_reports_the_modelled_workspace_in_any_dtype(dtype):
    # The run reports 4-byte elements, as workspace_bytes(), Fig. 14 and
    # the dispatcher's workspace model do, however wide the host arrays.
    from repro.perfmodel.workspace import DISPATCH_WORKSPACE

    prob = ConvProblem(n=2, c=4, h=8, w=8, k=6)
    rng = make_rng(0)
    x = random_activation(prob, rng).astype(dtype)
    f = random_filter(prob, rng).astype(dtype)
    conv = NonFusedWinogradConv()
    _, stats = conv.run(nchw_to_chwn(x), kcrs_to_crsk(f), prob)
    assert stats.workspace_bytes == conv.workspace_bytes(prob) == 14_976
    assert stats.workspace_bytes == DISPATCH_WORKSPACE["WINOGRAD_NONFUSED"](prob)
    assert stats.transformed_filter_bytes == 36 * 4 * 6 * 4


def test_workspace_components():
    prob = ConvProblem(n=2, c=4, h=8, w=8, k=6)
    _, stats = _run(prob)
    total = prob.total_tiles(4)
    assert stats.transformed_input_bytes == 36 * 4 * total * 4
    assert stats.transformed_filter_bytes == 36 * 4 * 6 * 4
    assert stats.transformed_output_bytes == 36 * 6 * total * 4


def test_gemm_flops_accounting():
    prob = ConvProblem(n=1, c=2, h=8, w=8, k=3)
    _, stats = _run(prob)
    assert stats.gemm_flops == 2 * 36 * 3 * 2 * prob.total_tiles(4)


def test_rejects_non3x3():
    conv = NonFusedWinogradConv()
    with pytest.raises(ConvConfigError):
        conv.run(
            np.zeros((2, 8, 8, 1), dtype=np.float32),
            np.zeros((2, 5, 5, 3), dtype=np.float32),
        )


def test_rejects_bad_layout():
    conv = NonFusedWinogradConv()
    with pytest.raises(LayoutError):
        conv.run(np.zeros((2, 8, 8), dtype=np.float32), np.zeros((2, 3, 3, 3), dtype=np.float32))


@pytest.mark.parametrize(
    "field, value", [("n", 3), ("c", 5), ("h", 4), ("h", 8), ("w", 5), ("k", 9)]
)
def test_run_rejects_problem_disagreeing_with_tensors(field, value):
    shape = dict(n=2, c=4, h=6, w=6, k=8)
    with pytest.raises(LayoutError):
        NonFusedWinogradConv().run(
            np.zeros((4, 6, 6, 2), dtype=np.float32),
            np.zeros((4, 3, 3, 8), dtype=np.float32),
            ConvProblem(**{**shape, field: value}),
        )


def test_run_takes_pad_from_the_problem():
    y, _ = NonFusedWinogradConv().run(
        np.zeros((4, 6, 6, 2), dtype=np.float32),
        np.zeros((4, 3, 3, 8), dtype=np.float32),
        ConvProblem(n=2, c=4, h=6, w=6, k=8, pad=0),
    )
    assert y.shape == (8, 4, 4, 2)
