"""Direct conv (oracle pair) and GEMM-based algorithms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import (
    ConvConfigError,
    ConvProblem,
    LayoutError,
    make_rng,
    random_activation,
    random_filter,
)
from repro.convolution import (
    direct_conv2d,
    direct_conv2d_naive,
    gemm_conv2d,
    im2col,
    implicit_gemm_conv2d,
)


def _data(prob, seed=0):
    rng = make_rng(seed)
    return random_activation(prob, rng), random_filter(prob, rng)


def test_naive_equals_vectorized():
    prob = ConvProblem(n=2, c=3, h=5, w=6, k=4)
    x, f = _data(prob)
    np.testing.assert_allclose(
        direct_conv2d_naive(x, f), direct_conv2d(x, f), atol=1e-5
    )


def test_naive_hand_example():
    """3×3 all-ones filter over all-ones 3×3 input, pad 1: center = 9."""
    x = np.ones((1, 1, 3, 3), dtype=np.float32)
    f = np.ones((1, 1, 3, 3), dtype=np.float32)
    y = direct_conv2d_naive(x, f)
    assert y[0, 0, 1, 1] == 9
    assert y[0, 0, 0, 0] == 4  # corner sees a 2×2 patch
    assert y[0, 0, 0, 1] == 6  # edge sees a 2×3 patch


def test_direct_channel_mismatch():
    with pytest.raises(ConvConfigError):
        direct_conv2d(
            np.zeros((1, 3, 4, 4), dtype=np.float32),
            np.zeros((1, 2, 3, 3), dtype=np.float32),
        )


def test_direct_bad_rank():
    with pytest.raises(LayoutError):
        direct_conv2d(np.zeros((3, 4, 4)), np.zeros((1, 3, 3, 3)))


# ---------------------------------------------------------------------------
# im2col lowering
# ---------------------------------------------------------------------------
def test_im2col_shape_and_content():
    x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
    cols = im2col(x, 3, 3, pad=1)
    assert cols.shape == (16, 9)
    # Patch of output pixel (1,1) is the top-left 3×3 of the input.
    np.testing.assert_array_equal(cols[5], x[0, 0, :3, :3].ravel())
    # Corner patch has the pad zeros.
    assert cols[0, 0] == 0 and cols[0, 4] == x[0, 0, 0, 0]


def test_gemm_matches_direct():
    prob = ConvProblem(n=2, c=3, h=6, w=7, k=5)
    x, f = _data(prob)
    y, stats = gemm_conv2d(x, f)
    np.testing.assert_allclose(y, direct_conv2d(x, f), atol=1e-5)
    assert stats.workspace_bytes == prob.n * prob.out_h * prob.out_w * prob.c * 9 * 4
    assert stats.gemm_m == prob.n * prob.out_h * prob.out_w
    assert stats.gemm_n == prob.k
    assert stats.gemm_k == prob.c * 9
    assert stats.gemm_flops == 2 * stats.gemm_m * stats.gemm_n * stats.gemm_k
    # Counted in 4-byte elements, as the workspace model does, in any dtype.
    assert gemm_conv2d(x.astype(np.float64), f.astype(np.float64))[1] == stats


@pytest.mark.parametrize("precomp", [True, False])
def test_implicit_gemm_matches_direct(precomp):
    prob = ConvProblem(n=2, c=3, h=6, w=5, k=4)
    x, f = _data(prob)
    y, stats = implicit_gemm_conv2d(x, f, precomputed_offsets=precomp)
    np.testing.assert_allclose(y, direct_conv2d(x, f), atol=1e-5)
    if precomp:
        assert stats.workspace_bytes == prob.c * 9 * 4  # tiny offset table
    else:
        assert stats.workspace_bytes == 0


def test_implicit_gemm_tiling_boundary():
    """Exercise the tile loop with a tile size that doesn't divide rows."""
    prob = ConvProblem(n=1, c=2, h=5, w=5, k=3)
    x, f = _data(prob)
    y, _ = implicit_gemm_conv2d(x, f, tile_m=7)
    np.testing.assert_allclose(y, direct_conv2d(x, f), atol=1e-5)


@given(
    n=st.integers(1, 3),
    c=st.integers(1, 4),
    h=st.integers(3, 9),
    w=st.integers(3, 9),
    k=st.integers(1, 4),
)
@settings(max_examples=20, deadline=None)
def test_property_gemm_vs_direct(n, c, h, w, k):
    prob = ConvProblem(n=n, c=c, h=h, w=w, k=k)
    x, f = _data(prob, seed=h * w)
    y, _ = gemm_conv2d(x, f)
    np.testing.assert_allclose(y, direct_conv2d(x, f), atol=1e-4)
