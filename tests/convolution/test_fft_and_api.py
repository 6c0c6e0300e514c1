"""FFT algorithms and the unified dispatcher."""

import numpy as np
import pytest

from repro.common import ConvConfigError, ConvProblem, make_rng, random_activation, random_filter
from repro.convolution import (
    ALGORITHMS,
    conv2d,
    direct_conv2d,
    fft_conv2d,
    fft_tiling_conv2d,
    get_algorithm,
)


def _data(prob, seed=0):
    rng = make_rng(seed)
    return random_activation(prob, rng), random_filter(prob, rng)


def test_fft_matches_direct():
    prob = ConvProblem(n=2, c=3, h=8, w=9, k=4)
    x, f = _data(prob)
    y, stats = fft_conv2d(x, f)
    np.testing.assert_allclose(y, direct_conv2d(x, f), atol=1e-4)
    assert stats.workspace_bytes > 0
    # Counted in 8-byte complex values in any dtype.
    assert fft_conv2d(x.astype(np.float64), f.astype(np.float64))[1] == stats


def test_fft_is_correlation_not_convolution():
    """CNN conv = correlation: an asymmetric filter must not be flipped."""
    x = np.zeros((1, 1, 5, 5), dtype=np.float32)
    x[0, 0, 2, 2] = 1.0
    f = np.zeros((1, 1, 3, 3), dtype=np.float32)
    f[0, 0, 0, 2] = 1.0  # top-right tap
    y, _ = fft_conv2d(x, f)
    ref = direct_conv2d(x, f)
    np.testing.assert_allclose(y, ref, atol=1e-5)
    # Correlation: O[h,w] = I[h+r−1, w+s−1]·F[r,s] → impulse lands at (3,1).
    assert ref[0, 0, 3, 1] == 1.0


def test_fft_tiling_matches_direct_multiple_tiles():
    prob = ConvProblem(n=1, c=2, h=40, w=36, k=3)
    x, f = _data(prob)
    y, stats = fft_tiling_conv2d(x, f, tile=16)
    np.testing.assert_allclose(y, direct_conv2d(x, f), atol=1e-4)
    assert stats.tiles == 9  # ceil(40/16)·ceil(36/16)
    assert stats.fft_size == (32, 32)  # next pow2 of 16+2
    assert fft_tiling_conv2d(x.astype(np.float64), f.astype(np.float64), tile=16)[1] == stats


def test_fft_tiling_sizes_each_axis_from_the_output_extent():
    # A 7×7 output (Conv5) reads at most 9 input rows per tile: a 16-point
    # FFT, not the 64 a full 32-wide tile would need.
    prob = ConvProblem(n=1, c=2, h=7, w=7, k=3)
    x, f = _data(prob)
    y, stats = fft_tiling_conv2d(x, f)
    np.testing.assert_allclose(y, direct_conv2d(x, f), atol=1e-5)
    assert stats.fft_size == (16, 16)
    y, stats = fft_tiling_conv2d(*_data(ConvProblem(n=1, c=2, h=7, w=40, k=3)))
    assert stats.fft_size == (16, 64)


def test_fft_tiling_single_tile():
    prob = ConvProblem(n=1, c=1, h=6, w=6, k=1)
    x, f = _data(prob)
    y, stats = fft_tiling_conv2d(x, f, tile=32)
    np.testing.assert_allclose(y, direct_conv2d(x, f), atol=1e-5)
    assert stats.tiles == 1


# ---------------------------------------------------------------------------
# Dispatcher
# ---------------------------------------------------------------------------
def test_all_algorithms_agree():
    prob = ConvProblem(n=3, c=5, h=9, w=7, k=6)
    x, f = _data(prob, seed=7)
    ref = conv2d(x, f, algo="DIRECT")
    for algo in ALGORITHMS:
        y = conv2d(x, f, algo=algo)
        np.testing.assert_allclose(y, ref, atol=5e-5, err_msg=algo)


def test_unknown_algorithm():
    x = np.zeros((1, 1, 4, 4), dtype=np.float32)
    f = np.zeros((1, 1, 3, 3), dtype=np.float32)
    with pytest.raises(ConvConfigError):
        conv2d(x, f, algo="MAGIC")


def test_algo_case_insensitive():
    prob = ConvProblem(n=1, c=1, h=4, w=4, k=1)
    x, f = _data(prob)
    np.testing.assert_allclose(
        conv2d(x, f, algo="winograd"), conv2d(x, f, algo="WINOGRAD")
    )


def test_winograd_paths_reject_5x5():
    x = np.zeros((1, 1, 8, 8), dtype=np.float32)
    f = np.zeros((1, 1, 5, 5), dtype=np.float32)
    with pytest.raises(ConvConfigError):
        conv2d(x, f, pad=2, algo="WINOGRAD")


def test_get_algorithm_curried():
    prob = ConvProblem(n=1, c=2, h=5, w=5, k=2)
    x, f = _data(prob)
    fn = get_algorithm("GEMM")
    assert fn.__name__ == "conv2d_gemm"
    np.testing.assert_allclose(fn(x, f), conv2d(x, f, algo="GEMM"))


def test_get_algorithm_carries_metadata():
    fn = get_algorithm("fft")
    assert fn.__name__ == "conv2d_fft"
    assert fn.__qualname__ == "conv2d_fft"
    assert fn.__doc__ and "FFT" in fn.__doc__
    assert fn.algo == "FFT"
    assert fn.__wrapped__ is conv2d


def test_get_algorithm_rejects_unknown_eagerly():
    with pytest.raises(ConvConfigError):
        get_algorithm("MAGIC")


# ---------------------------------------------------------------------------
# Input validation (errors raised at the call site, not deep in NumPy)
# ---------------------------------------------------------------------------
def test_conv2d_rejects_non_4d_input():
    f = np.zeros((2, 3, 3, 3), dtype=np.float32)
    with pytest.raises(ConvConfigError, match="4-D NCHW"):
        conv2d(np.zeros((3, 8, 8), dtype=np.float32), f)
    with pytest.raises(ConvConfigError, match="4-D KCRS"):
        conv2d(
            np.zeros((1, 3, 8, 8), dtype=np.float32),
            np.zeros((3, 3, 3), dtype=np.float32),
        )


def test_conv2d_rejects_channel_mismatch_with_shapes_in_message():
    x = np.zeros((1, 4, 8, 8), dtype=np.float32)
    f = np.zeros((2, 3, 3, 3), dtype=np.float32)
    with pytest.raises(ConvConfigError, match=r"C=4.*C=3") as exc:
        conv2d(x, f)
    assert "(1, 4, 8, 8)" in str(exc.value) and "(2, 3, 3, 3)" in str(exc.value)


def test_conv2d_rejects_negative_pad():
    x = np.zeros((1, 2, 8, 8), dtype=np.float32)
    f = np.zeros((2, 2, 3, 3), dtype=np.float32)
    with pytest.raises(ConvConfigError, match="pad"):
        conv2d(x, f, pad=-1)
    with pytest.raises(ConvConfigError, match="pad"):
        conv2d(x, f, pad=1.5)


def test_conv2d_rejects_oversized_filter():
    x = np.zeros((1, 2, 4, 4), dtype=np.float32)
    f = np.zeros((2, 2, 7, 7), dtype=np.float32)
    with pytest.raises(ConvConfigError, match="does not fit"):
        conv2d(x, f, pad=0, algo="DIRECT")
