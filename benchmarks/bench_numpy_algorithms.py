"""Wall-clock microbenchmarks of the NumPy algorithm implementations.

Not a paper figure: these time this library's own CPU implementations
(the functional layer under the simulator) with pytest-benchmark's real
timing loop, so performance regressions in the NumPy pipelines are
caught.  The shape is a scaled-down Conv3.
"""

import pytest

from repro.common import ConvProblem, kcrs_to_crsk, make_rng, nchw_to_chwn, random_activation, random_filter
from repro.convolution import (
    direct_conv2d,
    fft_conv2d,
    gemm_conv2d,
    implicit_gemm_conv2d,
)
from repro.winograd import FusedWinogradConv, NonFusedWinogradConv, winograd_conv2d_nchw

PROB = ConvProblem(n=4, c=32, h=28, w=28, k=32, name="mini-Conv3")
RNG = make_rng(0)
X = random_activation(PROB, RNG)
F = random_filter(PROB, RNG)
X_CHWN = nchw_to_chwn(X)
F_CRSK = kcrs_to_crsk(F)


def test_bench_direct(benchmark):
    benchmark(direct_conv2d, X, F)


def test_bench_gemm(benchmark):
    benchmark(lambda: gemm_conv2d(X, F)[0])


def test_bench_implicit_gemm(benchmark):
    benchmark(lambda: implicit_gemm_conv2d(X, F)[0])


def test_bench_fft(benchmark):
    benchmark(lambda: fft_conv2d(X, F)[0])


def test_bench_winograd_reference_f2(benchmark):
    benchmark(winograd_conv2d_nchw, X, F, 2)


def test_bench_winograd_reference_f4(benchmark):
    benchmark(winograd_conv2d_nchw, X, F, 4)


def test_bench_winograd_fused_pipeline(benchmark):
    conv = FusedWinogradConv()
    f_t = conv.transform_filters(F_CRSK)
    benchmark(conv.run, X_CHWN, f_t, PROB)


def test_bench_winograd_nonfused_pipeline(benchmark):
    conv = NonFusedWinogradConv(m=4)
    benchmark(lambda: conv.run(X_CHWN, F_CRSK, PROB)[0])


def test_bench_sass_assembler(benchmark):
    """Assembling the full Winograd kernel (the TuringAs hot path)."""
    from repro.common import ConvProblem as CP
    from repro.kernels import WinogradF22Kernel

    gen = WinogradF22Kernel(CP(n=32, c=16, h=8, w=8, k=64))
    benchmark(gen.build)
