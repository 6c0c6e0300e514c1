"""The fused F(2×2,3×3) pipeline model (Algorithm 1) vs the oracle."""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.winograd import (
    CUDNN_CONFIG,
    PAPER_CONFIG,
    BlockConfig,
    FusedWinogradConv,
    fused,
    tile_index_grid,
)


def _run(prob, config=PAPER_CONFIG, seed=0):
    rng = make_rng(seed)
    x = random_activation(prob, rng)
    f = random_filter(prob, rng)
    conv = FusedWinogradConv(config)
    y = khwn_to_nkhw(conv(nchw_to_chwn(x), kcrs_to_crsk(f)))
    ref = direct_conv2d(x, f)
    np.testing.assert_allclose(y, ref, atol=conv_tolerance(prob) * 4)
    return conv


def test_matches_direct_paper_shape():
    _run(ConvProblem(n=32, c=8, h=8, w=8, k=64))


def test_matches_direct_cudnn_config():
    _run(ConvProblem(n=32, c=8, h=8, w=8, k=32), CUDNN_CONFIG)


def test_irregular_everything():
    """C, K, tiles all off the blocking grid: masking must handle edges."""
    _run(ConvProblem(n=3, c=5, h=9, w=7, k=10))


def test_single_channel():
    _run(ConvProblem(n=1, c=1, h=4, w=4, k=1))


def test_large_k_multiple_kblocks():
    _run(ConvProblem(n=4, c=8, h=6, w=6, k=130))


@given(
    n=st.integers(1, 4),
    c=st.integers(1, 10),
    h=st.integers(3, 12),
    w=st.integers(3, 12),
    k=st.integers(1, 9),
)
@settings(max_examples=15, deadline=None)
def test_property_fused_matches_direct(n, c, h, w, k):
    _run(ConvProblem(n=n, c=c, h=h, w=w, k=k), seed=n + c + h + w + k)


# ---------------------------------------------------------------------------
# Block configuration invariants (Table 7, §3.3)
# ---------------------------------------------------------------------------
def test_paper_config_smem_budget():
    cfg = PAPER_CONFIG
    assert cfg.smem_filter_bytes == 32 * 1024
    assert cfg.smem_input_bytes == 16 * 1024
    assert cfg.smem_main_loop_bytes == 48 * 1024
    assert cfg.output_tiles_per_block == 2048


def test_paper_config_ffma_count():
    """1024 FFMAs per thread per bc-iteration (§4.2-§4.3)."""
    assert PAPER_CONFIG.ffma_per_thread_per_iter == 1024
    assert CUDNN_CONFIG.ffma_per_thread_per_iter == 512


def test_arithmetic_intensity_section_3_3():
    assert CUDNN_CONFIG.arithmetic_intensity() == pytest.approx(8.0)
    assert PAPER_CONFIG.arithmetic_intensity() == pytest.approx(32 / 3)
    gain = PAPER_CONFIG.arithmetic_intensity() / CUDNN_CONFIG.arithmetic_intensity()
    assert gain == pytest.approx(4 / 3)  # "+33%"


def test_block_config_rejects_nonpositive():
    with pytest.raises(ConvConfigError):
        BlockConfig(bk=0)


def test_block_config_rejects_nonpositive_threads():
    with pytest.raises(ConvConfigError):
        BlockConfig(threads=0)
    with pytest.raises(ConvConfigError):
        BlockConfig(threads=-32)


def test_block_config_rejects_threads_not_dividing_ffma_work():
    # 16·bk·bn·bc = 262144 at the paper's blocking; 96 does not divide it
    # and would make ffma_per_thread_per_iter lie (integer truncation).
    with pytest.raises(ConvConfigError):
        BlockConfig(threads=96)
    # Divisor counts stay accepted, and the accounting stays exact.
    assert BlockConfig(threads=128).ffma_per_thread_per_iter == 2048


# ---------------------------------------------------------------------------
# Stats and workload accounting
# ---------------------------------------------------------------------------
def test_run_stats_ffma_count():
    prob = ConvProblem(n=32, c=8, h=8, w=8, k=64)
    rng = make_rng(1)
    conv = FusedWinogradConv()
    x = nchw_to_chwn(random_activation(prob, rng))
    f_t = conv.transform_filters(kcrs_to_crsk(random_filter(prob, rng)))
    _, stats = conv.run(x, f_t, prob)
    # 16 EWMM points × K × total tiles × C multiply-accumulates.
    assert stats.ffma_total == 16 * 64 * prob.total_tiles(2) * 8
    assert stats.effective_flops == prob.direct_flops
    assert stats.grid_blocks == (prob.total_tiles(2) // 32) * 1
    assert stats.itf_fadd_total == 32 * prob.total_tiles(2) * 8


@pytest.mark.parametrize(
    "tile, expected",
    [
        ("f22", dict(grid_blocks=2, main_loop_iters_per_block=1, ffma_total=48000,
                     itf_fadd_total=9600, otf_fadd_total=14400,
                     gmem_load_bytes=25600, gmem_store_bytes=7560,
                     effective_flops=170100)),
        ("f44", dict(grid_blocks=1, main_loop_iters_per_block=1, ffma_total=32400,
                     itf_fadd_total=32400, otf_fadd_total=36000,
                     gmem_load_bytes=20160, gmem_store_bytes=7560,
                     effective_flops=170100)),
    ],
)
def test_run_stats_count_the_kernel_grid(tile, expected):
    """Every field on an irregular shape (C, K and both tile edges off the
    blocking grid), as the block-by-block loop counted it."""
    prob = ConvProblem(n=3, c=5, h=9, w=7, k=10)
    conv = FusedWinogradConv(tile=tile)
    rng = make_rng(1)
    x = nchw_to_chwn(random_activation(prob, rng))
    f_t = conv.transform_filters(kcrs_to_crsk(random_filter(prob, rng)))
    _, stats = conv.run(x, f_t, prob)
    assert dataclasses.asdict(stats) == expected


@pytest.mark.parametrize(
    "tile, shape",
    [("f22", dict(n=2, c=4, h=7, w=7, k=8)), ("f44", dict(n=32, c=8, h=7, w=7, k=16))],
)
def test_run_stats_are_json_ints_on_cropped_tiles(tile, shape):
    prob = ConvProblem(**shape)
    conv = FusedWinogradConv(tile=tile)
    x = np.zeros((prob.c, prob.h, prob.w, prob.n), dtype=np.float32)
    f_t = conv.transform_filters(np.zeros((prob.c, 3, 3, prob.k), dtype=np.float32))
    _, stats = conv.run(x, f_t, prob)
    fields = dataclasses.asdict(stats)
    assert all(type(v) is int for v in fields.values()), fields
    json.dumps(fields)


def test_workload_dict():
    prob = ConvProblem(n=32, c=64, h=56, w=56, k=64, name="Conv2N32")
    w = FusedWinogradConv().workload(prob)
    assert w["blocks"] == (28 * 28 * 32 // 32) * 1
    assert w["iters_per_block"] == 8
    assert w["ffma_per_thread_per_iter"] == 1024
    assert w["warps_per_block"] == 8
    assert w["smem_bytes_per_block"] == 48 * 1024


def test_transform_filters_layout():
    conv = FusedWinogradConv()
    f = np.zeros((5, 3, 3, 7), dtype=np.float32)
    out = conv.transform_filters(f)
    assert out.shape == (5, 4, 4, 7)


def test_transform_filters_rejects_bad_shape():
    with pytest.raises(LayoutError):
        FusedWinogradConv().transform_filters(np.zeros((5, 5, 5, 7), dtype=np.float32))


def _ftf_reference(conv, f_crsk):
    """The filter transform as one einsum over every channel at once."""
    g = conv.transform.g
    return np.ascontiguousarray(np.einsum("ij,cjsk,ls->cilk", g, f_crsk, g, optimize=True))


FTF_SIZES = (1, 7, 31, 33, 64, 257, 512)


@pytest.mark.parametrize("one_channel_groups", [False, True])
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
@pytest.mark.parametrize("tile", ["f22", "f44"])
def test_transform_filters_is_byte_identical_to_one_einsum(
    tile, dtype, one_channel_groups, monkeypatch
):
    conv = FusedWinogradConv(tile=tile)
    if one_channel_groups:
        monkeypatch.setattr(fused, "_FTF_CHUNK_BYTES", 1)
    rng = np.random.default_rng(11)
    for c in FTF_SIZES:
        for k in FTF_SIZES:
            f = rng.standard_normal((c, 3, 3, k)).astype(dtype)
            out = conv.transform_filters(f)
            assert out.flags.c_contiguous
            assert out.tobytes() == _ftf_reference(conv, f).tobytes(), (c, k)


def test_transform_filters_peak_is_the_output_plus_one_group():
    from repro.models import resnet_layer

    prob = resnet_layer("Conv5", 1)
    conv = FusedWinogradConv(tile="f44")
    f = kcrs_to_crsk(random_filter(prob, make_rng(3)))
    tracemalloc.start()
    try:
        out = conv.transform_filters(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + fused._FTF_CHUNK_BYTES


def test_transform_filters_of_no_filters_is_empty():
    assert FusedWinogradConv().transform_filters(
        np.zeros((2, 3, 3, 0), dtype=np.float32)
    ).shape == (2, 4, 4, 0)


def test_fused_requires_f23_transform():
    from repro.winograd import get_transform

    with pytest.raises(ConvConfigError):
        FusedWinogradConv(transform=get_transform(4, 3))


@pytest.mark.parametrize(
    "field, value", [("n", 3), ("c", 5), ("h", 4), ("h", 8), ("w", 5), ("k", 9)]
)
def test_run_rejects_problem_disagreeing_with_tensors(field, value):
    conv = FusedWinogradConv()
    shape = dict(n=2, c=4, h=6, w=6, k=8)
    with pytest.raises(LayoutError):
        conv.run(
            np.zeros((4, 6, 6, 2), dtype=np.float32),
            np.zeros((4, 4, 4, 8), dtype=np.float32),
            ConvProblem(**{**shape, field: value}),
        )


def test_run_rejects_mismatched_filters():
    conv = FusedWinogradConv()
    with pytest.raises(LayoutError):
        conv.run(
            np.zeros((4, 8, 8, 2), dtype=np.float32),
            np.zeros((5, 4, 4, 8), dtype=np.float32),
        )


# ---------------------------------------------------------------------------
# F(4×4,3×3) tile: the fused model vs the oracle (§8.1, docs/winograd_tiles.md)
# ---------------------------------------------------------------------------
def test_fused_f44_matches_direct_small():
    prob = ConvProblem(n=2, c=4, h=9, w=9, k=8)
    rng = make_rng(13)
    x = random_activation(prob, rng)
    f = random_filter(prob, rng)
    conv = FusedWinogradConv(tile="f44")
    y = khwn_to_nkhw(conv(nchw_to_chwn(x), kcrs_to_crsk(f)))
    np.testing.assert_allclose(
        y, direct_conv2d(x, f), atol=conv_tolerance(prob) * 16
    )


def test_fused_f44_mismatched_transform_rejected():
    from repro.winograd import get_transform

    with pytest.raises(ConvConfigError):
        FusedWinogradConv(tile="f44", transform=get_transform(2, 3))


@pytest.mark.parametrize("name", ["Conv2", "Conv3", "Conv4", "Conv5"])
def test_fused_f44_matches_reference_on_table1(name):
    """Table-1 sweep at N=32: fused F(4×4,3×3) vs the WINOGRAD_REFERENCE
    oracle.  Both sides use the identical Lavin & Gray f43 matrices; the
    only difference is the fused model's channel/K blocking, so the
    results must agree to reassociation round-off."""
    from repro.models import resnet_layer
    from repro.winograd import winograd_conv2d_nchw

    prob = resnet_layer(name, 32)
    rng = make_rng(17)
    x = random_activation(prob, rng)
    f = random_filter(prob, rng)
    conv = FusedWinogradConv(tile="f44")
    y = khwn_to_nkhw(conv(nchw_to_chwn(x), kcrs_to_crsk(f)))
    ref = winograd_conv2d_nchw(x, f, m=4, pad=prob.pad)
    assert y.shape == ref.shape == (prob.n, prob.k, prob.out_h, prob.out_w)
    scale = float(np.abs(ref).max())
    assert float(np.abs(y - ref).max()) / scale < 2e-5


# ---------------------------------------------------------------------------
# run() vs the kernel's grid, replayed block by block
# ---------------------------------------------------------------------------
def _grid_reference(conv, x_chwn, f_t, prob):
    """Algorithm 1 as the kernel's grid runs it: one bn-tile × bk-filter
    block at a time, each accumulating its bc-channel chunks in order."""
    t, cfg = conv.transform, conv.config
    a, m, e = t.alpha, t.m, t.alpha * t.alpha
    c, h, w, n = x_chwn.shape
    k = f_t.shape[3]
    tile_r, tile_c, tile_n = tile_index_grid(prob.tiles_h(m), prob.tiles_w(m), n)
    y = np.zeros((k, prob.out_h, prob.out_w, n), dtype=np.float32)
    for g0 in range(0, tile_r.size, cfg.bn):
        g = slice(g0, g0 + cfg.bn)
        rows = tile_r[g, None] * m - prob.pad + np.arange(a)
        cols = tile_c[g, None] * m - prob.pad + np.arange(a)
        mask = ((rows >= 0) & (rows < h))[:, :, None] & ((cols >= 0) & (cols < w))[:, None, :]
        rows, cols, batch = np.clip(rows, 0, h - 1), np.clip(cols, 0, w - 1), tile_n[g]
        for k0 in range(0, k, cfg.bk):
            f_blk = f_t[..., k0 : k0 + cfg.bk]
            bk = f_blk.shape[3]
            acc = np.zeros((e, bk, batch.size), dtype=np.float32)
            for c0 in range(0, c, cfg.bc):
                tiles = x_chwn[
                    c0 : c0 + cfg.bc, rows[:, :, None], cols[:, None, :], batch[:, None, None]
                ]
                tiles = t.transform_input(np.where(mask, tiles, np.float32(0)))
                i_smem = tiles.transpose(2, 3, 0, 1).reshape(e, -1, batch.size)
                f_smem = f_blk[c0 : c0 + cfg.bc].transpose(1, 2, 0, 3).reshape(e, -1, bk)
                acc += np.einsum("pck,pcn->pkn", f_smem, i_smem, optimize=True)
            o = t.transform_output(acc.reshape(a, a, bk, -1).transpose(2, 3, 0, 1))
            for j, b in enumerate(batch):
                r0, c0 = tile_r[g0 + j] * m, tile_c[g0 + j] * m
                y[k0 : k0 + bk, r0 : r0 + m, c0 : c0 + m, b] = o[
                    :, j, : prob.out_h - r0, : prob.out_w - c0
                ]
    return y


# Several tile and K blocks, tile rows at least 2 tiles wide, cropped edges.
# No block holds a single tile or filter: there the block's own GEMM is a
# matrix-vector product that BLAS rounds differently (within tolerance).
GRID_PROBLEMS = [
    ("f22", None, dict(n=3, c=10, h=9, w=11, k=130)),
    ("f22", CUDNN_CONFIG, dict(n=4, c=8, h=6, w=6, k=70)),
    ("f22", None, dict(n=2, c=5, h=10, w=9, k=20, pad=0)),
    ("f44", None, dict(n=5, c=9, h=11, w=13, k=40)),
]


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
@pytest.mark.parametrize("one_row_slabs", [False, True])
@pytest.mark.parametrize("tile, config, shape", GRID_PROBLEMS)
def test_run_is_byte_identical_to_the_block_grid(
    tile, config, shape, one_row_slabs, dtype, monkeypatch
):
    """float64 operands give float64 GEMM products, which the block grid
    rounds to float32 only as it adds them."""
    prob = ConvProblem(**shape)
    conv = FusedWinogradConv(config, tile=tile)
    rng = make_rng(5)
    x = nchw_to_chwn(random_activation(prob, rng).astype(dtype))
    f_t = conv.transform_filters(kcrs_to_crsk(random_filter(prob, rng).astype(dtype)))
    if one_row_slabs:
        monkeypatch.setattr(fused, "_SLAB_BYTES", 1)
    y, _ = conv.run(x, f_t, prob)
    assert y.tobytes() == _grid_reference(conv, x, f_t, prob).tobytes()


def test_run_memory_is_the_output_plus_a_bounded_working_set():
    """The closed form of run's docstring, on a layer whose slab holds
    only part of the tile rows."""
    from repro.models import resnet_layer

    prob = resnet_layer("Conv2", 32)
    conv = FusedWinogradConv()
    rng = make_rng(2)
    x = nchw_to_chwn(random_activation(prob, rng))
    f_t = conv.transform_filters(kcrs_to_crsk(random_filter(prob, rng)))
    alpha, bc = conv.transform.alpha, conv.config.bc
    tw, th = prob.tiles_w(2), prob.tiles_h(2)
    rows = max(1, fused._SLAB_BYTES // (4 * alpha**2 * (prob.k + bc) * tw * prob.n))
    assert rows < th
    tiles = rows * tw * prob.n
    acc, chunk = 4 * alpha**2 * prob.k * tiles, 4 * alpha**2 * bc * tiles
    working_set = 3 * acc + 6 * chunk + 64 * alpha * tiles + (1 << 20)
    tracemalloc.start()
    try:
        y, _ = conv.run(x, f_t, prob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= y.nbytes + working_set
