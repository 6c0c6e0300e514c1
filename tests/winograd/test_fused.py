"""The fused F(2×2,3×3) pipeline model (Algorithm 1) vs the oracle."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import (
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
from repro.perfmodel.roofline import Blocking
from repro.winograd import (
    TILE_F22,
    FusedWinogradConv,
    TileSpec,
    fused,
    tile_index_grid,
)

#: F(2×2,3×3) at cuDNN's blocking (bk = 32, Table 7).
CUDNN_TILE = TileSpec(m=2, r=3, name="f22-cudnn", bk=32, bn=32, bc=8)


def _run(prob, tile=None, seed=0):
    rng = make_rng(seed)
    x = random_activation(prob, rng)
    f = random_filter(prob, rng)
    conv = FusedWinogradConv(tile)
    y = khwn_to_nkhw(conv(nchw_to_chwn(x), kcrs_to_crsk(f)))
    ref = direct_conv2d(x, f)
    np.testing.assert_allclose(y, ref, atol=conv_tolerance(prob) * 4)
    return conv


def test_matches_direct_paper_shape():
    _run(ConvProblem(n=32, c=8, h=8, w=8, k=64))


def test_matches_direct_cudnn_config():
    _run(ConvProblem(n=32, c=8, h=8, w=8, k=32), CUDNN_TILE)


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
# The tiles' blocking invariants (Table 7, §3.3), in the perfmodel's closed form
# ---------------------------------------------------------------------------
def _blocking(tile):
    return Blocking(tile.bk, tile.bn, tile.bc, elements=tile.elements)


def test_paper_config_smem_budget():
    paper = _blocking(TILE_F22)
    assert paper.smem_bytes == (32 + 16) * 1024
    assert paper.accumulators == 16 * 2048 // 256  # 2048 output tiles per block


def test_paper_config_ffma_count():
    """1024 FFMAs per thread per bc-iteration (§4.2-§4.3)."""
    assert _blocking(TILE_F22).fma_per_thread == 1024
    assert _blocking(CUDNN_TILE).fma_per_thread == 512


def test_arithmetic_intensity_section_3_3():
    paper, cudnn = _blocking(TILE_F22), _blocking(CUDNN_TILE)
    assert cudnn.arithmetic_intensity == pytest.approx(8.0)
    assert paper.arithmetic_intensity == pytest.approx(32 / 3)
    gain = paper.arithmetic_intensity / cudnn.arithmetic_intensity
    assert gain == pytest.approx(4 / 3)  # "+33%"


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
def _grid_reference(conv, x_chwn, f_t, prob, bk, bn, bc):
    """Algorithm 1 as the kernel's grid runs it: one bn-tile × bk-filter
    block at a time, each accumulating its bc-channel chunks in order."""
    t = conv.transform
    a, m, e = t.alpha, t.m, t.alpha * t.alpha
    c, h, w, n = x_chwn.shape
    k = f_t.shape[3]
    tile_r, tile_c, tile_n = tile_index_grid(prob.tiles_h(m), prob.tiles_w(m), n)
    y = np.zeros((k, prob.out_h, prob.out_w, n), dtype=np.float32)
    for g0 in range(0, tile_r.size, bn):
        g = slice(g0, g0 + bn)
        rows = tile_r[g, None] * m - prob.pad + np.arange(a)
        cols = tile_c[g, None] * m - prob.pad + np.arange(a)
        mask = ((rows >= 0) & (rows < h))[:, :, None] & ((cols >= 0) & (cols < w))[:, None, :]
        rows, cols, batch = np.clip(rows, 0, h - 1), np.clip(cols, 0, w - 1), tile_n[g]
        for k0 in range(0, k, bk):
            f_blk = f_t[..., k0 : k0 + bk]
            kb = f_blk.shape[3]
            acc = np.zeros((e, kb, batch.size), dtype=np.float32)
            for c0 in range(0, c, bc):
                tiles = x_chwn[
                    c0 : c0 + bc, rows[:, :, None], cols[:, None, :], batch[:, None, None]
                ]
                tiles = t.transform_input(np.where(mask, tiles, np.float32(0)))
                i_smem = tiles.transpose(2, 3, 0, 1).reshape(e, -1, batch.size)
                f_smem = f_blk[c0 : c0 + bc].transpose(1, 2, 0, 3).reshape(e, -1, kb)
                acc += np.einsum("pck,pcn->pkn", f_smem, i_smem, optimize=True)
            o = t.transform_output(acc.reshape(a, a, kb, -1).transpose(2, 3, 0, 1))
            for j, b in enumerate(batch):
                r0, c0 = tile_r[g0 + j] * m, tile_c[g0 + j] * m
                y[k0 : k0 + kb, r0 : r0 + m, c0 : c0 + m, b] = o[
                    :, j, : prob.out_h - r0, : prob.out_w - c0
                ]
    return y


# Several tile and K blocks, tile rows at least 2 tiles wide, cropped edges.
# No block holds a single tile or filter: there the block's own GEMM is a
# matrix-vector product that BLAS rounds differently (within tolerance).
# The grid's (bk, bn, bc) is the tile's own where `config` is None; run()
# reads only bc, so any bk and bn give the same bytes.
GRID_PROBLEMS = [
    ("f22", None, dict(n=3, c=10, h=9, w=11, k=130)),
    ("f22", (CUDNN_TILE.bk, CUDNN_TILE.bn, CUDNN_TILE.bc), dict(n=4, c=8, h=6, w=6, k=70)),
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
    conv = FusedWinogradConv(tile=tile)
    bk, bn, bc = config or (conv.tile.bk, conv.tile.bn, conv.tile.bc)
    rng = make_rng(5)
    x = nchw_to_chwn(random_activation(prob, rng).astype(dtype))
    f_t = conv.transform_filters(kcrs_to_crsk(random_filter(prob, rng).astype(dtype)))
    if one_row_slabs:
        monkeypatch.setattr(fused, "_SLAB_BYTES", 1)
    y = conv.run(x, f_t, prob)
    assert y.tobytes() == _grid_reference(conv, x, f_t, prob, bk, bn, bc).tobytes()


def test_run_memory_is_the_output_plus_a_bounded_working_set():
    """The closed form of run's docstring, on a layer whose slab holds
    only part of the tile rows."""
    from repro.models import resnet_layer

    prob = resnet_layer("Conv2", 32)
    conv = FusedWinogradConv()
    rng = make_rng(2)
    x = nchw_to_chwn(random_activation(prob, rng))
    f_t = conv.transform_filters(kcrs_to_crsk(random_filter(prob, rng)))
    alpha, bc = conv.transform.alpha, conv.tile.bc
    tw, th = prob.tiles_w(2), prob.tiles_h(2)
    rows = max(1, fused._SLAB_BYTES // (4 * alpha**2 * (prob.k + bc) * tw * prob.n))
    assert rows < th
    tiles = rows * tw * prob.n
    acc, chunk = 4 * alpha**2 * prob.k * tiles, 4 * alpha**2 * bc * tiles
    working_set = 3 * acc + 6 * chunk + 64 * alpha * tiles + (1 << 20)
    tracemalloc.start()
    try:
        y = conv.run(x, f_t, prob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= y.nbytes + working_set
