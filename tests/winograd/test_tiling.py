"""Tile windows, the masked gather, the cropped store and implicit
zero-padding masks (§3.5)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import LayoutError
from repro.winograd import (
    TILE_F22,
    TILE_F44,
    FusedWinogradConv,
    FusedWinogradConvNCHW,
    gather_tiles,
    get_transform,
    mask_words,
    pack_mask,
    tile_index_grid,
    tile_windows,
    unpack_mask,
    zero_pad_mask,
)
from repro.winograd.fused import otf_store

F22 = dict(alpha=TILE_F22.alpha, m=TILE_F22.m, pad=1)
F44 = dict(alpha=TILE_F44.alpha, m=TILE_F44.m, pad=1)


def test_interior_tile_mask_all_true():
    mask = zero_pad_mask(2, 2, h=10, w=10, **F22)
    assert mask.all()


def test_corner_tile_mask():
    # Tile (0, 0) starts at input (-1, -1): first row and column are pad.
    mask = zero_pad_mask(0, 0, h=10, w=10, **F22)
    assert not mask[0].any()
    assert not mask[:, 0].any()
    assert mask[1:, 1:].all()


def test_bottom_edge_mask_conv5():
    # 7×7 input, tile row 3 starts at 2·3−1 = 5: rows 5,6 valid, 7,8 not.
    mask = zero_pad_mask(3, 0, h=7, w=7, **F22)
    assert mask[0, 1] and mask[1, 1]
    assert not mask[2].any() and not mask[3].any()


def test_f44_corner_tile_mask():
    # 6×6 tile (0, 0) starts at (-1, -1): one pad row/col, 5 valid.
    mask = zero_pad_mask(0, 0, h=14, w=14, **F44)
    assert mask.shape == (6, 6)
    assert not mask[0].any() and not mask[:, 0].any()
    assert mask[1:, 1:].all()


def test_mask_matches_padded_indexing():
    h = w = 6
    x = np.arange(h * w, dtype=np.float32).reshape(h, w)
    xp = np.pad(x + 1, 1)  # +1 so zeros only come from the pad
    for th in range(3):
        for tw in range(3):
            mask = zero_pad_mask(th, tw, h, w, **F22)
            window = xp[th * 2 : th * 2 + 4, tw * 2 : tw * 2 + 4]
            np.testing.assert_array_equal(mask, window != 0)


@given(bits=st.integers(0, 2**16 - 1))
@settings(max_examples=50, deadline=None)
def test_pack_unpack_roundtrip(bits):
    mask = unpack_mask(bits, (4, 4))
    assert pack_mask(mask) == (bits,)


def test_pack_is_row_major_bit_order():
    mask = np.zeros((4, 4), dtype=bool)
    mask[1, 2] = True  # element index 6
    assert pack_mask(mask) == (1 << 6,)


# ---------------------------------------------------------------------------
# Multi-word masks: a 6×6 f44 tile has 36 predicate bits, spanning two
# 32-bit register words (what two P2R words materialize in the prologue).
# ---------------------------------------------------------------------------
def test_mask_words_counts():
    assert mask_words(16) == 1
    assert mask_words(32) == 1
    assert mask_words(33) == 2
    assert mask_words(36) == 2
    assert mask_words(0) == 1
    with pytest.raises(LayoutError):
        mask_words(-1)


def test_pack_mask_6x6_spans_two_words():
    mask = np.zeros((6, 6), dtype=bool)
    mask[0, 0] = True   # element 0  → word 0, bit 0
    mask[5, 1] = True   # element 31 → word 0, bit 31
    mask[5, 2] = True   # element 32 → word 1, bit 0
    mask[5, 5] = True   # element 35 → word 1, bit 3
    words = pack_mask(mask)
    assert len(words) == 2
    assert words[0] == (1 << 0) | (1 << 31)
    assert words[1] == (1 << 0) | (1 << 3)
    np.testing.assert_array_equal(unpack_mask(words, (6, 6)), mask)


@given(bits=st.integers(0, 2**36 - 1))
@settings(max_examples=50, deadline=None)
def test_pack_unpack_roundtrip_multiword(bits):
    words = (bits & 0xFFFFFFFF, bits >> 32)
    mask = unpack_mask(words, (6, 6))
    assert pack_mask(mask) == words


def test_f44_zero_pad_mask_packs_round_trip():
    for th in range(3):
        for tw in range(3):
            mask = zero_pad_mask(th, tw, h=9, w=9, **F44)
            words = pack_mask(mask)
            assert len(words) == 2
            assert all(0 <= wd < (1 << 32) for wd in words)
            np.testing.assert_array_equal(unpack_mask(words, (6, 6)), mask)


def test_unpack_rejects_short_word_list():
    with pytest.raises(LayoutError):
        unpack_mask((0,), (6, 6))
    with pytest.raises(LayoutError):
        unpack_mask((0, 1 << 32), (6, 6))  # not a 32-bit register word


def _gather(x_chwn, rows, cols, alpha, m, pad):
    """The masked gather of the tiles at (rows[t], cols[t]) of image 0..N-1."""
    c, h, w, n = x_chwn.shape
    tr, tc = np.repeat(rows, n), np.repeat(cols, n)
    batch = np.tile(np.arange(n), rows.size)
    r, cl, mask = tile_windows(tr, tc, h, w, alpha, m, pad)
    tiles = gather_tiles(x_chwn, r, cl, batch, mask)  # (C, T·N, a, a)
    return tiles.reshape(c, rows.size, n, alpha, alpha)


def test_gather_matches_padded_slices():
    rng = np.random.default_rng(3)
    c, h, w, n = 3, 6, 5, 2
    x = rng.standard_normal((c, h, w, n)).astype(np.float32)
    xp = np.pad(x, ((0, 0), (1, 2), (1, 2), (0, 0)))
    rows = np.array([0, 1, 2, 0])
    cols = np.array([0, 1, 2, 2])
    tiles = _gather(x, rows, cols, **F22)
    assert tiles.shape == (c, 4, n, 4, 4)
    for t in range(4):
        expect = xp[:, rows[t] * 2 : rows[t] * 2 + 4, cols[t] * 2 : cols[t] * 2 + 4]
        np.testing.assert_array_equal(tiles[:, t], expect.transpose(0, 3, 1, 2))


def test_gather_f44_matches_padded_slices():
    rng = np.random.default_rng(5)
    c, h, w, n = 2, 9, 8, 2
    x = rng.standard_normal((c, h, w, n)).astype(np.float32)
    xp = np.pad(x, ((0, 0), (1, 4), (1, 4), (0, 0)))
    rows = np.array([0, 1, 2])
    cols = np.array([0, 1, 1])
    tiles = _gather(x, rows, cols, **F44)
    assert tiles.shape == (c, 3, n, 6, 6)
    for t in range(3):
        expect = xp[:, rows[t] * 4 : rows[t] * 4 + 6, cols[t] * 4 : cols[t] * 4 + 6]
        np.testing.assert_array_equal(tiles[:, t], expect.transpose(0, 3, 1, 2))


def test_gather_checks_layout():
    x = np.zeros((3, 6, 5), dtype=np.float32)
    with pytest.raises(LayoutError):
        FusedWinogradConv().run(x, np.zeros((3, 4, 4, 2), dtype=np.float32))
    with pytest.raises(LayoutError):
        FusedWinogradConvNCHW().run_nchw(x, np.zeros((3, 4, 4, 2), dtype=np.float32))


def _store_ones(k, h, w, n, m):
    """otf_store of all-ones tiles over the whole (h, w) output: Aᵀ's
    column 1 is all ones for F(2, 3) and F(4, 3), so the OTF of a tile
    that is 1 at element (1, 1) alone is all ones."""
    t = get_transform(m, 3)
    th, tw = -(-h // m), -(-w // m)
    o_hat = np.zeros((t.alpha, t.alpha, k, th * tw * n), dtype=np.float32)
    o_hat[1, 1] = 1.0
    y = np.zeros((k, h, w, n), dtype=np.float32)
    otf_store(t, o_hat.reshape(t.alpha**2, k, -1), y, 0)
    return y


def test_scatter_crops_overhang():
    # odd output: tile (2,2) covers row/col 5 (cropped)
    assert (_store_ones(k=2, h=5, w=5, n=1, m=2) == 1).all()


def test_scatter_crops_overhang_f44():
    # 7 = 4 + 3: second tile row/col is cropped
    assert (_store_ones(k=2, h=7, w=7, n=3, m=4) == 1).all()


def test_store_writes_tile_rows_in_grid_order():
    t = get_transform(2, 3)
    k, h, w, n = 2, 6, 5, 3
    th, tw = 3, 3
    y = np.zeros((k, h, w, n), dtype=np.float32)
    for r0 in range(th):  # one slab per tile row, as the fused executor may run them
        tile_r, tile_c, batch = tile_index_grid(1, tw, n)
        o_hat = np.zeros((t.alpha, t.alpha, k, tile_r.size), dtype=np.float32)
        # tile value = 100·row + 10·col + batch, in every filter
        o_hat[1, 1] = (100 * (tile_r + r0) + 10 * tile_c + batch).astype(np.float32)
        otf_store(t, o_hat.reshape(t.alpha**2, k, -1), y, r0)
    rr, cc, bb = np.meshgrid(np.arange(h), np.arange(w), np.arange(n), indexing="ij")
    expect = (100 * (rr // 2) + 10 * (cc // 2) + bb).astype(np.float32)
    np.testing.assert_array_equal(y, np.broadcast_to(expect, y.shape))


def test_tile_index_grid_batch_fastest():
    rows, cols, batch = tile_index_grid(2, 3, 4)
    assert rows.size == 24
    # Batch varies fastest (coalescing requirement).
    assert list(batch[:4]) == [0, 1, 2, 3]
    assert rows[0] == rows[3] and cols[0] == cols[3]
    # Then tile column, then tile row.
    assert cols[4] == 1 and rows[4] == 0
    assert rows[12] == 1
