"""Tile geometry and implicit zero-padding (paper §3.5), tile-generic.

The kernel never materializes a padded input.  Every (tile-row h̃,
tile-col w̃) pair maps to a window of the *unpadded* input starting at
``(h̃·m - pad, w̃·m - pad)``; elements that fall outside ``[0, H) × [0, W)``
are zeros.  Because each thread always loads the tile at the same
``(h̃, w̃)``, the alpha² in-bounds booleans can be precomputed once —
the predicate mask the paper packs into a register with P2R.

Geometry (alpha, m, pad) is an explicit parameter of every helper here:
F(2×2,3×3) works on 4×4 windows with 16-bit masks, F(4×4,3×3) on 6×6
windows whose 36-bit masks no longer fit one register — ``pack_mask``
returns one 32-bit word per 32 predicates, exactly the register words
the SASS prologue materializes (one P2R word for f22, two for f44).

This module provides that mask computation and the gather/scatter
helpers shared by the reference and fused implementations.  The gathers
are written against the CHWN layout with flat indices + masks rather
than ``np.pad`` so they compute the *same addresses* the SASS kernel
generators emit.
"""

from __future__ import annotations

import numpy as np

from ..common.errors import LayoutError
from ..common.problem import ConvProblem

#: Predicate bits per mask register word (a 32-bit GPR filled by P2R).
MASK_WORD_BITS = 32


def tile_origin(tile_idx: int, m: int, pad: int) -> int:
    """First input row/col (possibly negative) covered by a tile index."""
    return tile_idx * m - pad


def zero_pad_mask(
    h_tile: int, w_tile: int, h: int, w: int, alpha: int, m: int, pad: int
) -> np.ndarray:
    """The (alpha, alpha) bool mask of in-bounds elements for one tile.

    ``True`` means the element is inside the real input and must be
    loaded; ``False`` means implicit zero.  For F(2×2, 3×3) this is the
    16-bool mask of §3.5 — more than the 7 hardware predicate registers,
    hence the P2R/R2P packing trick; F(4×4, 3×3) has 36 bools spanning
    two mask words.
    """
    rows = tile_origin(h_tile, m, pad) + np.arange(alpha)
    cols = tile_origin(w_tile, m, pad) + np.arange(alpha)
    return ((rows >= 0) & (rows < h))[:, None] & ((cols >= 0) & (cols < w))[None, :]


def mask_words(num_bits: int) -> int:
    """Number of 32-bit register words holding *num_bits* predicates."""
    if num_bits < 0:
        raise LayoutError(f"mask cannot have {num_bits} bits")
    return max(1, -(-num_bits // MASK_WORD_BITS))


def pack_mask(mask: np.ndarray) -> tuple[int, ...]:
    """Pack a bool mask into 32-bit words, row-major, bit i = element i.

    Mirrors what ``P2R`` produces after the per-element ``ISETP`` chain:
    word w holds elements ``32·w .. 32·w + 31``.  A 4×4 f22 mask packs
    into one word; a 6×6 f44 mask (36 bits) into two — element 35 is
    bit 3 of the second word.
    """
    flat = np.asarray(mask, dtype=bool).ravel()
    words = [0] * mask_words(flat.size)
    for i, bit in enumerate(flat):
        if bit:
            words[i // MASK_WORD_BITS] |= 1 << (i % MASK_WORD_BITS)
    return tuple(words)


def unpack_mask(words, shape: tuple[int, ...]) -> np.ndarray:
    """Inverse of :func:`pack_mask` (what ``R2P`` restores in the loop).

    Accepts the word tuple :func:`pack_mask` returns, or a bare int for
    single-word masks.  Raises :class:`LayoutError` when the word count
    does not cover *shape*.
    """
    size = int(np.prod(shape))
    if isinstance(words, (int, np.integer)):
        words = (int(words),)
    words = tuple(int(w) for w in words)
    if len(words) < mask_words(size):
        raise LayoutError(
            f"mask shape {shape} needs {mask_words(size)} words, got {len(words)}"
        )
    for w in words:
        if not (0 <= w < (1 << MASK_WORD_BITS)):
            raise LayoutError(f"mask word {w:#x} does not fit a 32-bit register")
    bits = [
        (words[i // MASK_WORD_BITS] >> (i % MASK_WORD_BITS)) & 1 for i in range(size)
    ]
    return np.array(bits, dtype=bool).reshape(shape)


def gather_input_tiles_chwn(
    x_chwn: np.ndarray,
    tile_rows: np.ndarray,
    tile_cols: np.ndarray,
    alpha: int,
    m: int,
    pad: int,
) -> np.ndarray:
    """Gather input tiles from a CHWN tensor with implicit zero padding.

    Parameters
    ----------
    x_chwn: input activations, layout (C, H, W, N).
    tile_rows, tile_cols: 1-D integer arrays of tile indices (same length
        T); element t selects the tile at (tile_rows[t], tile_cols[t]).
    alpha, m, pad: the tile geometry (explicit — no hidden f22 default).

    Returns
    -------
    Array of shape (C, T, alpha, alpha, N): for every channel and tile,
    the alpha×alpha window with out-of-bounds elements set to zero.
    """
    if x_chwn.ndim != 4:
        raise LayoutError(f"expected CHWN input, got shape {x_chwn.shape}")
    c, h, w, n = x_chwn.shape
    tile_rows = np.asarray(tile_rows)
    tile_cols = np.asarray(tile_cols)
    rows = tile_rows[:, None] * m - pad + np.arange(alpha)[None, :]  # (T, alpha)
    cols = tile_cols[:, None] * m - pad + np.arange(alpha)[None, :]  # (T, alpha)
    row_ok = (rows >= 0) & (rows < h)
    col_ok = (cols >= 0) & (cols < w)
    mask = row_ok[:, :, None] & col_ok[:, None, :]  # (T, alpha, alpha)
    rows_c = np.clip(rows, 0, h - 1)
    cols_c = np.clip(cols, 0, w - 1)
    # Fancy-gather: (C, T, alpha, alpha, N).
    tiles = x_chwn[:, rows_c[:, :, None], cols_c[:, None, :], :]
    tiles = np.where(mask[None, :, :, :, None], tiles, np.zeros((), x_chwn.dtype))
    return tiles


def scatter_output_tiles_khwn(
    y_khwn: np.ndarray,
    tiles: np.ndarray,
    tile_rows: np.ndarray,
    tile_cols: np.ndarray,
    m: int,
) -> None:
    """Scatter m×m output tiles into a KHWN tensor, cropping overhang.

    ``tiles`` has shape (K_local..., T, m, m, N) matching the gather's
    (T, m, m, N) trailing layout; rows/cols landing past the output edge
    (the "one more pixel" of a 7×7 Conv5 output, §7.3 observation 2) are
    discarded, exactly as the kernel's predicated stores do.
    """
    k, h, w, n = y_khwn.shape
    tile_rows = np.asarray(tile_rows)
    tile_cols = np.asarray(tile_cols)
    for t in range(tile_rows.size):
        r0 = tile_rows[t] * m
        c0 = tile_cols[t] * m
        rmax = min(m, h - r0)
        cmax = min(m, w - c0)
        if rmax <= 0 or cmax <= 0:
            continue
        y_khwn[:, r0 : r0 + rmax, c0 : c0 + cmax, :] = tiles[
            ..., t, :rmax, :cmax, :
        ]


def tile_index_grid(tiles_h: int, tiles_w: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Enumerate the N·⌈H/m⌉·⌈W/m⌉ global tiles in the kernel's order.

    The kernel's "input tiles" dimension (Fig. 1 x-axis, ``N * #tiles``)
    is batch-fastest: consecutive global tile indices differ in batch
    first (that is what makes a warp's 32 loads coalesce in CHWN).
    Returns (tile_row, tile_col, batch) arrays of length tiles_h·tiles_w·n.
    """
    hh, ww, nn = np.meshgrid(
        np.arange(tiles_h), np.arange(tiles_w), np.arange(n), indexing="ij"
    )
    return hh.ravel(), ww.ravel(), nn.ravel()


def problem_for_tensors(
    x_chwn: np.ndarray, k: int, prob: ConvProblem | None
) -> ConvProblem:
    """*prob* checked against a CHWN input and K filters; without one,
    the pad-1 problem of those tensors.

    ``pad`` and ``name`` stay free (DWM parts run with their own pad);
    an n, c, h, w or k that disagrees with the tensors raises
    :class:`LayoutError` rather than shaping the output wrongly.
    """
    c, h, w, n = x_chwn.shape
    if prob is None:
        return ConvProblem(n=n, c=c, h=h, w=w, k=k)
    actual = dict(n=n, c=c, h=h, w=w, k=k)
    wrong = {f: getattr(prob, f) for f in actual if getattr(prob, f) != actual[f]}
    if wrong:
        raise LayoutError(f"problem {wrong} disagrees with the tensors {actual}")
    return prob
