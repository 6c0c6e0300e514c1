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

This module provides those windows and masks and the masked gather
that every NumPy Winograd executor runs (the fused executor, its §8.4
NCHW port and the non-fused executor; see ``fused.py``).  The gather
indexes a CHWN-ordered array with clamped indices and masks rather than
``np.pad``, so it computes the *same addresses* the SASS kernel
generators emit; an NCHW tensor is gathered through its CHWN-ordered
view.  The reference oracle (``reference.py``) pads explicitly and uses
none of these helpers.
"""

from __future__ import annotations

import numpy as np

from ..common.errors import LayoutError
from ..common.problem import ConvProblem

#: Predicate bits per mask register word (a 32-bit GPR filled by P2R).
MASK_WORD_BITS = 32


def tile_windows(
    tile_r, tile_c, h: int, w: int, alpha: int, m: int, pad: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The alpha×alpha input window of each tile and its in-bounds mask.

    Tile t covers input rows ``tile_r[t]·m − pad + [0, alpha)`` and the
    matching columns.  Returns the (T, alpha) row and column indices
    clamped into the input and the (T, alpha, alpha) bool mask: ``True``
    where the element is inside the real input and must be loaded,
    ``False`` where it is implicit zero.
    """
    span = np.arange(alpha)
    rows = np.asarray(tile_r)[:, None] * m - pad + span
    cols = np.asarray(tile_c)[:, None] * m - pad + span
    mask = ((rows >= 0) & (rows < h))[:, :, None] & ((cols >= 0) & (cols < w))[:, None, :]
    return np.clip(rows, 0, h - 1), np.clip(cols, 0, w - 1), mask


def zero_pad_mask(
    h_tile: int, w_tile: int, h: int, w: int, alpha: int, m: int, pad: int
) -> np.ndarray:
    """The (alpha, alpha) :func:`tile_windows` mask of one tile.

    For F(2×2, 3×3) this is the 16-bool mask of §3.5 — more than the 7
    hardware predicate registers, hence the P2R/R2P packing trick;
    F(4×4, 3×3) has 36 bools spanning two mask words.
    """
    return tile_windows([h_tile], [w_tile], h, w, alpha, m, pad)[2][0]


def gather_tiles(
    x_chwn: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    batch: np.ndarray,
    mask: np.ndarray,
) -> np.ndarray:
    """The (C, T, alpha, alpha) input tiles, zero outside the input.

    *rows*, *cols* and *mask* are :func:`tile_windows`' results and
    *batch* the (T,) image of each tile.  *x_chwn* is indexed (C, H, W,
    N); any strides will do, so an NCHW tensor is gathered through
    ``x.transpose(1, 2, 3, 0)`` without a copy.
    """
    tiles = x_chwn[:, rows[:, :, None], cols[:, None, :], batch[:, None, None]]
    return np.where(mask[None], tiles, np.float32(0))


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
