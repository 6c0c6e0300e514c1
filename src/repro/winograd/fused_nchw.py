"""NCHW-layout port of the fused pipeline (paper §8.4).

"The implementation in this work can be ported to NCHW layout with
little effort.  For example, each thread block can load and transform a
16×8 input tile (32 of 2×2 tiles) to make the global load fully
coalesced.  The offsets of global and shared memory accesses need to be
recomputed, while all other optimizations can be adopted."

:meth:`FusedWinogradConvNCHW.run_nchw` is that port on the host: it runs
:class:`~repro.winograd.fused.FusedWinogradConv`'s tile path unchanged
(windows and masks, gather + ITF, the alpha²-batched GEMM, OTF + store)
on CHWN-ordered *views* of the NCHW input and the NKHW output, so only
the offsets differ — NumPy recomputes them from the strides — and the
result is byte-identical to the CHWN pipeline's.

The coalescing half of the claim is about the kernel's tile-to-block
mapping, not the host's tile order: instead of a block's 32 tiles being
32 consecutive *batch* elements of one (h̃, w̃) position (CHWN: batch is
the fast axis), they form an 8×4 patch of tile positions inside one
image — a 16×8 pixel window whose rows are contiguous in NCHW, so a
warp's loads still coalesce.  :func:`warp_load_sectors` quantifies it:
it counts the 32-byte sectors one warp's 32 tile-loads touch per tile
element under each layout/mapping combination — 4 for CHWN with the
batch mapping, 16 (two per patch row) for NCHW with the patch mapping,
and 32, one per lane, for either mismatched pairing.
"""

from __future__ import annotations

import numpy as np

from ..common.errors import LayoutError
from ..common.problem import ConvProblem
from .fused import FusedWinogradConv

TILE_PATCH_W = 4  # tiles per block along width  → 8-pixel window
TILE_PATCH_H = 8  # tiles per block along height → 16-pixel window


class FusedWinogradConvNCHW(FusedWinogradConv):
    """The fused pipeline reading NCHW activations directly."""

    def run_nchw(self, x_nchw: np.ndarray, f_transformed: np.ndarray,
                 prob: ConvProblem | None = None) -> np.ndarray:
        """Like :meth:`run`, but the activations stay in NCHW.

        The gather indexes the NCHW tensor in place and the stores write
        an NKHW output (the layout NCHW frameworks expect back), which is
        returned.
        """
        if x_nchw.ndim != 4:
            raise LayoutError(f"expected NCHW input, got {x_nchw.shape}")
        x_chwn = x_nchw.transpose(1, 2, 3, 0)
        prob = self._checked_problem(x_chwn, f_transformed, prob)
        y = np.zeros((prob.n, prob.k, prob.out_h, prob.out_w), dtype=np.float32)
        self._run_into(x_chwn, f_transformed, prob, y.transpose(1, 2, 3, 0))
        return y


def warp_load_sectors(
    prob: ConvProblem, layout: str, mapping: str, element: tuple[int, int] = (1, 1)
) -> int:
    """32-byte sectors one warp touches loading tile element *element*.

    ``layout`` ∈ {"CHWN", "NCHW"}; ``mapping`` ∈ {"batch", "patch"} — the
    CHWN kernel's batch-fastest tile assignment vs. §8.4's 8×4 spatial
    patch.  The matched pairs coalesce (CHWN+batch to 4 sectors,
    NCHW+patch to two per patch row); the mismatched pairs scatter.
    """
    x, y = element
    n, h, w = prob.n, prob.h, prob.w
    if mapping == "batch":
        tile_r = np.zeros(32, dtype=np.int64) + 2  # one (h̃, w̃), 32 batches
        tile_c = np.zeros(32, dtype=np.int64) + 2
        batch = np.arange(32, dtype=np.int64)
    elif mapping == "patch":
        tile_r = 2 + np.repeat(np.arange(TILE_PATCH_H), TILE_PATCH_W)
        tile_c = 2 + np.tile(np.arange(TILE_PATCH_W), TILE_PATCH_H)
        batch = np.zeros(32, dtype=np.int64)
    else:
        raise LayoutError(f"unknown mapping {mapping!r}")
    rows = tile_r * 2 - prob.pad + x
    cols = tile_c * 2 - prob.pad + y
    if layout == "CHWN":
        addrs = 4 * (((0 * h + rows) * w + cols) * n + batch)
    elif layout == "NCHW":
        addrs = 4 * (((batch * 1 + 0) * h + rows) * w + cols)
    else:
        raise LayoutError(f"unknown layout {layout!r}")
    return int(np.unique(addrs // 32).size)
