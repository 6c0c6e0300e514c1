"""Non-fused Winograd convolution (cuDNN's WINOGRAD_NONFUSED, §8/§9).

The non-fused strategy stores the *transformed* input and output in
global-memory workspace and runs the element-wise-multiply step as a
library batched GEMM.  It is easier to implement and can use the
F(4×4, 3×3) variant (4× multiplication reduction), but pays 2.25× input
inflation in DRAM traffic — the trade the paper's §8.1 break-even
analysis quantifies.

This implementation reports its workspace consumption so Figure 14 and
the break-even bench can be generated from real allocation numbers.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from ..common.errors import ConvConfigError, LayoutError
from ..common.problem import ConvProblem
from .tiling import problem_for_tensors, tile_index_grid
from .transforms import WinogradTransform, get_transform


@dataclasses.dataclass
class NonFusedRunStats:
    """Workspace and traffic accounting for one non-fused invocation."""

    workspace_bytes: int = 0
    transformed_input_bytes: int = 0
    transformed_filter_bytes: int = 0
    transformed_output_bytes: int = 0
    gemm_flops: int = 0


class NonFusedWinogradConv:
    """Scatter-transform → batched GEMM → gather-transform pipeline.

    Defaults to F(4×4, 3×3) like cuDNN's non-fused algorithm; any tile
    size supported by :mod:`repro.winograd.transforms` works.
    """

    def __init__(self, m: int = 4, transform: WinogradTransform | None = None):
        self.transform = transform or get_transform(m, 3, dtype=np.float32)
        self.m = self.transform.m

    def run(
        self, x_chwn: np.ndarray, f_crsk: np.ndarray, prob: ConvProblem | None = None
    ) -> tuple[np.ndarray, NonFusedRunStats]:
        """Run the pipeline on CHWN input and CRSK filters; output is KHWN.

        *prob* supplies ``pad``; its n, c, h, w and k must match the
        tensors, or :class:`LayoutError` is raised.
        """
        if x_chwn.ndim != 4:
            raise LayoutError(f"expected CHWN input, got {x_chwn.shape}")
        c, h, w, n = x_chwn.shape
        if f_crsk.ndim != 4 or f_crsk.shape[0] != c:
            raise LayoutError(f"expected CRSK filters with C={c}, got {f_crsk.shape}")
        if f_crsk.shape[1:3] != (3, 3):
            raise ConvConfigError("non-fused pipeline implements 3×3 filters")
        k = f_crsk.shape[3]
        prob = problem_for_tensors(x_chwn, k, prob)
        t = self.transform
        alpha, m, pad = t.alpha, t.m, prob.pad

        th, tw = prob.tiles_h(m), prob.tiles_w(m)
        tile_r, tile_c, tile_n = tile_index_grid(th, tw, n)
        total = tile_r.size
        stats = NonFusedRunStats()

        # ---- scatter step 1: transformed filters, (alpha², C, K) ----------
        f = np.transpose(f_crsk, (0, 3, 1, 2))  # (C, K, 3, 3)
        u = t.transform_filter(f)  # (C, K, a, a)
        u = u.transpose(2, 3, 0, 1).reshape(alpha * alpha, c, k)
        stats.transformed_filter_bytes = u.nbytes

        # ---- scatter step 2: transformed input, (alpha², C, total) --------
        arange_a = np.arange(alpha)
        rows = tile_r[:, None] * m - pad + arange_a[None, :]
        cols = tile_c[:, None] * m - pad + arange_a[None, :]
        mask = ((rows >= 0) & (rows < h))[:, :, None] & ((cols >= 0) & (cols < w))[
            :, None, :
        ]
        rows_cl = np.clip(rows, 0, h - 1)
        cols_cl = np.clip(cols, 0, w - 1)
        tiles = x_chwn[
            :, rows_cl[:, :, None], cols_cl[:, None, :], tile_n[:, None, None]
        ]  # (C, total, a, a)
        tiles = np.where(mask[None], tiles, np.float32(0))
        v = t.transform_input(tiles)  # (C, total, a, a)
        v = v.transpose(2, 3, 0, 1).reshape(alpha * alpha, c, total)
        stats.transformed_input_bytes = v.nbytes

        # ---- batched GEMM over the alpha² points ---------------------------
        # (a², K, total) = (a², K, C) @ (a², C, total)
        o_hat = np.einsum("pck,pcn->pkn", u, v, optimize=True)
        stats.gemm_flops = 2 * alpha * alpha * k * c * total
        stats.transformed_output_bytes = o_hat.nbytes

        # ---- gather: output transform + assemble ---------------------------
        o = t.transform_output(
            o_hat.reshape(alpha, alpha, k, total).transpose(2, 3, 0, 1)
        )  # (K, total, m, m)
        y = np.zeros((k, prob.out_h, prob.out_w, n), dtype=np.float32)
        # Vectorized scatter: tiles are disjoint in (row, col, batch).
        out_r = tile_r[:, None] * m + np.arange(m)[None, :]  # (total, m)
        out_c = tile_c[:, None] * m + np.arange(m)[None, :]
        ok = (out_r[:, :, None] < prob.out_h) & (out_c[:, None, :] < prob.out_w)
        rr = np.clip(out_r, 0, prob.out_h - 1)
        cc = np.clip(out_c, 0, prob.out_w - 1)
        flat_t, flat_r, flat_c = np.nonzero(ok)
        y[:, rr[flat_t, flat_r], cc[flat_t, flat_c], tile_n[flat_t]] = o[
            :, flat_t, flat_r, flat_c
        ]

        stats.workspace_bytes = (
            stats.transformed_input_bytes
            + stats.transformed_filter_bytes
            + stats.transformed_output_bytes
        )
        return y, stats

    def __call__(self, x_chwn: np.ndarray, f_crsk: np.ndarray) -> np.ndarray:
        y, _ = self.run(x_chwn, f_crsk)
        return y

    def workspace_bytes(self, prob: ConvProblem) -> int:
        """Workspace this pipeline would allocate for *prob* (no data)."""
        alpha = self.transform.alpha
        total = prob.total_tiles(self.m)
        a2 = alpha * alpha
        return 4 * a2 * (
            prob.c * total + prob.c * prob.k + prob.k * total
        )
