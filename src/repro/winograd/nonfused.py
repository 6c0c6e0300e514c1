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

import numpy as np

from ..common.errors import ConvConfigError, LayoutError
from ..common.problem import ConvProblem
from .fused import ftf, gather_itf, otf_store
from .tiling import problem_for_tensors, tile_index_grid, tile_windows
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
        elements = t.alpha * t.alpha
        tile_r, tile_c, batch = tile_index_grid(prob.tiles_h(t.m), prob.tiles_w(t.m), n)
        rows, cols, mask = tile_windows(tile_r, tile_c, h, w, t.alpha, t.m, prob.pad)

        # ---- scatter: transformed filters (alpha², C, K) and input
        # (alpha², C, tiles), the fused executor's FTF and gather + ITF ----
        u = ftf(t, f_crsk).transpose(1, 2, 0, 3).reshape(elements, c, k)
        v = gather_itf(t, x_chwn, rows, cols, batch, mask)
        # ---- one batched GEMM over all C: (a², K, tiles) = (a², K, C) @ (a², C, tiles)
        o_hat = np.einsum("pck,pcn->pkn", u, v, optimize=True)
        # ---- gather: the fused executor's OTF + store, all tile rows at once
        y = np.zeros((k, prob.out_h, prob.out_w, n), dtype=np.float32)
        otf_store(t, o_hat, y, 0)
        # Sized at 4 bytes an element, as workspace_bytes() and the GPU
        # workspace model count them, whatever dtype the host runs in.
        return y, NonFusedRunStats(
            workspace_bytes=4 * (v.size + u.size + o_hat.size),
            transformed_input_bytes=4 * v.size,
            transformed_filter_bytes=4 * u.size,
            transformed_output_bytes=4 * o_hat.size,
            gemm_flops=2 * elements * k * c * batch.size,
        )

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
