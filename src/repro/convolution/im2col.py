"""GEMM-based convolution: explicit im2col and implicit-GEMM variants.

cuDNN's three GEMM algorithms differ in how the (C·R·S, N·H'·W') matrix
comes to exist:

* ``GEMM``            — explicit im2col: materialize the matrix in a
                        global workspace, then one big GEMM;
* ``IMPLICIT_GEMM``   — form matrix sub-tiles on the fly inside the
                        kernel, zero workspace, recomputing filter
                        offsets per tile;
* ``IMPLICIT_PRECOMP_GEMM`` — like implicit GEMM but with precomputed
                        offset indices (a tiny workspace), the fastest of
                        the three and the baseline the paper compares
                        Winograd against (Table 2).

Functionally all three compute Eq. 4; here they share the result path
but differ in the workspace accounting they report, so Figure 14's
workspace columns come from real allocation formulas.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..common.errors import ConvConfigError, LayoutError
from ..common.problem import ConvProblem


@dataclasses.dataclass
class GemmRunStats:
    workspace_bytes: int = 0
    gemm_m: int = 0
    gemm_n: int = 0
    gemm_k: int = 0

    @property
    def gemm_flops(self) -> int:
        return 2 * self.gemm_m * self.gemm_n * self.gemm_k


def im2col(x: np.ndarray, r: int, s: int, pad: int = 1) -> np.ndarray:
    """Lower NCHW activations to the (N·H'·W', C·R·S) patch matrix."""
    if x.ndim != 4:
        raise LayoutError(f"expected NCHW input, got {x.shape}")
    n, c, h, w = x.shape
    out_h = h + 2 * pad - r + 1
    out_w = w + 2 * pad - s + 1
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (r, s), axis=(2, 3))
    # (N, C, H', W', r, s) → (N, H', W', C, r, s) → (N·H'·W', C·r·s)
    cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(n * out_h * out_w, c * r * s)
    return np.ascontiguousarray(cols)


def gemm_conv2d(
    x: np.ndarray, f: np.ndarray, pad: int = 1, prob: ConvProblem | None = None
) -> tuple[np.ndarray, GemmRunStats]:
    """Explicit im2col + GEMM (cuDNN ``GEMM`` algorithm)."""
    if f.ndim != 4:
        raise LayoutError(f"expected KCRS filters, got {f.shape}")
    n, c, h, w = x.shape
    k, cf, r, s = f.shape
    if cf != c:
        raise ConvConfigError(f"channel mismatch C={c} vs {cf}")
    out_h = h + 2 * pad - r + 1
    out_w = w + 2 * pad - s + 1
    cols = im2col(x, r, s, pad)  # (N·H'·W', C·r·s)
    fmat = f.reshape(k, c * r * s)
    y = cols @ fmat.T  # (N·H'·W', K)
    y = y.reshape(n, out_h, out_w, k).transpose(0, 3, 1, 2)
    stats = GemmRunStats(
        # 4 bytes an element, as the GPU workspace model counts them,
        # whatever dtype the host runs in.
        workspace_bytes=4 * cols.size,
        gemm_m=n * out_h * out_w,
        gemm_n=k,
        gemm_k=c * r * s,
    )
    return np.ascontiguousarray(y), stats


def implicit_gemm_conv2d(
    x: np.ndarray,
    f: np.ndarray,
    pad: int = 1,
    precomputed_offsets: bool = True,
    tile_m: int = 128,
) -> tuple[np.ndarray, GemmRunStats]:
    """Implicit GEMM: patch tiles are formed on the fly, never stored.

    ``precomputed_offsets=True`` models IMPLICIT_PRECOMP_GEMM (offsets
    built once into a small index workspace); ``False`` models
    IMPLICIT_GEMM (zero workspace, offsets recomputed per tile).
    """
    n, c, h, w = x.shape
    k, cf, r, s = f.shape
    if cf != c:
        raise ConvConfigError(f"channel mismatch C={c} vs {cf}")
    out_h = h + 2 * pad - r + 1
    out_w = w + 2 * pad - s + 1
    rows_total = n * out_h * out_w
    fmat = f.reshape(k, c * r * s).T  # (C·r·s, K)

    # Precompute (or, conceptually, recompute per tile) gather indices of
    # one output pixel's patch relative to the padded image.
    offs_h = np.repeat(np.arange(r), s)
    offs_w = np.tile(np.arange(s), r)
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))

    y = np.empty((rows_total, k), dtype=np.result_type(x, f))
    row_ids = np.arange(rows_total)
    pix = row_ids % (out_h * out_w)
    img = row_ids // (out_h * out_w)
    ph = pix // out_w
    pw = pix % out_w
    for m0 in range(0, rows_total, tile_m):
        sel = slice(m0, min(m0 + tile_m, rows_total))
        # Gather the (tile, C·r·s) patch tile directly from gmem.
        hh = ph[sel][:, None] + offs_h[None, :]  # (tile, r·s)
        ww = pw[sel][:, None] + offs_w[None, :]
        patch = xp[img[sel][:, None, None], np.arange(c)[None, :, None], hh[:, None, :], ww[:, None, :]]
        y[sel] = patch.reshape(sel.stop - sel.start, c * r * s) @ fmat

    y = y.reshape(n, out_h, out_w, k).transpose(0, 3, 1, 2)
    workspace = 4 * c * r * s if precomputed_offsets else 0
    stats = GemmRunStats(
        workspace_bytes=workspace,
        gemm_m=rows_total,
        gemm_n=k,
        gemm_k=c * r * s,
    )
    return np.ascontiguousarray(y), stats
