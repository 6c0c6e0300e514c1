"""The paper's fused Winograd convolution pipeline, tile-parameterized.

This is a faithful algorithm-level model of the SASS kernels (§3-§4).
It keeps the decomposition of Algorithm 1:

* a separate **filter-transform kernel** (FTF) producing the CR'S'K
  workspace (§4.1) — the only global workspace the implementation needs;
* a **main loop** over channels in steps of ``bc`` that gathers and
  transforms input tiles (ITF, implicit zero padding) and accumulates
  the alpha²-batched GEMM (EWMM, Eq. 9-10) one ``bc`` chunk at a time;
* an **output transform** (OTF) that turns the accumulators into m×m
  output tiles and scatters them (with crop) into the KHWN output.

The stages are the module functions :func:`ftf`, :func:`gather_itf` and
:func:`otf_store` (over :func:`~repro.winograd.tiling.tile_windows`'
windows and masks): the host's one Winograd tile path, which the §8.4
NCHW port (``fused_nchw.py``) and the non-fused executor
(``nonfused.py``) run too.

The kernel runs the main loop in a grid of thread blocks, each owning
``bk × bn`` output tiles (Fig. 1).  :meth:`FusedWinogradConv.run`
computes the same sums in the same per-element order without replaying
that grid: it transforms each channel chunk once for a slab of whole
tile rows and multiplies it with every filter in one batched GEMM, so
of the tile's blocking it reads only ``bc``.  The blocking's closed
forms (intensity, shared memory, FMAs per thread) are
``repro.perfmodel.roofline.Blocking``'s.

The tile is an explicit :class:`~repro.winograd.tilespec.TileSpec`
parameter: ``TILE_F22`` reproduces the paper's F(2×2,3×3) kernel
(alpha² = 16 batched GEMMs), ``TILE_F44`` the §8.1 F(4×4,3×3) variant
(alpha² = 36) at the best feasible blocking from
``perfmodel.f44_study``.  Because every global address and mask is
computed the way the kernels compute them, this module doubles as the
functional specification for ``repro.kernels.winograd_fused``.
"""

from __future__ import annotations

import numpy as np

from ..common.errors import LayoutError
from ..common.problem import ConvProblem
from .tilespec import TileSpec, get_tile
from .tiling import gather_tiles, problem_for_tensors, tile_index_grid, tile_windows
from .transforms import WinogradTransform


#: Byte budget of one slab in :meth:`FusedWinogradConv.run`: its float32
#: accumulator plus one transformed channel chunk.
_SLAB_BYTES = 32 << 20

#: Byte budget of one channel group's temporaries in
#: :meth:`FusedWinogradConv.transform_filters`.
_FTF_CHUNK_BYTES = 4 << 20


def ftf(t: WinogradTransform, f_crsk: np.ndarray) -> np.ndarray:
    """The FTF (§4.1): GFGᵀ for every (c, k), (C, r, r, K) → (C, alpha, alpha, K).

    Fills a C-contiguous output one group of channels at a time.  A
    group's einsum temporaries take at most ``3·alpha²·K`` elements
    per channel, and a group holds as many channels as fit
    ``_FTF_CHUNK_BYTES`` (4 MiB), or one; the peak allocation is the
    output plus one group.
    """
    if f_crsk.ndim != 4 or f_crsk.shape[1:3] != (t.r, t.r):
        raise LayoutError(f"expected CRSK {t.r}×{t.r} filters, got {f_crsk.shape}")
    c, k = f_crsk.shape[0], f_crsk.shape[3]
    out = np.empty((c, t.alpha, t.alpha, k), dtype=np.result_type(t.g, f_crsk))
    group = max(1, _FTF_CHUNK_BYTES // (3 * t.alpha**2 * max(1, k) * out.itemsize))
    for c0 in range(0, c, group):
        out[c0 : c0 + group] = np.einsum(
            "ij,cjsk,ls->cilk", t.g, f_crsk[c0 : c0 + group], t.g, optimize=True
        )
    return out


def gather_itf(
    t: WinogradTransform,
    x_chwn: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    batch: np.ndarray,
    mask: np.ndarray,
) -> np.ndarray:
    """Gather and ITF: the (alpha², C, T) transformed tiles of *x_chwn*.

    *rows*, *cols*, *batch* and *mask* locate the T tiles (see
    :func:`~repro.winograd.tiling.tile_windows`).  A separate frame, so
    the gather and ITF temporaries are freed before the caller's GEMM.
    """
    tiles_t = t.transform_input(gather_tiles(x_chwn, rows, cols, batch, mask))
    # the (alpha², bc, bn) shared buffer of Table 4, bn → T
    return tiles_t.transpose(2, 3, 0, 1).reshape(t.alpha**2, x_chwn.shape[0], batch.size)


def otf_store(t: WinogradTransform, o_hat: np.ndarray, y_khwn: np.ndarray, r0: int) -> None:
    """OTF and store: tile rows ``r0 ..`` of *y_khwn* from their (alpha², K, T) sums.

    The T tiles are whole tile rows in :func:`tile_index_grid` order
    (row, col, batch).  Tile (row, col, batch) lands in
    ``y[:, row·m+i, col·m+j, batch]``, cropped at the output edge like
    the kernel's predicated stores.  *y_khwn* may be any strided view.
    """
    alpha, m = t.alpha, t.m
    k, out_h, out_w, n = y_khwn.shape
    tw = -(-out_w // m)
    rows = o_hat.shape[2] // (tw * n)
    o = t.transform_output(o_hat.reshape(alpha, alpha, k, -1).transpose(2, 3, 0, 1))
    o = o.reshape(k, rows, tw, n, m, m).transpose(0, 1, 4, 2, 5, 3)
    o = o.reshape(k, rows * m, tw * m, n)
    y_khwn[:, r0 * m : (r0 + rows) * m] = o[:, : out_h - r0 * m, :out_w]


class FusedWinogradConv:
    """Fused F(m×m, r×r) Winograd convolution (the paper's kernel, modelled).

    Usage::

        conv = FusedWinogradConv()                     # F(2×2,3×3)
        conv = FusedWinogradConv(tile=TILE_F44)        # F(4×4,3×3)
        f_t = conv.transform_filters(f_crsk)           # separate FTF kernel
        y_khwn = conv.run(x_chwn, f_t, prob)           # fused main kernel
        y_khwn = conv(x_chwn, f_crsk)                  # both steps

    Inputs are CHWN activations and CRSK filters; output is KHWN
    (Table 4's global-memory layouts).  The main loop steps over
    channels by the tile's ``bc``.
    """

    def __init__(self, tile: TileSpec | str | None = None):
        self.tile = get_tile(tile)
        self.transform = self.tile.transform(dtype=np.float32)

    # ------------------------------------------------------------------
    # FTF kernel (§4.1)
    # ------------------------------------------------------------------
    def transform_filters(self, f_crsk: np.ndarray) -> np.ndarray:
        """:func:`ftf` with this tile's transform: (C, r, r, K) → (C, alpha, alpha, K)."""
        return ftf(self.transform, f_crsk)

    # ------------------------------------------------------------------
    # Fused main kernel
    # ------------------------------------------------------------------
    def run(
        self,
        x_chwn: np.ndarray,
        f_transformed: np.ndarray,
        prob: ConvProblem | None = None,
    ) -> np.ndarray:
        """Run the fused kernel given a pre-transformed filter workspace;
        returns the KHWN output.

        The output is computed one slab of whole tile rows at a time.
        For each ``bc``-channel chunk, the slab's tiles are gathered and
        transformed once and multiplied with all K filters in one
        alpha²-batched GEMM into the slab's product buffer (the
        operands' result dtype), which is added to the slab's float32
        accumulator in channel order: the kernel's per-element summation
        order.  One OTF per slab then writes the slab's output rows.

        A slab of ``tw``-tile-wide rows holds
        ``s = max(1, ⌊_SLAB_BYTES / (4·alpha²·(K + bc)·tw·N)⌋)`` of them,
        so for its ``P = s·tw·N`` tiles the accumulator
        ``A = 4·alpha²·K·P`` and one transformed channel chunk
        ``G = 4·alpha²·bc·P`` together take at most ``_SLAB_BYTES``
        (32 MiB), or one tile row when a single row exceeds it.  The
        peak allocation is the ``4·K·H'·W'·N``-byte output plus a
        working set of at most ``3·A + 6·G + 64·alpha·P`` bytes and 1 MiB.

        *prob* supplies ``pad``; its n, c, h, w and k must match the
        tensors, or :class:`LayoutError` is raised.
        """
        prob = self._checked_problem(x_chwn, f_transformed, prob)
        y = np.zeros((prob.k, prob.out_h, prob.out_w, prob.n), dtype=np.float32)
        self._run_into(x_chwn, f_transformed, prob, y)
        return y

    def _checked_problem(
        self, x_chwn: np.ndarray, f_transformed: np.ndarray, prob: ConvProblem | None
    ) -> ConvProblem:
        """*prob* checked against the tensors (see :func:`problem_for_tensors`)."""
        if x_chwn.ndim != 4:
            raise LayoutError(f"expected CHWN input, got {x_chwn.shape}")
        alpha = self.transform.alpha
        if f_transformed.ndim != 4 or f_transformed.shape[:3] != (
            x_chwn.shape[0], alpha, alpha
        ):
            raise LayoutError(
                f"expected (C,{alpha},{alpha},K) transformed filters, "
                f"got {f_transformed.shape}"
            )
        return problem_for_tensors(x_chwn, f_transformed.shape[3], prob)

    def _run_into(
        self, x_chwn: np.ndarray, f_transformed: np.ndarray, prob: ConvProblem, y: np.ndarray
    ) -> None:
        """The slab loop of :meth:`run`, storing into the KHWN-ordered *y*."""
        t = self.transform
        th, tw = prob.tiles_h(t.m), prob.tiles_w(t.m)
        row_bytes = 4 * t.alpha**2 * (prob.k + self.tile.bc) * tw * prob.n
        slab_rows = max(1, _SLAB_BYTES // max(1, row_bytes))
        for r0 in range(0, th, slab_rows):
            self._run_slab(x_chwn, f_transformed, prob, r0, min(slab_rows, th - r0), y)

    def _run_slab(
        self,
        x_chwn: np.ndarray,
        f_transformed: np.ndarray,
        prob: ConvProblem,
        r0: int,
        rows: int,
        y: np.ndarray,
    ) -> None:
        """Main loop, OTF and store for tile rows ``r0 .. r0+rows`` of *y*.

        A separate frame, so the slab's arrays are freed before the next
        slab allocates: :meth:`run`'s working-set bound counts one slab.
        """
        t = self.transform
        elements = t.alpha**2
        c, h, w, n = x_chwn.shape
        k = f_transformed.shape[3]
        tile_r, tile_c, batch = tile_index_grid(rows, prob.tiles_w(t.m), n)
        # the precomputed predicate masks (§3.5)
        rows_cl, cols_cl, mask = tile_windows(tile_r + r0, tile_c, h, w, t.alpha, t.m, prob.pad)

        # (alpha², P, K): each chunk's product is added contiguously, and
        # the slab's sum is transposed once for the OTF
        acc = np.zeros((elements, batch.size, k), dtype=np.float32)
        prod = None  # one GEMM result buffer per slab, in the operands' dtype
        for c0 in range(0, c, self.tile.bc):
            c_hi = min(c0 + self.tile.bc, c)
            i_smem = gather_itf(t, x_chwn[c0:c_hi], rows_cl, cols_cl, batch, mask)
            f_smem = f_transformed[c0:c_hi].transpose(1, 2, 0, 3).reshape(
                elements, c_hi - c0, k
            )  # (alpha², bc, K)
            if prod is None:
                prod = np.empty(acc.shape, dtype=np.result_type(f_smem, i_smem))
            # --- EWMM as alpha²-batched GEMM (Eq. 9).  An einsum, so every
            # product is the one einsum computes on this NumPy (a batched
            # matmul from 2.4, a sum of products before); (alpha², P, K) is
            # the order that matmul writes into `prod` without a copy.  A
            # float64 product is rounded to float32 only as it is added ---
            np.einsum("pck,pcn->pnk", f_smem, i_smem, optimize=True, out=prod)
            acc += prod
        del prod  # freed before the transposed copy, so the peak stays the loop's
        acc = np.ascontiguousarray(acc.transpose(0, 2, 1))  # (alpha², K, P)
        otf_store(t, acc, y, r0)

    def __call__(self, x_chwn: np.ndarray, f_crsk: np.ndarray) -> np.ndarray:
        """FTF + fused kernel; returns the KHWN output."""
        return self.run(x_chwn, self.transform_filters(f_crsk))
