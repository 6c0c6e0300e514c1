"""Decomposable Winograd Method (DWM): large/strided filters via F(m,3).

The paper's kernels (and the fast Winograd algorithms generally) want
small stride-1 filters — F(2×2,3×3)/F(4×4,3×3) cover exactly the 3×3
stride-1 layers of Table 1.  DWM extends that coverage by *decomposing*
a problem the tiles cannot run into a sum of problems they can:

* **Large filters** (R > 3, e.g. 5×5): the filter taps are split into
  row/column chunks of at most 3.  A 5×5 becomes four sub-filters —
  3×3, 3×2, 2×3 and 2×2 — each zero-padded to 3×3 and applied to the
  correspondingly shifted input window.
* **Stride 2**: polyphase decomposition.  Taps with row ≡ a, col ≡ b
  (mod 2) form one stride-1 sub-filter applied to the (a, b)-phase
  subsampling of the padded input; a 3×3 stride-2 conv becomes four
  stride-1 parts (2×2, 2×1, 1×2, 1×1).

Both rules compose (a 7×7 stride-2 filter first splits into ≤4-wide
phases, then into ≤3 chunks).  Every part is a VALID (pad-0) 3×3
convolution on an explicit slice of the padded input, so each one runs
through :class:`~repro.winograd.fused.FusedWinogradConv` — the same
fused pipeline the dispatcher uses for native 3×3 layers — and the
partial outputs sum exactly to the direct-convolution result.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from ..common.errors import ConvConfigError, LayoutError
from ..common.layouts import kcrs_to_crsk, khwn_to_nkhw, nchw_to_chwn
from ..common.problem import ConvProblem
from ..winograd.fused import FusedWinogradConv
from ..winograd.tilespec import TileSpec, get_tile

#: Largest sub-filter edge the fused F(m×m, 3×3) kernels accept.
FILTER_CHUNK = 3


@dataclasses.dataclass(frozen=True)
class DWMPart:
    """One stride-1 ≤3×3 sub-problem of a decomposed convolution.

    ``phase`` is the stride-polyphase (row, col) residue; ``row0/col0``
    index the chunk origin *within the phase's subsampled filter*;
    ``rows/cols`` are the true chunk extent before zero-padding to 3×3.
    """

    phase: tuple[int, int]
    row0: int
    col0: int
    rows: int
    cols: int

    def label(self) -> str:
        a, b = self.phase
        return f"ph{a}{b}+{self.row0},{self.col0}:{self.rows}x{self.cols}"


@dataclasses.dataclass(frozen=True)
class DWMPlan:
    """The full decomposition of an (R×S, pad, stride) problem."""

    r: int
    s: int
    pad: int
    stride: int
    parts: tuple[DWMPart, ...]

    @property
    def num_parts(self) -> int:
        return len(self.parts)

    @property
    def is_trivial(self) -> bool:
        """True when the problem was already a native 3×3 stride-1 conv."""
        return self.num_parts == 1 and self.parts[0].rows == self.r

    def label(self) -> str:
        return (
            f"DWM({self.r}x{self.s},pad={self.pad},stride={self.stride})"
            f"->{self.num_parts} part(s)"
        )


def dwm_plan(r: int, s: int, pad: int, stride: int = 1) -> DWMPlan:
    """Decompose an R×S / stride problem into stride-1 ≤3×3 parts."""
    if r < 1 or s < 1:
        raise ConvConfigError(f"filter must be at least 1x1, got {r}x{s}")
    if stride not in (1, 2):
        raise ConvConfigError(
            f"DWM supports stride 1 and 2, got stride={stride}"
        )
    parts: list[DWMPart] = []
    for a in range(stride):
        phase_rows = math.ceil((r - a) / stride)
        if phase_rows <= 0:
            continue
        for b in range(stride):
            phase_cols = math.ceil((s - b) / stride)
            if phase_cols <= 0:
                continue
            for row0 in range(0, phase_rows, FILTER_CHUNK):
                for col0 in range(0, phase_cols, FILTER_CHUNK):
                    parts.append(
                        DWMPart(
                            phase=(a, b),
                            row0=row0,
                            col0=col0,
                            rows=min(FILTER_CHUNK, phase_rows - row0),
                            cols=min(FILTER_CHUNK, phase_cols - col0),
                        )
                    )
    return DWMPlan(r=r, s=s, pad=pad, stride=stride, parts=tuple(parts))


def _part_subfilter(f: np.ndarray, plan: DWMPlan, part: DWMPart) -> np.ndarray:
    """The part's KCRS sub-filter, zero-padded to 3×3 (top-left)."""
    k, c = f.shape[:2]
    a, b = part.phase
    sigma = plan.stride
    g = np.zeros((k, c, FILTER_CHUNK, FILTER_CHUNK), dtype=f.dtype)
    row_taps = a + sigma * (part.row0 + np.arange(part.rows))
    col_taps = b + sigma * (part.col0 + np.arange(part.cols))
    g[:, :, : part.rows, : part.cols] = f[:, :, row_taps[:, None], col_taps[None, :]]
    return g


def _part_input(
    xp: np.ndarray, plan: DWMPlan, part: DWMPart, out_h: int, out_w: int
) -> np.ndarray:
    """The part's NCHW input window: phase-subsample, shift, zero-extend.

    The window is exactly (out_h + 2, out_w + 2) so a VALID 3×3 conv on
    it yields the (out_h, out_w) partial output.  Trailing rows/cols past
    the subsampled input are zero — they are only ever multiplied by the
    zero-padding taps of the sub-filter.
    """
    a, b = part.phase
    sigma = plan.stride
    sub = xp[:, :, a::sigma, b::sigma]
    need_h = out_h + FILTER_CHUNK - 1
    need_w = out_w + FILTER_CHUNK - 1
    win = sub[:, :, part.row0 : part.row0 + need_h, part.col0 : part.col0 + need_w]
    grow_h = need_h - win.shape[2]
    grow_w = need_w - win.shape[3]
    if grow_h > 0 or grow_w > 0:
        win = np.pad(win, ((0, 0), (0, 0), (0, max(grow_h, 0)), (0, max(grow_w, 0))))
    return win


def dwm_conv2d(
    x: np.ndarray,
    f: np.ndarray,
    pad: int = 1,
    stride: int = 1,
    tile: TileSpec | str | None = None,
) -> np.ndarray:
    """Convolution by DWM decomposition; every part runs fused Winograd.

    Parameters
    ----------
    x: activations (N, C, H, W).
    f: filters (K, C, R, S) with R == S (square, as everywhere else).
    pad: symmetric zero padding.
    stride: 1 or 2 (stride 2 is lowered polyphase).
    tile: the Winograd tile family the parts run on (default F(2×2,3×3)).

    Returns
    -------
    (N, K, H', W') output with H' = ⌊(H + 2·pad − R)/stride⌋ + 1.
    """
    y, _ = dwm_conv2d_with_plan(x, f, pad=pad, stride=stride, tile=tile)
    return y


def dwm_conv2d_with_plan(
    x: np.ndarray,
    f: np.ndarray,
    pad: int = 1,
    stride: int = 1,
    tile: TileSpec | str | None = None,
) -> tuple[np.ndarray, DWMPlan]:
    """:func:`dwm_conv2d` that also returns the :class:`DWMPlan` used."""
    if x.ndim != 4 or f.ndim != 4:
        raise LayoutError("x must be NCHW and f must be KCRS")
    n, c, h, w = x.shape
    k, cf, r, s = f.shape
    if cf != c:
        raise ConvConfigError(f"channel mismatch: input C={c}, filter C={cf}")
    if r != s:
        raise ConvConfigError("DWM path requires square filters")
    tile_spec = get_tile(tile)
    plan = dwm_plan(r, s, pad, stride)
    out_h = (h + 2 * pad - r) // stride + 1
    out_w = (w + 2 * pad - s) // stride + 1
    if out_h < 1 or out_w < 1:
        raise ConvConfigError(
            f"filter {r}x{s} with pad={pad} stride={stride} does not fit "
            f"the {h}x{w} input"
        )

    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    conv = FusedWinogradConv(tile=tile_spec)
    y = np.zeros((n, k, out_h, out_w), dtype=np.float32)
    for part in plan.parts:
        g = _part_subfilter(f, plan, part)
        win = _part_input(xp, plan, part, out_h, out_w)
        # VALID conv: the window already carries the shifted padding, so
        # the part is a pad-0 3×3 problem for the fused pipeline.
        prob = ConvProblem(
            n=n, c=c, h=win.shape[2], w=win.shape[3], k=k, pad=0,
            name=f"dwm:{part.label()}",
        )
        f_t = conv.transform_filters(kcrs_to_crsk(g))
        y += khwn_to_nkhw(conv.run(nchw_to_chwn(win.astype(np.float32)), f_t, prob))
    return y, plan
