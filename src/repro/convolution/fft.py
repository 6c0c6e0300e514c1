"""FFT-based convolution (cuDNN ``FFT`` and ``FFT_TILING``).

Convolution in the spatial domain is element-wise multiplication in the
frequency domain.  cuDNN's ``FFT`` transforms the whole (padded) image;
``FFT_TILING`` decomposes the image into overlapping tiles transformed
at a fixed FFT size, trading workspace for cache behaviour.  Both pay a
large complex-valued workspace (Fig. 14's FFT columns are tens to
hundreds of MB) which is why Winograd wins at 3×3.

Correlation vs convolution: CNN "convolution" is correlation, so the
filter is conjugated in the frequency domain (equivalently flipped).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..common.errors import ConvConfigError, LayoutError


@dataclasses.dataclass
class FftRunStats:
    workspace_bytes: int = 0
    fft_size: tuple[int, int] = (0, 0)
    tiles: int = 1


def _check(x: np.ndarray, f: np.ndarray) -> None:
    if x.ndim != 4 or f.ndim != 4:
        raise LayoutError("x must be NCHW and f must be KCRS")
    if x.shape[1] != f.shape[1]:
        raise ConvConfigError("channel mismatch between input and filters")


def _next_pow2(n: int) -> int:
    return 1 << (n - 1).bit_length()


def fft_conv2d(
    x: np.ndarray, f: np.ndarray, pad: int = 1
) -> tuple[np.ndarray, FftRunStats]:
    """Whole-image FFT convolution (cuDNN ``FFT``)."""
    _check(x, f)
    n, c, h, w = x.shape
    k, _, r, s = f.shape
    out_h = h + 2 * pad - r + 1
    out_w = w + 2 * pad - s + 1
    fh, fw = h + 2 * pad, w + 2 * pad

    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    xf = np.fft.rfft2(xp, s=(fh, fw))  # (N, C, fh, fw/2+1)
    ff = np.conj(np.fft.rfft2(f, s=(fh, fw)))  # (K, C, ...) conj → correlation
    yf = np.einsum("nchw,kchw->nkhw", xf, ff, optimize=True)
    y = np.fft.irfft2(yf, s=(fh, fw))[:, :, :out_h, :out_w]

    # Workspace: frequency-domain copies of input, filters and output.
    ws = xf.nbytes + ff.nbytes + yf.nbytes
    return (
        np.ascontiguousarray(y.astype(x.dtype, copy=False)),
        FftRunStats(workspace_bytes=ws, fft_size=(fh, fw)),
    )


def fft_tiling_conv2d(
    x: np.ndarray, f: np.ndarray, pad: int = 1, tile: int = 32
) -> tuple[np.ndarray, FftRunStats]:
    """Tiled FFT convolution (cuDNN ``FFT_TILING``), overlap-save.

    The image is cut into output tiles of at most ``tile×tile``; each
    axis transforms at the power of two covering the largest input
    extent a tile reads (``min(tile, out) + r - 1``), so an output
    narrower than ``tile`` does not pay for tile-sized spectra.
    Workspace scales with the tile count times that FFT size instead of
    the image size.
    """
    _check(x, f)
    n, c, h, w = x.shape
    k, _, r, s = f.shape
    out_h = h + 2 * pad - r + 1
    out_w = w + 2 * pad - s + 1
    fh = _next_pow2(min(tile, out_h) + r - 1)
    fw = _next_pow2(min(tile, out_w) + s - 1)

    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ff = np.conj(np.fft.rfft2(f, s=(fh, fw)))
    y = np.zeros((n, k, out_h, out_w), dtype=x.dtype)
    tiles = 0
    ws_tile = 0
    for t0 in range(0, out_h, tile):
        for t1 in range(0, out_w, tile):
            th = min(tile, out_h - t0)
            tw = min(tile, out_w - t1)
            patch = xp[:, :, t0 : t0 + th + r - 1, t1 : t1 + tw + s - 1]
            xf = np.fft.rfft2(patch, s=(fh, fw))
            yf = np.einsum("nchw,kchw->nkhw", xf, ff, optimize=True)
            yt = np.fft.irfft2(yf, s=(fh, fw))[:, :, :th, :tw]
            y[:, :, t0 : t0 + th, t1 : t1 + tw] = yt
            tiles += 1
            ws_tile = max(ws_tile, xf.nbytes + yf.nbytes)
    return (
        np.ascontiguousarray(y),
        FftRunStats(workspace_bytes=ws_tile + ff.nbytes, fft_size=(fh, fw), tiles=tiles),
    )
