"""Digest every NumPy Winograd executor over a fixed problem corpus.

Runs the filter transform, the fused executor (F(2×2) at the paper's
and cuDNN's blocking, F(4×4)), its §8.4 NCHW port, the non-fused
executor (m = 2 and 4) and ``conv2d``'s Winograd algorithms on seeded
inputs, and prints one ``sha256 <name> <hex>`` line per result: the
digest of the output's bytes, and of the run's stats fields where the
executor reports them.  Diffing the lines of two checkouts shows
whether a NumPy-executor change altered any output bit; it is the
NumPy analogue of ``lint_kernels.py``'s kernel digests.

The NCHW port's output is digested in KHWN order, so its line equals
the fused executor's line of the same tile, dtype and shape exactly
when the two are byte-identical.

Usage::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python benchmarks/digest_executors.py
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np

from repro.common import ConvProblem, kcrs_to_crsk, nchw_to_chwn, nkhw_to_khwn
from repro.convolution import conv2d
from repro.models import resnet_layer
from repro.winograd import (
    CUDNN_CONFIG,
    FusedWinogradConv,
    FusedWinogradConvNCHW,
    NonFusedWinogradConv,
)

#: Exact §8.4 patch, ragged tiles, Conv5-like overhang, one tile and one
#: filter, pad 0, a channel remainder with several K blocks, several
#: tile rows per slab, and two Table-1 layers at small N.
SHAPES = [
    ConvProblem(n=2, c=8, h=16, w=8, k=32),
    ConvProblem(n=2, c=8, h=14, w=10, k=16),
    ConvProblem(n=3, c=4, h=7, w=7, k=8),
    ConvProblem(n=1, c=1, h=1, w=1, k=1),
    ConvProblem(n=2, c=5, h=9, w=11, k=7, pad=0),
    ConvProblem(n=4, c=19, h=13, w=6, k=70),
    ConvProblem(n=1, c=3, h=31, w=17, k=130),
    resnet_layer("Conv4", 2),
    resnet_layer("Conv5", 4),
]

DTYPES = (np.float32, np.float64)

FUSED = [
    ("f22", FusedWinogradConv),
    ("f22-cudnn", lambda: FusedWinogradConv(config=CUDNN_CONFIG)),
    ("f44", lambda: FusedWinogradConv(tile="f44")),
]

CONV2D_ALGOS = ("WINOGRAD", "WINOGRAD_F44", "WINOGRAD_NONFUSED", "WINOGRAD_DWM")
CONV2D_LAYERS = [resnet_layer(name, n) for n in (1, 4) for name in ("Conv2", "Conv3", "Conv4", "Conv5")]


def _label(prob: ConvProblem) -> str:
    return f"n{prob.n}c{prob.c}h{prob.h}w{prob.w}k{prob.k}p{prob.pad}"


def _emit(name: str, *parts) -> None:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
    print(f"sha256 {name} {h.hexdigest()}")


def _inputs(prob: ConvProblem, dtype, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((prob.n, prob.c, prob.h, prob.w)).astype(dtype)
    f = rng.standard_normal((prob.k, prob.c, 3, 3)).astype(dtype)
    return x, f


def digest_executors() -> None:
    for i, prob in enumerate(SHAPES):
        for dtype in DTYPES:
            x, f = _inputs(prob, dtype, seed=i)
            x_chwn, f_crsk = nchw_to_chwn(x), kcrs_to_crsk(f)
            case = f"{np.dtype(dtype).name}/{_label(prob)}"
            for tile, make in FUSED:
                conv = make()
                f_t = conv.transform_filters(f_crsk)
                if tile != "f22-cudnn":
                    _emit(f"ftf/{tile}/{case}", f_t)
                y, stats = conv.run(x_chwn, f_t, prob)
                _emit(f"fused/{tile}/{case}", y)
                _emit(f"fused/{tile}/{case}:stats", dataclasses.astuple(stats))
                if tile != "f22-cudnn":
                    nchw = FusedWinogradConvNCHW(tile=tile)
                    _emit(f"nchw/{tile}/{case}", nkhw_to_khwn(nchw.run_nchw(x, f_t, prob)))
            for m in (2, 4):
                y, stats = NonFusedWinogradConv(m=m).run(x_chwn, f_crsk, prob)
                _emit(f"nonfused/m{m}/{case}", y)
                _emit(f"nonfused/m{m}/{case}:stats", dataclasses.astuple(stats))


def digest_conv2d() -> None:
    for i, prob in enumerate(CONV2D_LAYERS):
        x, f = _inputs(prob, np.float32, seed=100 + i)
        for algo in CONV2D_ALGOS:
            _emit(f"conv2d/{algo}/{prob.name}", conv2d(x, f, pad=prob.pad, algo=algo))


def main() -> None:
    digest_executors()
    digest_conv2d()


if __name__ == "__main__":
    main()
