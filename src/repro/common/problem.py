"""Convolution problem specification.

Everything in the paper is parameterized by one tuple: batch ``N``, input
channels ``C``, spatial size ``H × W``, filter count ``K`` and filter size
``R × S`` (always 3 × 3 for Winograd F(2×2, 3×3)), with implicit "SAME"
padding of 1 and stride 1, matching all 3×3 ResNet layers (Table 1).

:class:`ConvProblem` is the single currency passed between the NumPy
implementations, the kernel generators, the simulator launch helpers and
the analytical models; all derived quantities (tile counts, FLOPs,
workspace sizes) live here so the formulas are written exactly once.
"""

from __future__ import annotations

import dataclasses
import math

from .errors import ConvConfigError


@dataclasses.dataclass(frozen=True)
class ConvProblem:
    """A batched 2-D convolution problem, NCHW semantics.

    Attributes
    ----------
    n: batch size.
    c: input channels.
    h, w: input spatial height / width (also output size: stride 1, pad 1).
    k: number of filters (output channels).
    r, s: filter height / width.
    pad: symmetric zero padding (1 for "SAME" 3×3).
    stride: convolution stride (only 1 is used in the paper).
    name: optional human-readable label, e.g. ``"Conv2N32"``.  It is no
        part of the problem's identity: two problems that differ only
        in their label compare (and hash) equal, so they share kernel
        builds, lint verdicts and simulation results.
    """

    n: int
    c: int
    h: int
    w: int
    k: int
    r: int = 3
    s: int = 3
    pad: int = 1
    stride: int = 1
    name: str = dataclasses.field(default="", compare=False)

    def __post_init__(self) -> None:
        for field in ("n", "c", "h", "w", "k", "r", "s"):
            value = getattr(self, field)
            if not isinstance(value, int) or value <= 0:
                raise ConvConfigError(f"{field} must be a positive int, got {value!r}")
        if self.pad < 0:
            raise ConvConfigError(f"pad must be >= 0, got {self.pad}")
        if self.stride not in (1, 2):
            # The paper's kernels are stride-1; stride 2 is admitted for
            # the DWM decomposition path, which lowers it to stride-1
            # polyphase sub-problems (see ``repro.convolution.dwm``).
            raise ConvConfigError(
                f"only stride 1 (paper) and stride 2 (DWM decomposition) "
                f"are supported, got {self.stride}"
            )

    # ------------------------------------------------------------------
    # Output geometry
    # ------------------------------------------------------------------
    @property
    def out_h(self) -> int:
        """Output height: ⌊(H + 2·pad − R) / stride⌋ + 1."""
        return (self.h + 2 * self.pad - self.r) // self.stride + 1

    @property
    def out_w(self) -> int:
        """Output width: ⌊(W + 2·pad − S) / stride⌋ + 1."""
        return (self.w + 2 * self.pad - self.s) // self.stride + 1

    # ------------------------------------------------------------------
    # Winograd F(m×m, r×r) tiling
    # ------------------------------------------------------------------
    def tiles_h(self, m: int = 2) -> int:
        """Number of output tiles along height for F(m×m, 3×3)."""
        return math.ceil(self.out_h / m)

    def tiles_w(self, m: int = 2) -> int:
        """Number of output tiles along width for F(m×m, 3×3)."""
        return math.ceil(self.out_w / m)

    def tiles_per_image(self, m: int = 2) -> int:
        return self.tiles_h(m) * self.tiles_w(m)

    def total_tiles(self, m: int = 2) -> int:
        """⌈H/m⌉⌈W/m⌉·N — the EWMM "rows" dimension of §3.2."""
        return self.tiles_per_image(m) * self.n

    # ------------------------------------------------------------------
    # Work accounting
    # ------------------------------------------------------------------
    @property
    def direct_flops(self) -> int:
        """2·N·C·H'·W'·K·R·S multiply-adds counted as 2 flops each.

        This is the conventional "convolution FLOPs" figure used for
        TFLOPS reporting throughout the paper (effective FLOPs — the
        Winograd kernel performs fewer actual multiplications but is
        credited with the direct-conv count, which is how an "up to 93%
        of device peak" claim exceeding 1/2.25 of peak is possible).
        """
        return 2 * self.n * self.c * self.out_h * self.out_w * self.k * self.r * self.s

    def winograd_multiplies(self, m: int = 2) -> int:
        """Actual element-wise multiplies performed by F(m×m, 3×3)."""
        t = m + self.r - 1  # transformed tile edge
        return self.total_tiles(m) * self.c * self.k * t * t

    def arithmetic_reduction(self, m: int = 2) -> float:
        """Multiplication reduction factor vs direct conv (≈2.25 for m=2)."""
        direct_muls = self.n * self.c * self.out_h * self.out_w * self.k * self.r * self.s
        return direct_muls / self.winograd_multiplies(m)

    # ------------------------------------------------------------------
    # Byte accounting (fp32)
    # ------------------------------------------------------------------
    @property
    def input_bytes(self) -> int:
        return 4 * self.n * self.c * self.h * self.w

    @property
    def filter_bytes(self) -> int:
        return 4 * self.k * self.c * self.r * self.s

    @property
    def output_bytes(self) -> int:
        return 4 * self.n * self.k * self.out_h * self.out_w

    def transformed_filter_bytes(self, m: int = 2) -> int:
        """Workspace holding GFGᵀ for every (c, k): C·K·t² floats."""
        t = m + self.r - 1
        return 4 * self.c * self.k * t * t

    # ------------------------------------------------------------------
    def with_batch(self, n: int) -> "ConvProblem":
        """Same layer at a different batch size (keeps the layer name stem)."""
        stem = self.name.split("N")[0] if self.name else ""
        label = f"{stem}N{n}" if stem else ""
        return dataclasses.replace(self, n=n, name=label)

    def label(self) -> str:
        return self.name or f"conv{self.c}x{self.h}x{self.w}k{self.k}n{self.n}"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ConvProblem({self.label()}: N={self.n} C={self.c} "
            f"{self.h}x{self.w} K={self.k} {self.r}x{self.s} pad={self.pad})"
        )
