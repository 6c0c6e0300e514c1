"""Roofline model (paper Fig. 2).

Attainable TFLOPS = min(peak, intensity × bandwidth), drawn against the
DRAM (900 GB/s) and L2 (2.5 TB/s) ceilings of the V100.  The interesting
points are the Winograd pipeline stages:

* ITF / FTF / OTF — a handful of FADDs over a tile's bytes: deeply
  memory-bound (left edge of the figure);
* the batched-GEMM (EWMM) step at ``bk = 32`` → 8 flops/byte and at
  ``bk = 64`` → 10.67 flops/byte (+33%, §3.3) — the blocking change that
  moves the kernel to the right of the DRAM ridge point provided L2
  catches the filter traffic;
* blocked direct convolution at ``bk = 64`` for comparison.

The EWMM step's blocking arithmetic (intensity, staging shared memory,
per-thread FMAs and accumulators) is written once, as :class:`Blocking`;
the F(4×4) feasibility study (§8.1) and the fp16 projection (§8.3)
read the same type.
"""

from __future__ import annotations

import dataclasses

from ..gpusim.arch import DeviceSpec, V100
from ..winograd.transforms import (
    PAPER_FTF_FLOPS,
    PAPER_ITF_FLOPS,
    PAPER_OTF_FLOPS,
)


@dataclasses.dataclass(frozen=True)
class RooflinePoint:
    name: str
    intensity: float  # flops per DRAM byte

    def attainable_tflops(self, device: DeviceSpec, level: str = "dram") -> float:
        bw = device.dram_gbps if level == "dram" else device.l2_gbps
        return min(device.peak_fp32_tflops, self.intensity * bw / 1e3)

    def bound(self, device: DeviceSpec, level: str = "dram") -> str:
        return (
            "compute"
            if self.attainable_tflops(device, level) >= device.peak_fp32_tflops
            else "memory"
        )


#: Threads per block of every fused-kernel blocking modelled here (§4).
THREADS = 256


@dataclasses.dataclass(frozen=True)
class Blocking:
    """One (bk, bn, bc) two-level blocking of a fused Winograd main loop.

    Per bc-iteration a block stages (bk + bn)·bc transformed tiles of
    ``elements`` (alpha²) values, ``width`` bytes each, and its
    :data:`THREADS` threads perform alpha²·bk·bn·bc FMAs.  The paper's
    F(2×2,3×3) kernel is ``Blocking(64, 32, 8)`` (§3.3, Table 7), cuDNN's
    is bk = 32; ``perfmodel.f44_study`` sizes F(4×4,3×3) blockings with
    ``elements=36`` and ``perfmodel.extensions`` the §8.3 fp16 port with
    ``width=2``.
    """

    bk: int
    bn: int
    bc: int
    elements: int = 16
    width: int = 4

    @property
    def smem_bytes(self) -> int:
        """The (alpha², bc, bk) + (alpha², bc, bn) staging buffers
        (Table 7's 32 + 16 KB at f22's (64, 32, 8))."""
        return self.elements * self.bc * (self.bk + self.bn) * self.width

    @property
    def accumulators(self) -> int:
        """Output accumulators per thread: alpha²·bk·bn / THREADS."""
        return self.elements * self.bk * self.bn // THREADS

    @property
    def fma_per_thread(self) -> int:
        """FMAs per thread per bc-iteration (1024 at f22's (64, 32, 8), §4.3)."""
        return self.elements * self.bk * self.bn * self.bc // THREADS

    @property
    def arithmetic_intensity(self) -> float:
        """Main-loop flops per global byte: 2·alpha²·bk·bn·bc flops over
        the bytes of the alpha²·(bk + bn)·bc staged values (§3.3: 8 at
        f22's bk = 32, 10.67 at bk = 64)."""
        flops = 2 * self.elements * self.bk * self.bn * self.bc
        gmem_bytes = self.elements * (self.bk + self.bn) * self.bc * self.width
        return flops / gmem_bytes


def gemm_step_intensity(bk: int, bn: int = 32, bc: int = 8) -> float:
    """Fig. 2's EWMM point: the F(2×2) :class:`Blocking`'s intensity."""
    return Blocking(bk, bn, bc).arithmetic_intensity


def direct_conv_intensity(bk: int = 64, bn: int = 32, bc: int = 8) -> float:
    """Blocked direct 3×3 convolution: bk filters × bn output pixels.

    The bn output pixels are modelled as an 8×4 spatial patch so the 3×3
    halo is shared: (8+2)·(4+2) input values per channel.
    """
    flops = 2 * bk * bn * 9 * bc
    halo_inputs = (8 + 2) * (4 + 2)
    gmem_bytes = (bk * 9 + halo_inputs) * bc * 4
    return flops / gmem_bytes


def transform_intensity(kind: str) -> float:
    """ITF/FTF/OTF steps: a few FADDs per tile of traffic (memory-bound)."""
    if kind == "ITF":
        # 32 FADDs; reads a 4×4 tile, writes a 4×4 transformed tile.
        return PAPER_ITF_FLOPS / ((16 + 16) * 4)
    if kind == "FTF":
        # 28 float ops; reads 3×3, writes 4×4.
        return PAPER_FTF_FLOPS / ((9 + 16) * 4)
    if kind == "OTF":
        # 24 FADDs; reads 4×4, writes 2×2.
        return PAPER_OTF_FLOPS / ((16 + 4) * 4)
    raise ValueError(f"unknown transform {kind!r}")


def paper_points() -> list[RooflinePoint]:
    """The labelled points of Fig. 2."""
    return [
        RooflinePoint("ITF", transform_intensity("ITF")),
        RooflinePoint("FTF", transform_intensity("FTF")),
        RooflinePoint("OTF", transform_intensity("OTF")),
        RooflinePoint("batched GEMM (bk=32)", gemm_step_intensity(32)),
        RooflinePoint("batched GEMM (bk=64)", gemm_step_intensity(64)),
        RooflinePoint("Direct Convolution (bk=64)", direct_conv_intensity(64)),
    ]


def roofline_table(device: DeviceSpec = V100) -> list[dict]:
    """Rows for the Fig. 2 reproduction bench."""
    rows = []
    for point in paper_points():
        rows.append(
            {
                "step": point.name,
                "intensity": point.intensity,
                "dram_tflops": point.attainable_tflops(device, "dram"),
                "l2_tflops": point.attainable_tflops(device, "l2"),
                "bound@dram": point.bound(device, "dram"),
                "bound@l2": point.bound(device, "l2"),
            }
        )
    return rows
