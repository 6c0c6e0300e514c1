"""SASS generator for the filter-transform (FTF) kernel (paper §4.1).

The paper implements the filter transformation ``F̂ = G F Gᵀ`` as a
separate kernel (the "FX variant" of Lavin & Gray): it reads the CRSK
filter tensor, transforms each 3×3 tile with the 4×3 ``G`` of §2.1, and
writes the CR'S'K workspace the fused kernel consumes.

Work decomposition follows §4.1: 256 threads per block, each thread
transforming two (c, k) tiles; consecutive threads handle consecutive
``k``, so every global load and store is a fully coalesced 128-byte
transaction in the k-fastest layouts.  A single predicate guards the
ragged tail when C·K is not a multiple of 512.

The transform is pure register arithmetic (~35 float instructions per
tile with this factorization; the paper counts 28 with a couple more
shared subexpressions).  Either way the kernel is memory-bound — the
FTF point at the far left of Fig. 2 — and a negligible slice of layer
time, which is why the paper fuses everything *except* this step.
"""

from __future__ import annotations

from ..common.errors import ConvConfigError
from ..common.problem import ConvProblem
from ..sass.assembler import AssembledKernel, assemble
from .winograd_fused import THREADS, _ctl, _magic_u32

TILES_PER_THREAD = 2
TILES_PER_BLOCK = THREADS * TILES_PER_THREAD  # 512, as in §4.1
_BLOCK_STRIDE = 40  # registers per tile stage


class FilterTransformKernel:
    """Generator + launch helper for one layer's FTF kernel."""

    def __init__(self, prob: ConvProblem):
        if prob.r != 3 or prob.s != 3:
            raise ConvConfigError("the FTF kernel transforms 3×3 filters")
        self.prob = prob
        self.total_tiles = prob.c * prob.k
        self.num_regs = 16 + TILES_PER_THREAD * _BLOCK_STRIDE

    @property
    def grid(self) -> int:
        return -(-self.total_tiles // TILES_PER_BLOCK)

    def source(self) -> str:
        k = self.prob.k
        L = [
            ".kernel winograd_ftf",
            f".registers {self.num_regs}",
            ".param 8 fil_ptr",
            ".param 8 out_ptr",
            "S2R R0, SR_TID.X;",
            "S2R R6, SR_CTAID.X;",
            f"IMAD R1, R6, {TILES_PER_BLOCK:#x}, R0;",
            "MOV R2, param:fil_ptr;",
            "MOV R3, c[0x0][0x164];",
            "MOV R4, param:out_ptr;",
            "MOV R5, c[0x0][0x16c];",
        ]
        for t in range(TILES_PER_THREAD):
            L += self._tile(t)
        L.append("EXIT;")
        return "\n".join(L)

    def _tile(self, t: int) -> list[str]:
        """Load, transform and store one (c, k) tile (guarded by P{t})."""
        k = self.prob.k
        base = 16 + _BLOCK_STRIDE * t
        f = lambda r, s: base + 3 * r + s  # B+0..8: the 3×3 filter
        m1 = lambda s: base + 9 + s  # row 1 of G·F
        m2 = lambda s: base + 12 + s  # row 2 of G·F
        o1 = lambda i: base + 16 + i  # output column 1 per row
        o2 = lambda i: base + 20 + i  # output column 2 per row
        ta, tb = base + 15, base + 24
        ain = base + 26  # 64-bit pair (base even → even offset 26 stays even)
        aout = base + 28
        dv = base + 30  # IMAD.WIDE scratch pair (c lands in dv+1)
        flat, kk, idx = base + 32, base + 33, base + 34
        bar = t  # scoreboard barrier for this tile's loads
        guard = f"@P{t}"

        L = [f"IADD3 R{flat}, R1, {THREADS * t:#x}, RZ;"]
        L.append(
            f"ISETP.LT.U32.AND P{t}, PT, R{flat}, {self.total_tiles:#x}, PT;"
        )
        # c = flat / K, kk = flat % K (K is a generation-time constant).
        if k & (k - 1) == 0:
            shift = k.bit_length() - 1
            L.append(f"SHF.R.U32 R{dv + 1}, R{flat}, {shift:#x}, RZ;")
        else:
            L.append(
                f"IMAD.WIDE.U32 R{dv}, R{flat}, {_magic_u32(k):#x}, RZ;"
            )
        L.append(f"IMAD R{kk}, R{dv + 1}, {(-k) & 0xFFFFFFFF:#x}, R{flat};")

        # Input base: fil_ptr + 4·(c·9K + kk); taps at +4·e·K.
        L.append(f"IMAD R{idx}, R{dv + 1}, {9 * k:#x}, R{kk};")
        L.append(f"MOV R{ain}, R2;")
        L.append(f"MOV R{ain + 1}, R3;")
        L.append(f"IMAD.WIDE R{ain}, R{idx}, 0x4, R{ain};")
        for e in range(9):
            L.append(
                f"{_ctl(wbar=bar)} {guard} LDG.E R{f(e // 3, e % 3)}, "
                f"[R{ain} + {4 * e * k:#x}];"
            )

        # Output base: out_ptr + 4·(c·16K + kk); elements at +4·(4i+j)·K.
        L.append(f"IMAD R{idx}, R{dv + 1}, {16 * k:#x}, R{kk};")
        L.append(f"MOV R{aout}, R4;")
        L.append(f"MOV R{aout + 1}, R5;")
        L.append(f"IMAD.WIDE R{aout}, R{idx}, 0x4, R{aout};")

        # Column pass M = G·F: rows 0/3 alias f rows 0/2; rows 1/2 are
        # 0.5·(f0 ± f1 + f2) per column.
        first = _ctl(wait=1 << bar)
        for s in range(3):
            ctl = first if s == 0 else ""
            L.append(f"{ctl} FADD R{ta}, R{f(0, s)}, R{f(2, s)};".strip())
            L.append(f"FADD R{tb}, R{ta}, R{f(1, s)};")
            L.append(f"FMUL R{m1(s)}, R{tb}, 0.5;")
            L.append(f"FADD R{tb}, R{ta}, -R{f(1, s)};")
            L.append(f"FMUL R{m2(s)}, R{tb}, 0.5;")
        # Row pass F̂ = M·Gᵀ: columns 0/3 alias M's columns 0/2.
        rows = [
            (f(0, 0), f(0, 1), f(0, 2)),
            (m1(0), m1(1), m1(2)),
            (m2(0), m2(1), m2(2)),
            (f(2, 0), f(2, 1), f(2, 2)),
        ]
        for i, (r0, r1, r2) in enumerate(rows):
            L.append(f"FADD R{ta}, R{r0}, R{r2};")
            L.append(f"FADD R{tb}, R{ta}, R{r1};")
            L.append(f"FMUL R{o1(i)}, R{tb}, 0.5;")
            L.append(f"FADD R{tb}, R{ta}, -R{r1};")
            L.append(f"FMUL R{o2(i)}, R{tb}, 0.5;")
        # Stores: (i, 0) = row's col 0, (i, 3) = row's col 2.
        for i, (r0, _r1, r2) in enumerate(rows):
            for j, src in ((0, r0), (1, o1(i)), (2, o2(i)), (3, r2)):
                imm = 4 * (4 * i + j) * k
                L.append(
                    f"{_ctl(rbar=2 + t)} {guard} STG.E [R{aout} + {imm:#x}], R{src};"
                )
        return L

    def build(self) -> AssembledKernel:
        return assemble(self.source(), auto_schedule=True)

