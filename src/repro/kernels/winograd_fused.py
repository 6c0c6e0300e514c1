"""SASS generators for the fused Winograd kernel family.

:class:`WinogradFusedKernel` is the kernel structure every family
shares, parameterized by its :class:`~repro.winograd.tilespec.TileSpec`
(m, alpha, elements): the shape checks and tile geometry, the
prologue's input base and P2R-packed zero-padding mask (§3.5), the
global prefetch and shared-memory staging streams of the
software-pipelined main loop (§3.4), the loop tail, and the
source/build/launch helpers.  Each tile family supplies only what
differs — its register and shared-memory maps, operand bases, EWMM
steps, input/output transforms, loop body and epilogue:

* :class:`WinogradF22Kernel` — the paper's F(2×2, 3×3) kernel of §3-§4
  (bk×32 tiles, 4×4 transformed elements, one 16-bit P2R mask);
* :class:`WinogradF44Kernel` — the §8.1 extension to F(4×4, 3×3) at the
  best feasible blocking from ``perfmodel.f44_study`` (bk=16 / bn=32 /
  bc=8): 6×6 transformed tiles, a 36-bit two-word predicate mask, and a
  register-resident input/output transform (no shared-memory transpose
  buffer — each thread owns all 36 transformed elements of its tiles).

The batched-GEMM kernel (:mod:`repro.kernels.gemm`) reuses the F(2×2)
generator's EWMM machinery.  :func:`kernel_for_tile` dispatches on a
:class:`~repro.winograd.tilespec.TileSpec`, which is how the build
cache, runner and benchmarks stay tile-agnostic.

The F(2×2) generator writes, in the TuringAs dialect, the kernel of
§3-§4:

* 256 threads per block computing ``bk × bn`` output tiles (Fig. 1);
* CHWN input / CR'S'K transformed filter / KHWN output (Table 4);
* implicit zero padding with a 16-bit mask packed by P2R and unpacked
  with R2P inside the loop (§3.5);
* software-pipelined main loop — global prefetch double-buffered in
  registers, shared-memory fragments double-buffered per k-step, exactly
  1024 FFMAs + 32 ITF FADDs per thread per bc-iteration (§3.4, §4.2);
* the Fig. 3 lane arrangement for conflict-free LDS.128 and the Fig. 4
  register-bank-aware FFMA ordering with ``.reuse`` flags (§4.3);
* the four-round output transform through a padded shared-memory
  transpose buffer (§4.4, Fig. 5);
* the full 253-register budget of Table 5.

Every §6 scheduling knob is a :class:`Tunables` field: the yield-flag
strategy (Fig. 7), LDG interleave distance (Fig. 8), STS interleave
distance (Fig. 9), the cache-block size ``bk`` (cuDNN's 32 vs ours 64),
and the shared-buffer layout (the transposed layout of Table 4 vs the
naive tile-major layout, whose bank conflicts are why the transpose
exists at all).  Each generator checks the structural knobs its thread
mapping fixes: F(2×2) takes bk=32 or 64; F(4×4) needs bk=16, the
transposed layout and ``double_buffer=2``.

The generated kernel is *layer-specialized*: geometry (H, W, N, K, C)
is compiled into immediates and magic-number divisions, which is also
how the original SASS kernels are produced per layer family.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..common.errors import ConvConfigError
from ..common.problem import ConvProblem
from ..sass.assembler import AssembledKernel, assemble
from ..winograd.tilespec import TILE_F22, TILE_F44, TileSpec, get_tile
from .schedules import YIELD_STRATEGIES, apply_yield_strategy, weave

BC = 8  # channels per iteration; fixed as in the paper
BN = 32  # input tiles per block; fixed (one tile per thread per iteration)
THREADS = 256
WARPS = 8


@dataclasses.dataclass(frozen=True)
class Tunables:
    """The SASS-level knobs studied in §6 (plus the §3.3 block size)."""

    yield_strategy: str = "natural"  # natural | nvcc8 | cudnn7   (Fig. 7)
    ldg_interleave: int = 8          # FFMAs between LDGs          (Fig. 8)
    sts_interleave: int = 6          # FFMAs between STSs          (Fig. 9)
    bk: int = 64                     # filters per block           (§3.3)
    smem_layout: str = "transposed"  # transposed | tile_major     (§4.3)
    use_p2r: bool = True             # pack masks with P2R/R2P     (§3.5)
    double_buffer: int = 2           # fragment buffer depth       (§3.4)

    def __post_init__(self) -> None:
        if self.yield_strategy not in YIELD_STRATEGIES:
            raise ConvConfigError(
                f"unknown yield strategy {self.yield_strategy!r}; "
                f"use one of {YIELD_STRATEGIES}"
            )
        if self.bk not in (16, 32, 64):
            raise ConvConfigError(
                "bk must be 16 (F(4×4)), 32 (cuDNN-like) or 64 (paper)"
            )
        if self.smem_layout not in ("transposed", "tile_major"):
            raise ConvConfigError("smem_layout must be transposed or tile_major")
        if self.ldg_interleave < 1 or self.sts_interleave < 1:
            raise ConvConfigError("interleave distances must be >= 1")
        if self.double_buffer not in (1, 2):
            raise ConvConfigError(
                "double_buffer must be 2 (the paper's register ping-pong) "
                "or 1 (single-buffered fragment ablation)"
            )


def default_tunables(tile: TileSpec | str | None = None) -> Tunables:
    """The family-appropriate default tunables for *tile* (f22 if None)."""
    return Tunables(bk=get_tile(tile).bk)


def _magic_u32(divisor: int) -> int:
    """ceil(2^32 / d): exact unsigned division for dividends < 2^32/d."""
    return -(-(1 << 32) // divisor)


def _ctl(wait=0, rbar=None, wbar=None, stall=1, yld=False) -> str:
    """The control prefix ``[B<wait mask>:R<rbar>:W<wbar>:<yield>:S<stall>]``."""
    waits = "".join(str(i) if wait & (1 << i) else "-" for i in range(6))
    r = "-" if rbar is None else str(rbar)
    w = "-" if wbar is None else str(wbar)
    y = "Y" if yld else "-"
    return f"[B{waits}:R{r}:W{w}:{y}:S{stall:02d}]"


class WinogradFusedKernel:
    """Generator + launch helper for one layer's fused Winograd kernel.

    The skeleton shared by every tile family, parameterized by ``TILE``.
    A family class sets ``TILE`` and ``LOOP_PRED`` (the predicate its
    loop tail tests) and provides:

    * ``_check_tunables`` — the structural knobs its thread mapping fixes;
    * in ``__init__``, after this one: the register map (``n_acc``,
      ``pf_fil``/``n_pf_fil``, ``pf_in``, ``itf_out``, ``PTR_IN``,
      ``PTR_FIL``, ``ITER``, ``MASK`` [, ``MASK_HI``], ``STS_*``,
      ``LDS_*``, ``TMP``, ``num_regs``), the prologue ``scratch`` base
      and the shared-memory map (``smem_in_base``, ``smem_bytes``);
    * ``_emit_operand_bases`` (filter pointer, STS and LDS bases),
      ``_fil_row``/``_sts_fil_offset`` (where filter prefetch register
      ``i`` loads from and stores to), ``first_fragments``,
      ``itf_stream``, ``loop_body`` and ``epilogue``.
    """

    TILE: TileSpec
    LOOP_PRED: str
    PARAMS = ("in_ptr", "fil_ptr", "out_ptr")

    def __init__(self, prob: ConvProblem, tunables: Tunables | None = None):
        tunables = tunables or default_tunables(self.TILE)
        self._check_tunables(tunables)
        if prob.r != 3 or prob.s != 3 or prob.pad != 1:
            raise ConvConfigError("the fused kernel implements 3×3 / pad 1")
        if prob.n % BN:
            raise ConvConfigError(f"N must be a multiple of {BN} (got {prob.n})")
        if prob.c % BC:
            raise ConvConfigError(f"C must be a multiple of {BC} (got {prob.c})")
        if prob.k % tunables.bk:
            raise ConvConfigError(
                f"K must be a multiple of bk={tunables.bk} (got {prob.k})"
            )
        self.prob = prob
        self.t = tunables
        self.bk = tunables.bk
        self.th = prob.tiles_h(self.TILE.m)
        self.tw = prob.tiles_w(self.TILE.m)
        self.total_tiles = self.th * self.tw * prob.n
        self.iters = prob.c // BC

    @property
    def kernel_name(self) -> str:
        return f"winograd_{self.TILE.name}_bk{self.bk}"

    @property
    def launch_smem_bytes(self) -> int:
        """Shared memory the launch reserves — the ``.smem`` header value."""
        return self.smem_bytes

    # ------------------------------------------------------------------
    # Emission helpers
    # ------------------------------------------------------------------
    def _emit_udiv(self, lines, dst, src, divisor, tmp_pair):
        """dst = src / divisor (unsigned); divisor is a generation-time const."""
        if divisor & (divisor - 1) == 0:
            shift = divisor.bit_length() - 1
            lines.append(f"SHF.R.U32 R{dst}, R{src}, {shift:#x}, RZ;")
            return
        magic = _magic_u32(divisor)
        assert tmp_pair % 2 == 0
        lines.append(f"IMAD.WIDE.U32 R{tmp_pair}, R{src}, {magic:#x}, RZ;")
        lines.append(f"MOV R{dst}, R{tmp_pair + 1};")

    def _emit_mod(self, lines, dst, src, quotient, divisor):
        """dst = src - quotient*divisor (valid after _emit_udiv)."""
        neg = (-divisor) & 0xFFFFFFFF
        lines.append(f"IMAD R{dst}, R{quotient}, {neg:#x}, R{src};")

    @staticmethod
    def _emit_thread_ids(lines, T, split=5) -> None:
        """T0 = tid, T2/T3 = block x/y, T1 = tid's low *split* bits, T4 = the rest.

        At ``split=5`` T1/T4 are the lane and the warp.
        """
        lines.append(f"S2R R{T(0)}, SR_TID.X;")
        lines.append(f"S2R R{T(2)}, SR_CTAID.X;")
        lines.append(f"S2R R{T(3)}, SR_CTAID.Y;")
        lines.append(f"LOP3.AND R{T(1)}, R{T(0)}, {(1 << split) - 1:#x}, RZ;")
        lines.append(f"SHF.R.U32 R{T(4)}, R{T(0)}, {split:#x}, RZ;")

    def _emit_tile_coords(self, lines, T, g=5, hw=6, n=7) -> None:
        """Tile id T(g) → T(hw) = g / N, T(n) = g % N, h̃ = T(10), w̃ = T(11).

        T(8) and T(12) are scratch.
        """
        self._emit_udiv(lines, T(hw), T(g), self.prob.n, T(8))
        self._emit_mod(lines, T(n), T(g), T(hw), self.prob.n)
        self._emit_udiv(lines, T(10), T(hw), self.tw, T(12))
        self._emit_mod(lines, T(11), T(hw), T(10), self.tw)

    def _emit_lane_tile(self, lines, T) -> None:
        """Thread ids, then tile id g = tb·32 + lane and its coordinates."""
        self._emit_thread_ids(lines, T)
        lines.append(f"IMAD R{T(5)}, R{T(2)}, 0x20, R{T(1)};")
        self._emit_tile_coords(lines, T)

    @staticmethod
    def _emit_param_address(lines, dst, param, index) -> None:
        """64-bit R[dst:dst+1] = kernel parameter *param* + 4·R[index]."""
        bank = 0x160 + 8 * param
        lines.append(f"MOV R{dst}, c[0x0][{bank:#x}];")
        lines.append(f"MOV R{dst + 1}, c[0x0][{bank + 4:#x}];")
        lines.append(f"IMAD.WIDE R{dst}, R{index}, 0x4, R{dst};")

    # ------------------------------------------------------------------
    # Prologue
    # ------------------------------------------------------------------
    def prologue(self) -> list[str]:
        p, m, alpha = self.prob, self.TILE.m, self.TILE.alpha
        L: list[str] = []
        T = lambda i: self.scratch + i

        # Each thread stages tile g = tb·32 + lane of channel c' = warp.
        self._emit_lane_tile(L, T)

        # Input base address: in_ptr + 4·(((c'·H + m·h̃−1)·W + m·w̃−1)·N + n).
        L.append(f"IMAD R{T(14)}, R{T(10)}, {m:#x}, RZ;")
        L.append(f"IADD3 R{T(14)}, R{T(14)}, -1, RZ;")  # h0 = m·h̃ − 1
        L.append(f"IMAD R{T(15)}, R{T(4)}, {p.h:#x}, R{T(14)};")  # c'·H + h0
        L.append(f"IMAD R{T(9)}, R{T(11)}, {m:#x}, RZ;")
        L.append(f"IADD3 R{T(9)}, R{T(9)}, -1, RZ;")  # w0 = m·w̃ − 1
        L.append(f"IMAD R{T(15)}, R{T(15)}, {p.w:#x}, R{T(9)};")
        L.append(f"IMAD R{T(15)}, R{T(15)}, {p.n:#x}, R{T(7)};")
        # 64-bit base: the index may be negative at the top/left padding
        # edge, so the carry into the high word matters.
        self._emit_param_address(L, self.PTR_IN, 0, T(15))

        if self.t.use_p2r:
            # Zero-padding mask (§3.5): bit alpha·x + y = rowok(x) & colok(y),
            # packed into MASK (bits 0-31) and MASK_HI (bits 32 and up).
            field = (1 << alpha) - 1
            for x in range(alpha):
                L.append(f"IADD3 R{T(8)}, R{T(14)}, {x:#x}, RZ;")
                L.append(f"ISETP.LT.U32.AND P{x}, PT, R{T(8)}, {p.h:#x}, PT;")
            L.append(f"P2R R{T(8)}, {field:#x};")  # row-ok field
            for y in range(alpha):
                L.append(f"IADD3 R{T(12)}, R{T(9)}, {y:#x}, RZ;")
                L.append(f"ISETP.LT.U32.AND P{y}, PT, R{T(12)}, {p.w:#x}, PT;")
            L.append(f"P2R R{T(13)}, {field:#x};")  # col-ok field
            L.append(f"MOV R{self.MASK}, 0x0;")
            if self.TILE.mask_words > 1:
                L.append(f"MOV R{self.MASK_HI}, 0x0;")
            L.append(f"R2P R{T(8)}, {field:#x};")  # P_x = rowok(x)
            for x in range(alpha):
                shift = alpha * x
                L.append(f"SHF.L.U32 R{T(12)}, R{T(13)}, {shift:#x}, RZ;")
                L.append(
                    f"@P{x} LOP3.OR R{self.MASK}, R{self.MASK}, R{T(12)}, RZ;"
                )
                if shift + alpha > 32:  # the row straddles the mask words
                    L.append(f"SHF.R.U32 R{T(12)}, R{T(13)}, {32 - shift:#x}, RZ;")
                    L.append(
                        f"@P{x} LOP3.OR R{self.MASK_HI}, R{self.MASK_HI}, "
                        f"R{T(12)}, RZ;"
                    )
        else:
            # Ablation: keep the raw tile origin; predicates recomputed
            # inside the loop (costing ALU work every iteration).
            L.append(f"MOV R{self.MASK}, R{T(14)};")  # h0
            L.append(f"MOV R{self.TMP[1]}, R{T(9)};")  # w0

        self._emit_operand_bases(L, T)

        # Zero the accumulators and the (statically masked) input prefetch.
        for r in range(self.n_acc):
            L.append(f"MOV R{r}, RZ;")
        for e in range(self.TILE.elements):
            L.append(f"MOV R{self.pf_in + e}, RZ;")
        L.append(f"MOV R{self.ITER}, {self.iters:#x};")
        L.append(f"MOV R{self.TMP[2]}, 0x1;")  # constant 1 for 64-bit bumps
        return L

    # ------------------------------------------------------------------
    # Global prefetch stream: the filter LDGs, then the predicated
    # alpha×alpha input window (woven into the loop's FFMAs).
    # ------------------------------------------------------------------
    def ldg_stream(self) -> list[str]:
        p, alpha = self.prob, self.TILE.alpha
        t0, t1 = self.TMP[0], self.TMP[1]
        lines = []
        for i in range(self.n_pf_fil):
            imm = 4 * p.k * self._fil_row(i)
            wait = 1 << 4 if i == 0 else 0  # WAR with last body's STS (B4)
            lines.append(
                f"{_ctl(wait=wait, wbar=1)} LDG.E R{self.pf_fil + i}, "
                f"[R{self.PTR_FIL} + {imm:#x}];"
            )
        for x in range(alpha):
            if self.t.use_p2r:
                # §3.5: unpack row x's alpha packed mask bits.
                shift = alpha * x
                lines.append(f"SHF.R.U32 R{t0}, R{self.MASK}, {shift:#x}, RZ;")
                if shift + alpha > 32:
                    # The row straddles the words: OR in MASK_HI << (32 − shift).
                    lines.append(
                        f"SHF.L.U32 R{t1}, R{self.MASK_HI}, {32 - shift:#x}, RZ;"
                    )
                    lines.append(f"LOP3.OR R{t0}, R{t0}, R{t1}, RZ;")
                lines.append(f"R2P R{t0}, {(1 << alpha) - 1:#x};")
            else:
                # Ablation: recompute the predicates every iteration the
                # way compiler-generated code must when the mask cannot
                # be packed (MASK/TMP1 hold h0/w0 instead of the bits).
                # P{alpha} is free here: the loop's trip-count test runs
                # later in the body.
                row = f"P{alpha}"
                lines.append(f"IADD3 R{t0}, R{self.MASK}, {x:#x}, RZ;")
                lines.append(
                    f"ISETP.LT.U32.AND {row}, PT, R{t0}, {p.h:#x}, PT;"
                )
                for y in range(alpha):
                    lines.append(f"IADD3 R{t0}, R{t1}, {y:#x}, RZ;")
                    lines.append(
                        f"ISETP.LT.U32.AND P{y}, PT, R{t0}, {p.w:#x}, {row};"
                    )
            for y in range(alpha):
                imm = 4 * (x * p.w + y) * p.n
                lines.append(
                    f"{_ctl(wbar=0)} @P{y} LDG.E R{self.pf_in + alpha * x + y}, "
                    f"[R{self.PTR_IN} + {imm:#x}];"
                )
        return lines

    # ------------------------------------------------------------------
    # STS streams (§4.1-§4.2 data staging; read barrier B4 guards the WAR
    # with the next iteration's prefetch).
    # ------------------------------------------------------------------
    def sts_filter_stream(self) -> list[str]:
        lines = []
        for i in range(self.n_pf_fil):
            wait = 1 << 1 if i == 0 else 0
            lines.append(
                f"{_ctl(wait=wait, rbar=4)} STS "
                f"[R{self.STS_FIL} + {self._sts_fil_offset(i):#x}], "
                f"R{self.pf_fil + i};"
            )
        return lines

    def sts_input_stream(self) -> list[str]:
        """The ITF outputs into the (elements, bc, bn) input buffer.

        The tile-major ablation stores (bc, bn, elements) instead.
        """
        if self.t.smem_layout == "transposed":
            stride = BC * BN * 4
        else:
            stride = 4
        return [
            f"{_ctl(rbar=4)} STS [R{self.STS_IN} + {e * stride:#x}], "
            f"R{self.itf_out + e};"
            for e in range(self.TILE.elements)
        ]

    # ------------------------------------------------------------------
    # One staging phase: prefetch → (wait) → ITF → STS → BAR → first
    # fragments.  Used standalone in the prologue; inside the loop the
    # same streams are woven into the FFMA stream instead.
    # ------------------------------------------------------------------
    def staging_phase(self) -> list[str]:
        L = list(self.ldg_stream())
        L += self.advance_pointers()
        L += self.itf_stream()
        L += self.sts_filter_stream()
        L += self.sts_input_stream()
        L.append("BAR.SYNC;")  # smem ordering is by MIO issue order
        L += self.first_fragments()
        return L

    def advance_pointers(self) -> list[str]:
        # 64-bit pointer bumps: base + 1·step via IMAD.WIDE (TMP2 holds 1;
        # the base may be "negative" at the padding edge, see prologue).
        p = self.prob
        in_step = BC * p.h * p.w * p.n * 4
        fil_step = BC * self.TILE.elements * p.k * 4
        one = self.TMP[2]
        return [
            f"IMAD.WIDE R{self.PTR_IN}, R{one}, {in_step:#x}, R{self.PTR_IN};",
            f"IMAD.WIDE R{self.PTR_FIL}, R{one}, {fil_step:#x}, R{self.PTR_FIL};",
        ]

    def _loop_tail(self) -> list[str]:
        """Bump the pointers, count the trip, and load the next trip's
        first fragments under the trip predicate."""
        pred = self.LOOP_PRED
        L = self.advance_pointers()
        L.append(f"IADD3 R{self.ITER}, R{self.ITER}, -1, RZ;")
        L.append(f"ISETP.NE.AND {pred}, PT, R{self.ITER}, RZ, PT;")
        L.append("BAR.SYNC;")
        L += [_predicate(line, pred) for line in self.first_fragments()]
        L.append(f"@{pred} BRA MAIN_LOOP;")
        return L

    # ------------------------------------------------------------------
    # Whole-kernel assembly
    # ------------------------------------------------------------------
    def source(self, main_loop_only: bool = False, iters: int | None = None) -> str:
        header = [
            f".kernel {self.kernel_name}",
            f".registers {self.num_regs}",
            f".smem {self.launch_smem_bytes}",
        ] + [f".param 8 {name}" for name in self.PARAMS]
        body = self.prologue()
        if iters is not None:
            body.append(f"MOV R{self.ITER}, {iters:#x};")
        body += self.staging_phase()
        body.append("MAIN_LOOP:")
        body += self.loop_body()
        body += ["EXIT;"] if main_loop_only else self.epilogue()
        lines = apply_yield_strategy(body, self.t.yield_strategy)
        return "\n".join(header + lines)

    def build(
        self, main_loop_only: bool = False, iters: int | None = None
    ) -> AssembledKernel:
        return assemble(self.source(main_loop_only, iters), auto_schedule=True)

    # ------------------------------------------------------------------
    # Launch helpers
    # ------------------------------------------------------------------
    @property
    def grid(self) -> tuple[int, int]:
        return (self.total_tiles // BN, self.prob.k // self.bk)

    def alloc_buffers(self, gmem, x_chwn: np.ndarray, f_transformed: np.ndarray):
        """Allocate padded device buffers; returns (params, out_ptr).

        One extra ``bc`` channel block of zeros pads the input and the
        transformed filter so the final iteration's prefetch never reads
        past the arrays (the kernel prefetches unconditionally and the
        prefetched data is simply never consumed).
        """
        p, alpha = self.prob, self.TILE.alpha
        pad_in = np.zeros((BC, p.h, p.w, p.n), dtype=np.float32)
        pad_fil = np.zeros((BC, alpha, alpha, p.k), dtype=np.float32)
        in_ptr = gmem.alloc_array(
            np.concatenate([x_chwn.astype(np.float32), pad_in], axis=0)
        )
        fil_ptr = gmem.alloc_array(
            np.concatenate([f_transformed.astype(np.float32), pad_fil], axis=0),
            l2_resident=True,
        )
        out_ptr = gmem.alloc(p.k * p.out_h * p.out_w * p.n * 4)
        params = {"in_ptr": in_ptr, "fil_ptr": fil_ptr, "out_ptr": out_ptr}
        return params, out_ptr


class WinogradF22Kernel(WinogradFusedKernel):
    """The paper's F(2×2, 3×3) kernel (§3-§4): bk ∈ {32, 64}."""

    TILE = TILE_F22
    LOOP_PRED = "P5"

    @staticmethod
    def _check_tunables(tunables: Tunables) -> None:
        if tunables.bk not in (32, 64):
            raise ConvConfigError(
                "the F(2×2) kernel implements bk=32 or bk=64, "
                f"got bk={tunables.bk}"
            )

    def __init__(self, prob: ConvProblem, tunables: Tunables | None = None):
        super().__init__(prob, tunables)
        self.depth = self.t.double_buffer
        self.cols = self.bk // 8  # filter columns per thread per GEMM (8 or 4)

        # ---- register map (Table 5) ---------------------------------------
        self.n_acc = 2 * 8 * self.cols  # 128 (bk=64) / 64 (bk=32)
        self.frag_block = 2 * 8 + 2 * self.cols  # in(16) + fil(16/8)
        self.cur = [self.n_acc, self.n_acc + self.frag_block]  # ping-pong bases
        self.pf_fil = self.n_acc + 2 * self.frag_block
        self.n_pf_fil = 16 * (2 if self.bk == 64 else 1)
        self.pf_in = self.pf_fil + self.n_pf_fil
        self.scratch = self.pf_fil  # prologue scratch: the filter prefetch
        scal = self.pf_in + 16
        self.PTR_IN = scal  # 64-bit pair (even-aligned by construction)
        self.PTR_FIL = scal + 2  # pair
        self.ITER = scal + 4
        self.MASK = scal + 5
        self.STS_IN = scal + 6
        self.STS_FIL = scal + 7
        self.LDS_IN = scal + 8
        self.LDS_FIL = scal + 9
        self.TMP = (scal + 10, scal + 11, scal + 12)
        self.num_regs = scal + 13
        assert self.num_regs <= 253
        assert self.PTR_IN % 2 == 0

        # ---- shared memory map (Table 4 / Table 7) -------------------------
        self.smem_fil_base = 0
        self.smem_fil_bytes = 16 * BC * self.bk * 4  # 32 KB at bk=64
        self.smem_in_base = self.smem_fil_bytes
        self.smem_in_bytes = 16 * BC * BN * 4  # 16 KB
        # The paper's block uses 48 KB whichever layout; the OTF transpose
        # buffer reuses this allocation (§4.4).  The paper pads rows to 40
        # floats (Table 4: (16, 2, 8, 40)) with the Fig. 5 interleave; this
        # generator reaches the same goal — conflict-free transpose stores
        # — with a 33-float row stride plus a bit-swapped k index (the
        # ``perm(k) = (k>>2) + c_width·(k&3)`` permutation), which makes a
        # store's bank = c' + c_width·j + t (mod 32): injective over the
        # active lanes.
        self.smem_bytes = self.smem_fil_bytes + self.smem_in_bytes
        self.otf_row_floats = 33

    @property
    def launch_smem_bytes(self) -> int:
        """Shared memory the launch reserves (main buffers or OTF buffer,
        whichever is larger) — the ``.smem`` header value."""
        return max(self.smem_bytes, 16 * 2 * 8 * self.otf_row_floats * 4)

    # ------------------------------------------------------------------
    # Register helpers
    # ------------------------------------------------------------------
    def acc(self, g: int, i: int, j: int) -> int:
        return g * (8 * self.cols) + j * 8 + i

    def in_frag(self, blk: int, g: int, i: int) -> int:
        return self.cur[blk] + g * 8 + i

    def fil_frag(self, blk: int, g: int, j: int) -> int:
        return self.cur[blk] + 16 + g * self.cols + j

    # ------------------------------------------------------------------
    # FFMA block for one k-step (the Fig. 4 ordering with .reuse)
    # ------------------------------------------------------------------
    def ffma_step(self, blk: int) -> list[str]:
        lines = []
        for g in range(2):
            for j in range(self.cols):
                first = 1 if j % 2 == 0 else 0  # §4.3: even cols start odd row
                fil = self.fil_frag(blk, g, j)
                for pair in range(4):
                    i0 = 2 * pair + first
                    i1 = 2 * pair + (1 - first)
                    a0, a1 = self.acc(g, i0, j), self.acc(g, i1, j)
                    r0, r1 = self.in_frag(blk, g, i0), self.in_frag(blk, g, i1)
                    lines.append(f"FFMA R{a0}, R{r0}, R{fil}.reuse, R{a0};")
                    lines.append(f"FFMA R{a1}, R{r1}, R{fil}, R{a1};")
        return lines

    # ------------------------------------------------------------------
    # Fragment loads for one k-step (Fig. 3 lane map baked into LDS bases)
    # ------------------------------------------------------------------
    def lds_step(self, blk: int, kk: int) -> list[str]:
        """Load k-step ``kk`` fragments into register block ``blk``."""
        bar = 2 + blk  # B2 for block 0, B3 for block 1
        lines = []
        if self.t.smem_layout == "transposed":
            for g in range(2):
                for h in range(2):
                    imm = kk * 128 + h * 64 + g * 8192
                    dest = self.in_frag(blk, g, 4 * h)
                    lines.append(
                        f"{_ctl(wbar=bar)} LDS.128 R{dest}, "
                        f"[R{self.LDS_IN} + {imm:#x}];"
                    )
        else:  # tile_major ablation: strided scalar loads, 4-way conflicts
            for g in range(2):
                for h in range(2):
                    for i in range(4):
                        imm = kk * 2048 + (16 * h + i) * 64 + g * 32
                        dest = self.in_frag(blk, g, 4 * h + i)
                        lines.append(
                            f"{_ctl(wbar=bar)} LDS.32 R{dest}, "
                            f"[R{self.LDS_IN} + {imm:#x}];"
                        )
        fil_halves = 2 if self.bk == 64 else 1
        for g in range(2):
            for h in range(fil_halves):
                # (16, bc, bk) floats: +kk → bk floats; +8 e's for GEMM 1.
                imm = kk * (self.bk * 4) + h * 128 + g * (8 * BC * self.bk * 4)
                dest = self.fil_frag(blk, g, 4 * h)
                lines.append(
                    f"{_ctl(wbar=bar)} LDS.128 R{dest}, "
                    f"[R{self.LDS_FIL} + {imm:#x}];"
                )
        return lines

    def first_fragments(self) -> list[str]:
        return self.lds_step(0, 0)

    # ------------------------------------------------------------------
    # Filter staging: register t2·16 + e holds element e of channel
    # group t2 (channels +4 at bk=64).
    # ------------------------------------------------------------------
    def _fil_row(self, i: int) -> int:
        """CR'S'K row of filter prefetch register *i*: e + 64·t2."""
        return i % 16 + 64 * (i // 16)

    def _sts_fil_offset(self, i: int) -> int:
        # (16, bc, bk) floats: +e → bc·bk floats; +4 channels → 4·bk.
        return (i % 16) * (BC * self.bk * 4) + (i // 16) * (4 * self.bk * 4)

    # ------------------------------------------------------------------
    # ITF: 32 FADDs, BᵀIB on the prefetched tile (§4.2).
    # ------------------------------------------------------------------
    @property
    def itf_out(self) -> int:
        """Base of the 16 ITF scratch registers (the BᵀIB outputs).

        Depth 2: the ITF runs during step 7, which computes from block 1,
        so block 0's input fragments are dead and serve as scratch.
        Depth 1: every step reads block 0, so the otherwise-unused
        block-1 input fragments are the scratch instead.
        """
        return self.in_frag(0 if self.depth == 2 else 1, 0, 0)

    def itf_stream(self) -> list[str]:
        """BᵀIB on the prefetched tile, into scratch registers.

        The prefetch registers are read-only here: their statically
        masked (implicit-zero) elements must stay zero across every
        iteration, since the predicated LDGs never write them (§3.5).
        The column pass writes the ``itf_out`` fragment registers (dead
        during step 7); the row pass finishes in place with one temp.
        """
        d = lambda x, y: self.pf_in + 4 * x + y
        s = lambda x, y: self.itf_out + 4 * x + y  # 16 scratch regs
        tmp = self.TMP[0]
        lines = []
        first = _ctl(wait=1 << 0)  # wait B0: prefetched input landed
        # Column pass: S = BᵀI  (rows: d0-d2, d1+d2, d2-d1, d1-d3).
        for y in range(4):
            ctl = first if y == 0 else ""
            lines.append(f"{ctl} FADD R{s(0, y)}, R{d(0, y)}, -R{d(2, y)};".strip())
            lines.append(f"FADD R{s(1, y)}, R{d(1, y)}, R{d(2, y)};")
            lines.append(f"FADD R{s(2, y)}, R{d(2, y)}, -R{d(1, y)};")
            lines.append(f"FADD R{s(3, y)}, R{d(1, y)}, -R{d(3, y)};")
        # Row pass in place: per row, save s1 then s0-s2, s1+s2, s2-s1, s1-s3.
        for x in range(4):
            lines.append(f"FADD R{tmp}, R{s(x, 1)}, RZ;")
            lines.append(f"FADD R{s(x, 0)}, R{s(x, 0)}, -R{s(x, 2)};")
            lines.append(f"FADD R{s(x, 1)}, R{s(x, 1)}, R{s(x, 2)};")
            lines.append(f"FADD R{s(x, 2)}, R{s(x, 2)}, -R{tmp};")
            lines.append(f"FADD R{s(x, 3)}, R{tmp}, -R{s(x, 3)};")
        return lines

    # ------------------------------------------------------------------
    # Operand bases (filter pointer, STS and Fig. 3 LDS bases)
    # ------------------------------------------------------------------
    def _emit_operand_bases(self, L, T) -> None:
        p = self.prob
        # Filter base: fil_ptr + 4·(cf·16·K + kb·bk + kk).
        kk_mask = self.bk - 1
        kk_shift = 6 if self.bk == 64 else 5
        L.append(f"LOP3.AND R{T(8)}, R{T(0)}, {kk_mask:#x}, RZ;")  # kk
        L.append(f"SHF.R.U32 R{T(12)}, R{T(0)}, {kk_shift:#x}, RZ;")  # cf
        L.append(f"IMAD R{T(8)}, R{T(3)}, {self.bk:#x}, R{T(8)};")  # + kb·bk
        L.append(f"IMAD R{T(8)}, R{T(12)}, {16 * p.k:#x}, R{T(8)};")
        self._emit_param_address(L, self.PTR_FIL, 1, T(8))

        # STS base addresses.
        L.append(f"IMAD R{T(8)}, R{T(4)}, 0x20, R{T(1)};")  # ci·32 + tile
        if self.t.smem_layout == "transposed":
            L.append(f"SHF.L.U32 R{T(8)}, R{T(8)}, 0x2, RZ;")
        else:  # tile-major: (ci·32 + tile)·16 floats
            L.append(f"SHF.L.U32 R{T(8)}, R{T(8)}, 0x6, RZ;")
        L.append(f"IADD3 R{self.STS_IN}, R{T(8)}, {self.smem_in_base:#x}, RZ;")
        L.append(f"LOP3.AND R{T(8)}, R{T(0)}, {kk_mask:#x}, RZ;")
        L.append(f"SHF.R.U32 R{T(12)}, R{T(0)}, {kk_shift:#x}, RZ;")
        L.append(f"IMAD R{T(8)}, R{T(12)}, {self.bk:#x}, R{T(8)};")  # cf·bk + kk
        L.append(f"SHF.L.U32 R{self.STS_FIL}, R{T(8)}, 0x2, RZ;")

        # Fragment LDS bases (Fig. 3: r = (sub&1) + 2·quad, c = sub>>1).
        L.append(f"LOP3.AND R{T(8)}, R{T(1)}, 0xf, RZ;")  # sub
        L.append(f"SHF.R.U32 R{T(12)}, R{T(1)}, 0x4, RZ;")  # quad
        L.append(f"SHF.R.U32 R{T(13)}, R{T(8)}, 0x1, RZ;")  # c
        L.append(f"LOP3.AND R{T(14)}, R{T(8)}, 0x1, RZ;")
        L.append(f"IMAD R{T(14)}, R{T(12)}, 0x2, R{T(14)};")  # r
        if self.t.smem_layout == "transposed":
            L.append(f"IMAD R{T(15)}, R{T(4)}, {BC * BN * 4 // 8 * 8:#x}, RZ;")
            L.append(f"IMAD R{T(15)}, R{T(14)}, 0x10, R{T(15)};")  # + 4r floats
        else:  # tile-major: base = (4r·16 + e0)·4 with e0 = warp
            L.append(f"SHF.L.U32 R{T(15)}, R{T(4)}, 0x2, RZ;")  # e0·4 bytes
            L.append(f"IMAD R{T(15)}, R{T(14)}, 0x100, R{T(15)};")
        L.append(
            f"IADD3 R{self.LDS_IN}, R{T(15)}, {self.smem_in_base:#x}, RZ;"
        )
        L.append(f"IMAD R{T(15)}, R{T(4)}, {16 * BC * self.bk * 4 // 16:#x}, RZ;")
        L.append(f"IMAD R{self.LDS_FIL}, R{T(13)}, 0x10, R{T(15)};")

    # ------------------------------------------------------------------
    # Main loop body
    # ------------------------------------------------------------------
    def loop_body(self) -> list[str]:
        """Eight k-steps; at depth d, step k computes from register block
        ``k % d`` and loads step k+1's fragments into block ``(k+1) % d``.

        Depth 2 (the paper's ping-pong) spreads the loads through the
        step's FFMAs (one LDS per ~14 FFMAs) instead of bursting at step
        boundaries: a back-to-back clump of 8 LDS.128 from every warp at
        once would convoy on the shared MIO pipe and stall the in-order
        FFMA streams behind it.  Depth 1 (the §3.4 ablation) issues them
        as a burst *after* the step's FFMAs (in-order issue keeps the
        write-after-read safe: FFMA operands are consumed at issue), so
        each step's first FFMA waits for that burst — the serialization
        the ping-pong register buffers exist to hide.
        """
        d = self.depth
        lds_spacing = max(1, 128 // (len(self.lds_step(0, 0)) + 1))
        L: list[str] = []
        # Steps 0..6: FFMAs + next-step LDS, with the LDG stream woven in.
        steps06: list[str] = []
        for k in range(7):
            blk = k % d
            ffmas = self.ffma_step(blk)
            ffmas[0] = f"{_ctl(wait=1 << (2 + blk))} {ffmas[0]}"
            loads = self.lds_step((k + 1) % d, k + 1)
            steps06 += weave(ffmas, loads, lds_spacing) if d == 2 else ffmas + loads
        steps06 = weave(steps06, self.ldg_stream(), self.t.ldg_interleave)
        L += steps06

        # All shared-memory reads are now *issued*; the in-order MIO pipe
        # serves them before any post-barrier STS, so no scoreboard wait.
        L.append("BAR.SYNC;")

        # Step 7: 128 FFMAs with ITF + STS woven in.
        blk = 7 % d
        step7 = self.ffma_step(blk)
        step7[0] = f"{_ctl(wait=1 << (2 + blk))} {step7[0]}"
        tail = weave(step7, self.itf_stream(), 2)  # ITF as early as possible
        tail = weave(tail, self.sts_filter_stream(), self.t.sts_interleave)
        tail = weave(tail, self.sts_input_stream(), self.t.sts_interleave,
                     start=len(step7) // 2)
        L += tail
        L += self._loop_tail()
        return L

    # ------------------------------------------------------------------
    # Output transform (§4.4): 4 rounds of store → BAR → load+ATÔA → STG.
    # ------------------------------------------------------------------
    def epilogue(self) -> list[str]:
        p = self.prob
        L: list[str] = []
        T = lambda i: self.cur[0] + i  # frag regs are free after the loop
        OUT_LO, OUT_HI = self.PTR_IN, self.PTR_IN + 1  # reuse pointer pair
        ADDR = self.PTR_FIL  # per-store 64-bit address pair
        row = self.otf_row_floats

        # Recompute thread geometry (registers were reused by the loop).
        self._emit_lane_tile(L, T)

        # Output base: out_ptr + 4·(((kb·bk + w)·H' + 2h̃)·W' + 2w̃)·N + n).
        oh, ow = p.out_h, p.out_w
        L.append(f"IMAD R{T(8)}, R{T(3)}, {self.bk:#x}, R{T(4)};")
        L.append(f"IMAD R{T(9)}, R{T(10)}, 0x2, RZ;")  # oy = 2h̃
        L.append(f"IMAD R{T(8)}, R{T(8)}, {oh:#x}, R{T(9)};")
        L.append(f"IMAD R{T(12)}, R{T(11)}, 0x2, RZ;")  # ox = 2w̃
        L.append(f"IMAD R{T(8)}, R{T(8)}, {ow:#x}, R{T(12)};")
        L.append(f"IMAD R{T(8)}, R{T(8)}, {p.n:#x}, R{T(7)};")
        self._emit_param_address(L, OUT_LO, 2, T(8))

        # Edge predicates (the F(2×2) overcompute cropped by stores, §7.3).
        L.append(f"IADD3 R{T(9)}, R{T(9)}, 0x1, RZ;")
        L.append(f"ISETP.LT.AND P1, PT, R{T(9)}, {oh:#x}, PT;")  # row 1 ok
        L.append(f"IADD3 R{T(12)}, R{T(12)}, 0x1, RZ;")
        L.append(f"ISETP.LT.AND P0, PT, R{T(12)}, {ow:#x}, PT;")  # col 1 ok
        # P2 = P0 & P1: clear P2, then under @P1 set it to (false OR P0).
        L.append("ISETP.NE.AND P2, PT, RZ, RZ, PT;")
        L.append("@P1 ISETP.NE.OR P2, PT, RZ, RZ, P0;")

        # Lane sub-coordinates (same as the main loop's Fig. 3 map).
        L.append(f"LOP3.AND R{T(13)}, R{T(1)}, 0xf, RZ;")
        L.append(f"SHF.R.U32 R{T(14)}, R{T(1)}, 0x4, RZ;")
        L.append(f"SHF.R.U32 R{T(15)}, R{T(13)}, 0x1, RZ;")  # c
        L.append(f"LOP3.AND R{T(13)}, R{T(13)}, 0x1, RZ;")
        L.append(f"IMAD R{T(14)}, R{T(14)}, 0x2, R{T(13)};")  # r

        # Read-phase base: (perm(w)·row + lane)·4 with the conflict-free
        # k permutation perm(k) = (k>>2) + c_width·(k&3) (see __init__).
        c_width = 4 if self.bk == 64 else 2
        L.append(f"SHF.R.U32 R{T(13)}, R{T(4)}, 0x2, RZ;")
        L.append(f"LOP3.AND R{T(12)}, R{T(4)}, 0x3, RZ;")
        L.append(f"IMAD R{T(13)}, R{T(12)}, {c_width:#x}, R{T(13)};")  # perm(w)
        L.append(f"IMAD R{T(13)}, R{T(13)}, {row * 4:#x}, RZ;")
        L.append(f"SHF.L.U32 R{T(12)}, R{T(1)}, 0x2, RZ;")
        L.append(f"IADD3 R{T(13)}, R{T(13)}, R{T(12)}, RZ;")  # read base

        rounds = 4
        k_per_round = self.bk // 4
        # Each round handles 1/4 of the k_locals: for bk=64, (j half, c
        # half); for bk=32, a pair of c values.  c_group lanes store.
        c_shift, c_width = (2, 4) if self.bk == 64 else (1, 2)
        for rnd in range(rounds):
            if self.bk == 64:
                jh, ch = rnd >> 1, rnd & 1
                j0 = 4 * jh
            else:
                jh, ch = 0, rnd
                j0 = 0
            # P3: does this thread store in this round?  c_group == ch.
            L.append(f"SHF.R.U32 R{T(12)}, R{T(15)}, {c_shift:#x}, RZ;")
            L.append(f"ISETP.EQ.AND P3, PT, R{T(12)}, {ch:#x}, PT;")
            # Store base with the perm'd k index: word = e·K_r·row +
            # (cc + c_width·j)·row + t, so cc's byte coefficient is row·4.
            L.append(
                f"IADD3 R{T(12)}, R{T(15)}, {(-c_width * ch) & 0xFFFFFFFF:#x}, RZ;"
            )
            L.append(f"IMAD R{T(12)}, R{T(12)}, {row * 4:#x}, RZ;")
            L.append(
                f"IMAD R{T(12)}, R{T(4)}, {k_per_round * row * 4:#x}, R{T(12)};"
            )
            L.append(f"IMAD R{T(12)}, R{T(14)}, 0x10, R{T(12)};")
            for g in range(2):
                for dj in range(4):
                    for i in range(8):
                        a = self.acc(g, i, j0 + dj)
                        t_part = 4 * i if i < 4 else 64 + 4 * (i - 4)
                        imm = (
                            g * (8 * k_per_round * row * 4)
                            + dj * (c_width * row * 4)
                            + t_part
                        )
                        L.append(
                            f"{_ctl(rbar=4)} @P3 STS [R{T(12)} + {imm:#x}], R{a};"
                        )
            L.append("BAR.SYNC;")

            # Read + transform + store, two (k, tile) pairs per thread.
            pairs = 2 if self.bk == 64 else 1
            for pp in range(pairs):
                dregs = self.pf_fil + 16 * pp  # 16 Ô elements
                for e in range(16):
                    # perm(w + 8) = perm(w) + 2, so pair 1 sits 2 rows up.
                    imm = e * (k_per_round * row * 4) + pp * (2 * row * 4)
                    L.append(
                        f"{_ctl(wbar=0)} LDS.32 R{dregs + e}, "
                        f"[R{T(13)} + {imm:#x}];"
                    )
                # OTF: AᵀÔA → 4 outputs (24 FADDs, §2.1).
                m = self.pf_in  # 8 temps
                o = self.pf_in + 8 + 4 * pp  # 4 outputs
                d4 = lambda x, y: dregs + 4 * x + y
                first = True
                for y in range(4):
                    ctl = _ctl(wait=1 << 0) + " " if first else ""
                    first = False
                    L.append(
                        f"{ctl}FADD R{m + y}, R{d4(0, y)}, R{d4(1, y)};"
                    )
                    L.append(f"FADD R{m + y}, R{m + y}, R{d4(2, y)};")
                    L.append(f"FADD R{m + 4 + y}, R{d4(1, y)}, -R{d4(2, y)};")
                    L.append(f"FADD R{m + 4 + y}, R{m + 4 + y}, -R{d4(3, y)};")
                for x in range(2):
                    L.append(f"FADD R{o + 2 * x}, R{m + 4 * x}, R{m + 4 * x + 1};")
                    L.append(
                        f"FADD R{o + 2 * x}, R{o + 2 * x}, R{m + 4 * x + 2};"
                    )
                    L.append(
                        f"FADD R{o + 2 * x + 1}, R{m + 4 * x + 1}, -R{m + 4 * x + 2};"
                    )
                    L.append(
                        f"FADD R{o + 2 * x + 1}, R{o + 2 * x + 1}, -R{m + 4 * x + 3};"
                    )
                # Global stores with crop predicates.
                k_off = k_per_round * rnd + 8 * pp
                k_stride = oh * ow * p.n * 4
                L.append(
                    f"IADD3 R{ADDR}, R{OUT_LO}, {k_off * k_stride:#x}, RZ;"
                )
                L.append(f"MOV R{ADDR + 1}, R{OUT_HI};")
                guards = {(0, 0): "", (0, 1): "@P0 ", (1, 0): "@P1 ", (1, 1): "@P2 "}
                for dy in range(2):
                    for dx in range(2):
                        imm = 4 * (dy * ow + dx) * p.n
                        L.append(
                            f"{_ctl(rbar=5)} {guards[(dy, dx)]}STG.E "
                            f"[R{ADDR} + {imm:#x}], R{o + 2 * dy + dx};"
                        )
            if rnd != rounds - 1:
                L.append("BAR.SYNC;")
        L.append(f"{_ctl(wait=1 << 5)} EXIT;")
        return L


class WinogradF44Kernel(WinogradFusedKernel):
    """Generator + launch helper for the fused F(4×4, 3×3) kernel (§8.1).

    Blocking is the best feasible point from ``perfmodel.f44_study``:
    bk=16 filters × bn=32 tiles × bc=8 channels per block, 256 threads.
    Thread ``t`` owns filter ``kl = t & 15`` and the tile *pair*
    ``{2p, 2p+1}`` with ``p = t >> 4`` — and, unlike the F(2×2) GEMM
    arrangement, **all 36 transformed elements** of those tiles, so the
    output transform runs entirely in registers (72 accumulators, no
    shared-memory transpose buffer).  The 6×6 input window needs a
    36-bit zero-pad mask: two words, rows 0-4 unpacked by ``SHF.R`` +
    ``R2P 0x3f``, row 5 through a cross-word funnel (§3.5 generalized —
    the same split ``repro.winograd.tiling.pack_mask`` models).
    """

    TILE = TILE_F44
    LOOP_PRED = "P6"

    @staticmethod
    def _check_tunables(tunables: Tunables) -> None:
        if (tunables.bk, tunables.smem_layout, tunables.double_buffer) != (
            16, "transposed", 2,
        ):
            raise ConvConfigError(
                "the F(4×4) kernel implements bk=16 (the best feasible "
                "blocking from perfmodel.f44_study), the transposed smem "
                "layout and register ping-pong (double_buffer=2); got "
                f"bk={tunables.bk}, smem_layout={tunables.smem_layout!r}, "
                f"double_buffer={tunables.double_buffer}"
            )

    def __init__(self, prob: ConvProblem, tunables: Tunables | None = None):
        super().__init__(prob, tunables)
        E = self.TILE.elements  # 36
        tf = self.TILE.transform(np.float32)
        self.bt = [[float(v) for v in row] for row in tf.bt]
        self.at = [[float(v) for v in row] for row in tf.at]

        # ---- register map -------------------------------------------------
        # 72 accumulators: acc(e, u) = 2e + u for element e, tile u∈{0,1}.
        self.n_acc = 2 * E
        # Fragment ping-pong: per buffer, 6 input pairs (LDS.64, so the
        # pair base must be even: 72 and 90 both are) + 6 filter scalars.
        self.frag = self.n_acc  # 72
        self.pf_in = self.frag + 36  # 108: the 6×6 predicated prefetch
        self.pf_fil = self.pf_in + E  # 144: 18 filter prefetch regs
        self.n_pf_fil = 18
        self.itf_out = self.pf_fil + self.n_pf_fil  # 162: BᵀdB results (36)
        self.scratch = self.pf_in  # prologue scratch; zeroed after use
        scal = self.itf_out + E  # 198
        self.PTR_IN = scal  # pair (even by construction)
        self.PTR_FIL = scal + 2  # pair
        self.ITER = scal + 4
        self.MASK = scal + 5  # mask word 0 (bits 0-31)
        self.MASK_HI = scal + 6  # mask word 1 (bits 32-35)
        self.STS_IN = scal + 7
        self.STS_FIL = scal + 8
        self.LDS_IN = scal + 9
        self.LDS_FIL = scal + 10
        self.TMP = (scal + 11, scal + 12, scal + 13)
        self.num_regs = scal + 14
        assert self.num_regs <= 253
        assert self.PTR_IN % 2 == 0 and self.frag % 2 == 0

        # ---- shared memory map --------------------------------------------
        # Filter (bc, 36, bk) floats so the flat (c·36+e) staging index is
        # also the store index; input (36, bc, bn) floats so one LDS.64 at
        # [e][c][2p] fetches both of a thread's tiles (8-byte aligned:
        # 2p·4 is a multiple of 8).  No OTF transpose buffer: the main
        # buffers are the whole launch budget.
        self.smem_fil_base = 0
        self.smem_fil_bytes = BC * E * self.bk * 4  # 18 KB
        self.smem_in_base = self.smem_fil_bytes
        self.smem_in_bytes = E * BC * BN * 4  # 36 KB
        self.smem_bytes = self.smem_fil_bytes + self.smem_in_bytes  # 54 KB

    # ------------------------------------------------------------------
    # Register helpers
    # ------------------------------------------------------------------
    def acc(self, e: int, u: int) -> int:
        return 2 * e + u

    def in_frag(self, blk: int, j: int) -> int:
        return self.frag + 18 * blk + 2 * j  # pair for tiles {2p, 2p+1}

    def fil_frag(self, blk: int, j: int) -> int:
        return self.frag + 18 * blk + 12 + j

    # ------------------------------------------------------------------
    # Float linear combinations (the transform emitter)
    # ------------------------------------------------------------------
    @staticmethod
    def _fimm(value: float) -> str:
        return f"{float(value)}"

    def _emit_lincomb(self, lines, dst, terms, ctl="") -> None:
        """dst = Σ coef·R[src] over nonzero (src, coef) terms.

        ±1 coefficients use FADD (with source negation); others carry
        the coefficient as a float immediate in FMUL/FFMA — the
        transform matrices of F(4×4,3×3) only need ±2.0/±4.0/±5.0/±8.0.
        """
        first = True
        for reg, coef in terms:
            if first:
                if coef == 1.0:
                    op = f"FADD R{dst}, R{reg}, RZ;"
                elif coef == -1.0:
                    op = f"FADD R{dst}, -R{reg}, RZ;"
                else:
                    op = f"FMUL R{dst}, R{reg}, {self._fimm(coef)};"
                lines.append(f"{ctl} {op}" if ctl else op)
                first = False
            elif coef == 1.0:
                lines.append(f"FADD R{dst}, R{dst}, R{reg};")
            elif coef == -1.0:
                lines.append(f"FADD R{dst}, R{dst}, -R{reg};")
            else:
                lines.append(
                    f"FFMA R{dst}, R{reg}, {self._fimm(coef)}, R{dst};"
                )

    # ------------------------------------------------------------------
    # Compute streams: one (channel, e-group) step = 12 FFMAs + 12 LDS
    # ------------------------------------------------------------------
    def ffma_group(self, blk: int, g: int) -> list[str]:
        lines = []
        for j in range(6):
            e = 6 * g + j
            fil = self.fil_frag(blk, j)
            i0 = self.in_frag(blk, j)
            a0, a1 = self.acc(e, 0), self.acc(e, 1)
            lines.append(f"FFMA R{a0}, R{i0}, R{fil}.reuse, R{a0};")
            lines.append(f"FFMA R{a1}, R{i0 + 1}, R{fil}, R{a1};")
        return lines

    def lds_group(self, blk: int, c: int, g: int) -> list[str]:
        """Fragments for channel-step *c*, element group *g* (e = 6g..6g+5)."""
        bar = 2 + blk
        lines = []
        for j in range(6):
            e = 6 * g + j
            imm = e * (BC * BN * 4) + c * (BN * 4)
            lines.append(
                f"{_ctl(wbar=bar)} LDS.64 R{self.in_frag(blk, j)}, "
                f"[R{self.LDS_IN} + {imm:#x}];"
            )
        for j in range(6):
            e = 6 * g + j
            imm = c * (self.TILE.elements * self.bk * 4) + e * (self.bk * 4)
            lines.append(
                f"{_ctl(wbar=bar)} LDS.32 R{self.fil_frag(blk, j)}, "
                f"[R{self.LDS_FIL} + {imm:#x}];"
            )
        return lines

    def first_fragments(self) -> list[str]:
        return self.lds_group(0, 0, 0)

    # ------------------------------------------------------------------
    # Filter staging: register i holds flat (c·36+e) index q + 16·i of
    # the thread's filter column, q = t >> 4.
    # ------------------------------------------------------------------
    def _fil_row(self, i: int) -> int:
        return 16 * i

    def _sts_fil_offset(self, i: int) -> int:
        return THREADS * 4 * i  # flat (c·36+e) index advances by 256

    # ------------------------------------------------------------------
    # ITF: BᵀdB on the prefetched 6×6 window, entirely in registers.
    # Column pass scratch = the 36 fragment registers (dead once the
    # last step's FFMAs have issued); outputs land in ``itf_out``.
    # ------------------------------------------------------------------
    def itf_stream(self) -> list[str]:
        d = lambda x, y: self.pf_in + 6 * x + y  # read-only (masked zeros)
        s1 = lambda x, y: self.frag + 6 * x + y
        out = lambda x, y: self.itf_out + 6 * x + y
        lines: list[str] = []
        first_ctl = _ctl(wait=1 << 0)  # prefetched input landed
        for x in range(6):
            for y in range(6):
                terms = [
                    (d(i, y), self.bt[x][i])
                    for i in range(6) if self.bt[x][i] != 0.0
                ]
                ctl = first_ctl if (x == 0 and y == 0) else ""
                self._emit_lincomb(lines, s1(x, y), terms, ctl=ctl)
        for x in range(6):
            for y in range(6):
                terms = [
                    (s1(x, j), self.bt[y][j])
                    for j in range(6) if self.bt[y][j] != 0.0
                ]
                self._emit_lincomb(lines, out(x, y), terms)
        return lines

    # ------------------------------------------------------------------
    # Operand bases: filter column kl = t&15 of row group q = t>>4.
    # ------------------------------------------------------------------
    def _emit_operand_bases(self, L, T) -> None:
        # Filter base: fil_ptr + 4·(q·K + kb·16 + kl), q = t>>4, kl = t&15.
        L.append(f"LOP3.AND R{T(8)}, R{T(0)}, 0xf, RZ;")
        L.append(f"SHF.R.U32 R{T(12)}, R{T(0)}, 0x4, RZ;")
        L.append(f"IMAD R{T(8)}, R{T(3)}, 0x10, R{T(8)};")
        L.append(f"IMAD R{T(8)}, R{T(12)}, {self.prob.k:#x}, R{T(8)};")
        self._emit_param_address(L, self.PTR_FIL, 1, T(8))

        # STS bases: input at 4·(c'·32 + slot); filter at 4·(q·16 + kl).
        L.append(f"IMAD R{T(8)}, R{T(4)}, 0x20, R{T(1)};")
        L.append(f"SHF.L.U32 R{T(8)}, R{T(8)}, 0x2, RZ;")
        L.append(f"IADD3 R{self.STS_IN}, R{T(8)}, {self.smem_in_base:#x}, RZ;")
        L.append(f"LOP3.AND R{T(8)}, R{T(0)}, 0xf, RZ;")
        L.append(f"IMAD R{T(8)}, R{T(12)}, 0x10, R{T(8)};")
        L.append(f"SHF.L.U32 R{self.STS_FIL}, R{T(8)}, 0x2, RZ;")

        # Fragment LDS bases: pair p = t>>4 (8·p into the input buffer),
        # filter column kl = t&15.
        L.append(f"IMAD R{T(13)}, R{T(12)}, 0x8, RZ;")
        L.append(f"IADD3 R{self.LDS_IN}, R{T(13)}, {self.smem_in_base:#x}, RZ;")
        L.append(f"LOP3.AND R{T(13)}, R{T(0)}, 0xf, RZ;")
        L.append(f"SHF.L.U32 R{self.LDS_FIL}, R{T(13)}, 0x2, RZ;")

    # ------------------------------------------------------------------
    # Main loop body: 48 (channel, e-group) steps, ping-pong fragments
    # ------------------------------------------------------------------
    def loop_body(self) -> list[str]:
        L: list[str] = []
        steps: list[str] = []
        for st in range(47):
            c, g = divmod(st, 6)
            blk = st % 2
            ffmas = self.ffma_group(blk, g)
            ffmas[0] = f"{_ctl(wait=1 << (2 + blk))} {ffmas[0]}"
            nc, ng = divmod(st + 1, 6)
            steps += weave(ffmas, self.lds_group(1 - blk, nc, ng), 1)
        steps = weave(steps, self.ldg_stream(), self.t.ldg_interleave)
        L += steps

        # Every fragment read is issued; the in-order MIO pipe serves
        # them before any post-barrier STS.
        L.append("BAR.SYNC;")

        # Step 47 computes from buffer 1.  The ITF reuses *all* fragment
        # registers as scratch, so it runs strictly after these FFMAs
        # (in-order issue: their operands are consumed at issue).
        tail = self.ffma_group(1, 5)
        tail[0] = f"{_ctl(wait=1 << 3)} {tail[0]}"
        L += tail
        L += weave(
            self.itf_stream(), self.sts_filter_stream(), self.t.sts_interleave
        )
        L += self.sts_input_stream()
        L += self._loop_tail()
        return L

    # ------------------------------------------------------------------
    # Epilogue: per-tile register OTF (AᵀMA) + 16 cropped stores
    # ------------------------------------------------------------------
    def epilogue(self) -> list[str]:
        p = self.prob
        L: list[str] = []
        T = lambda i: self.pf_in + i  # prefetch regs are free after the loop
        ADDR = self.PTR_FIL  # per-tile 64-bit output address pair
        s2 = lambda x, y: self.itf_out + 6 * x + y  # 4×6 column-pass output
        o = lambda x, y: self.pf_fil + 4 * x + y  # 4×4 outputs
        oh, ow = p.out_h, p.out_w

        self._emit_thread_ids(L, T, split=4)  # T1 = kl, T4 = tile pair p
        L.append(f"IMAD R{T(5)}, R{T(3)}, 0x10, R{T(1)};")  # k = kb·16 + kl

        for u in range(2):
            # Tile id g = tb·32 + 2p + u → (n, w̃, h̃), output origin.
            L.append(f"IMAD R{T(6)}, R{T(4)}, 0x2, RZ;")
            if u:
                L.append(f"IADD3 R{T(6)}, R{T(6)}, 0x1, RZ;")
            L.append(f"IMAD R{T(6)}, R{T(2)}, 0x20, R{T(6)};")
            self._emit_tile_coords(L, T, g=6, hw=7, n=9)
            L.append(f"IMAD R{T(12)}, R{T(10)}, 0x4, RZ;")  # oy = 4h̃
            L.append(f"IMAD R{T(13)}, R{T(11)}, 0x4, RZ;")  # ox = 4w̃
            L.append(f"IMAD R{T(14)}, R{T(5)}, {oh:#x}, R{T(12)};")
            L.append(f"IMAD R{T(14)}, R{T(14)}, {ow:#x}, R{T(13)};")
            L.append(f"IMAD R{T(14)}, R{T(14)}, {p.n:#x}, R{T(9)};")
            self._emit_param_address(L, ADDR, 2, T(14))

            # Column-crop predicates (column 0 is valid by construction).
            for dx in range(1, 4):
                L.append(f"IADD3 R{T(15)}, R{T(13)}, {dx:#x}, RZ;")
                L.append(
                    f"ISETP.LT.AND P{dx - 1}, PT, R{T(15)}, {ow:#x}, PT;"
                )

            # Column pass S = Aᵀ·M with M[i][y] = acc(6i+y, u).  The
            # first write reuses registers the last iteration's STS read
            # (read barrier B4), so it waits for those stores.
            for x in range(4):
                for y in range(6):
                    terms = [
                        (self.acc(6 * i + y, u), self.at[x][i])
                        for i in range(6) if self.at[x][i] != 0.0
                    ]
                    ctl = (
                        _ctl(wait=1 << 4)
                        if (u == 0 and x == 0 and y == 0) else ""
                    )
                    self._emit_lincomb(L, s2(x, y), terms, ctl=ctl)
            # Row pass O = S·A.  Tile 1 overwrites the registers tile
            # 0's STG.E reads (read barrier B5), so its first write
            # waits for those stores to drain.
            for x in range(4):
                for y in range(4):
                    terms = [
                        (s2(x, j), self.at[y][j])
                        for j in range(6) if self.at[y][j] != 0.0
                    ]
                    ctl = (
                        _ctl(wait=1 << 5)
                        if (u == 1 and x == 0 and y == 0) else ""
                    )
                    self._emit_lincomb(L, o(x, y), terms, ctl=ctl)

            # Cropped stores (the F(4×4) overcompute, §7.3 generalized):
            # row 0 / column 0 always land; rows combine with the column
            # predicates via the clear-then-@OR trick.
            for dy in range(4):
                if dy == 0:
                    guards = ["", "@P0 ", "@P1 ", "@P2 "]
                else:
                    L.append(f"IADD3 R{T(15)}, R{T(12)}, {dy:#x}, RZ;")
                    L.append(
                        f"ISETP.LT.AND P3, PT, R{T(15)}, {oh:#x}, PT;"
                    )
                    for i in range(3):
                        L.append(f"ISETP.NE.AND P{4 + i}, PT, RZ, RZ, PT;")
                        L.append(
                            f"@P{i} ISETP.NE.OR P{4 + i}, PT, RZ, RZ, P3;"
                        )
                    guards = ["@P3 ", "@P4 ", "@P5 ", "@P6 "]
                for dx in range(4):
                    imm = 4 * (dy * ow + dx) * p.n
                    L.append(
                        f"{_ctl(rbar=5)} {guards[dx]}STG.E "
                        f"[R{ADDR} + {imm:#x}], R{o(dy, dx)};"
                    )
        L.append(f"{_ctl(wait=1 << 5)} EXIT;")
        return L


def kernel_for_tile(
    prob: ConvProblem,
    tile: TileSpec | str | None = None,
    tunables: Tunables | None = None,
) -> WinogradFusedKernel:
    """The family generator for *tile*: F(2×2) (default) or F(4×4)."""
    spec = get_tile(tile)
    for cls in (WinogradF22Kernel, WinogradF44Kernel):
        if cls.TILE.m == spec.m:
            return cls(prob, tunables)
    raise ConvConfigError(
        f"no SASS generator for tile family {spec.name!r} "
        f"(F({spec.m}x{spec.m},{spec.r}x{spec.r}))"
    )


def _predicate(line: str, pred: str) -> str:
    """Guard an emitted line with @pred (after any control prefix)."""
    text = line.strip()
    if text.startswith("["):
        end = text.index("]") + 1
        return f"{text[:end]} @{pred} {text[end:].strip()}"
    return f"@{pred} {text}"
