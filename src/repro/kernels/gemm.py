"""SASS generator for 16-way batched GEMM (paper §2.3).

"Batched GEMM is a subproblem of Winograd convolution.  All the
techniques we have developed in Section 4.3 can be applied to batched
GEMM."  This kernel is that statement made executable: it is the
Winograd kernel's EWMM machinery — the Fig. 3 lane arrangement, the
Fig. 4 register plan with ``.reuse``, the software pipelining and the
§6 scheduling — with the Winograd-specific parts (input transform,
zero-padding masks, output transform) removed.

Computes, for every batch e:

    C[e, m, n] = Σ_kd  A[e, kd, m] · B[e, kd, n]

with both operands K-major ("TN" GEMM), the exact shape of the EWMM
step (Eq. 9).  Layouts are chosen for coalescing like the paper's
Table 4: A is (Kd, E, M) with m fastest, B is (Kd, E, N) with n
fastest, C is (E, M, N).

Each thread block handles 16 consecutive batches and a 64×32 (M×N)
tile; grid = (E/16, (M/64)·(N/32)).
"""

from __future__ import annotations

import numpy as np

from ..common.errors import ConvConfigError
from .winograd_fused import (
    BC,
    Tunables,
    WinogradF22Kernel,
    WinogradFusedKernel,
    _ctl,
)

E_PER_BLOCK = 16
BM = 64  # M tile per block (the Winograd bk)
BN_GEMM = 32  # N tile per block (the Winograd bn)


class BatchedGemmKernel(WinogradF22Kernel):
    """Batched-GEMM kernel built from the Winograd kernel's machinery.

    Inherits the F(2×2) generator's EWMM steps, loop body, filter
    staging, source and build; replaces its prologue, operand streams
    and epilogue.
    """

    kernel_name = "batched_gemm"
    PARAMS = ("a_ptr", "b_ptr", "c_ptr")

    def __init__(
        self,
        batch: int,
        m: int,
        n: int,
        kd: int,
        tunables: Tunables | None = None,
    ):
        tunables = tunables or Tunables()
        if tunables.bk != 64:
            raise ConvConfigError("the batched-GEMM kernel uses the bk=64 plan")
        if tunables.smem_layout != "transposed":
            raise ConvConfigError("the batched-GEMM kernel uses the Table-4 layout")
        if batch % E_PER_BLOCK:
            raise ConvConfigError(f"batch must be a multiple of {E_PER_BLOCK}")
        if m % BM or n % BN_GEMM or kd % BC:
            raise ConvConfigError(
                f"need M % {BM} == 0, N % {BN_GEMM} == 0, Kd % {BC} == 0"
            )
        # Deliberately skip WinogradF22Kernel.__init__ (no ConvProblem);
        # replicate only the resource map it would have produced.
        self.t = tunables
        self.depth = tunables.double_buffer
        self.bk = 64
        self.cols = 8
        self.batch, self.m, self.n, self.kd = batch, m, n, kd
        self.iters = kd // BC

        self.n_acc = 128
        self.frag_block = 32
        self.cur = [128, 160]
        self.pf_fil = 192  # A prefetch (32 regs)
        self.n_pf_fil = 32
        self.pf_in = 224  # B prefetch (16 regs)
        scal = 240
        self.PTR_IN = scal  # B pointer pair
        self.PTR_FIL = scal + 2  # A pointer pair
        self.ITER = scal + 4
        self.MASK = scal + 5  # unused (no zero padding); kept for layout parity
        self.STS_IN = scal + 6
        self.STS_FIL = scal + 7
        self.LDS_IN = scal + 8
        self.LDS_FIL = scal + 9
        self.TMP = (scal + 10, scal + 11, scal + 12)
        self.num_regs = scal + 13

        self.smem_fil_base = 0
        self.smem_fil_bytes = 16 * BC * 64 * 4
        self.smem_in_base = self.smem_fil_bytes
        self.smem_in_bytes = 16 * BC * 32 * 4
        self.smem_bytes = self.smem_fil_bytes + self.smem_in_bytes

    # No OTF transpose buffer: the main buffers are the whole launch budget.
    launch_smem_bytes = WinogradFusedKernel.launch_smem_bytes

    # ------------------------------------------------------------------
    @property
    def grid(self) -> tuple[int, int]:
        return (self.batch // E_PER_BLOCK, (self.m // BM) * (self.n // BN_GEMM))

    @property
    def ntiles_n(self) -> int:
        return self.n // BN_GEMM

    # ------------------------------------------------------------------
    # Streams (override the Winograd-specific ones)
    # ------------------------------------------------------------------
    def ldg_stream(self) -> list[str]:
        """Prefetch the next iteration's A (32 loads) and B (16 loads)."""
        lines = []
        first = True
        for t2 in range(2):
            for e in range(16):
                # (Kd, E, M): +e → M floats; the second tile is 4 kd rows up.
                imm = 4 * self.m * e + t2 * (4 * self.batch * self.m * 4)
                wait = 1 << 4 if first else 0
                first = False
                lines.append(
                    f"{_ctl(wait=wait, wbar=1)} LDG.E "
                    f"R{self.pf_fil + 16 * t2 + e}, [R{self.PTR_FIL} + {imm:#x}];"
                )
        for e in range(16):
            imm = 4 * self.n * e
            lines.append(
                f"{_ctl(wbar=0)} LDG.E R{self.pf_in + e}, "
                f"[R{self.PTR_IN} + {imm:#x}];"
            )
        return lines

    def itf_stream(self) -> list[str]:
        return []  # plain GEMM: nothing to transform

    def sts_input_stream(self) -> list[str]:
        lines = []
        for e in range(16):
            imm = e * (BC * BN_GEMM * 4)
            wait = 1 << 0 if e == 0 else 0  # B prefetch landed
            lines.append(
                f"{_ctl(wait=wait, rbar=4)} STS "
                f"[R{self.STS_IN} + {imm:#x}], R{self.pf_in + e};"
            )
        return lines

    def advance_pointers(self) -> list[str]:
        a_step = BC * self.batch * self.m * 4
        b_step = BC * self.batch * self.n * 4
        one = self.TMP[2]
        return [
            f"IMAD.WIDE R{self.PTR_FIL}, R{one}, {a_step:#x}, R{self.PTR_FIL};",
            f"IMAD.WIDE R{self.PTR_IN}, R{one}, {b_step:#x}, R{self.PTR_IN};",
        ]

    # ------------------------------------------------------------------
    def prologue(self) -> list[str]:
        L: list[str] = []
        T = lambda i: self.pf_fil + i
        # T2 = batch group eg, T3 = tile index ty, T1/T4 = lane/warp.
        self._emit_thread_ids(L, T)

        # Tile decomposition: mi = ty / ntiles_n, ni = ty % ntiles_n.
        self._emit_udiv(L, T(5), T(3), self.ntiles_n, T(8))
        self._emit_mod(L, T(6), T(3), T(5), self.ntiles_n)

        # A base: a_ptr + 4·((ci_a·E + eg·16)·M + mi·64 + (tid&63)).
        L.append(f"LOP3.AND R{T(7)}, R{T(0)}, 0x3f, RZ;")
        L.append(f"SHF.R.U32 R{T(9)}, R{T(0)}, 0x6, RZ;")  # ci_a
        L.append(f"IMAD R{T(10)}, R{T(9)}, {self.batch:#x}, RZ;")
        L.append(f"IMAD R{T(10)}, R{T(2)}, 0x10, R{T(10)};")  # + eg·16
        L.append(f"IMAD R{T(10)}, R{T(10)}, {self.m:#x}, R{T(7)};")
        L.append(f"IMAD R{T(10)}, R{T(5)}, 0x40, R{T(10)};")  # + mi·64
        self._emit_param_address(L, self.PTR_FIL, 0, T(10))

        # B base: b_ptr + 4·((ci_b·E + eg·16)·N + ni·32 + lane).
        L.append(f"SHF.R.U32 R{T(9)}, R{T(0)}, 0x5, RZ;")  # ci_b
        L.append(f"IMAD R{T(10)}, R{T(9)}, {self.batch:#x}, RZ;")
        L.append(f"IMAD R{T(10)}, R{T(2)}, 0x10, R{T(10)};")
        L.append(f"IMAD R{T(10)}, R{T(10)}, {self.n:#x}, R{T(1)};")
        L.append(f"IMAD R{T(10)}, R{T(6)}, 0x20, R{T(10)};")  # + ni·32
        self._emit_param_address(L, self.PTR_IN, 1, T(10))

        # STS bases: A → (e, ci_a, 64), B → (e, ci_b, 32) (Table-4 shapes).
        L.append(f"SHF.R.U32 R{T(9)}, R{T(0)}, 0x6, RZ;")
        L.append(f"IMAD R{T(10)}, R{T(9)}, 0x40, R{T(7)};")
        L.append(f"SHF.L.U32 R{self.STS_FIL}, R{T(10)}, 0x2, RZ;")
        L.append(f"SHF.R.U32 R{T(9)}, R{T(0)}, 0x5, RZ;")
        L.append(f"IMAD R{T(10)}, R{T(9)}, 0x20, R{T(1)};")
        L.append(f"SHF.L.U32 R{T(10)}, R{T(10)}, 0x2, RZ;")
        L.append(f"IADD3 R{self.STS_IN}, R{T(10)}, {self.smem_in_base:#x}, RZ;")

        # Fragment LDS bases: identical to the Winograd kernel (Fig. 3).
        L.append(f"LOP3.AND R{T(8)}, R{T(1)}, 0xf, RZ;")
        L.append(f"SHF.R.U32 R{T(12)}, R{T(1)}, 0x4, RZ;")
        L.append(f"SHF.R.U32 R{T(13)}, R{T(8)}, 0x1, RZ;")  # c
        L.append(f"LOP3.AND R{T(14)}, R{T(8)}, 0x1, RZ;")
        L.append(f"IMAD R{T(14)}, R{T(12)}, 0x2, R{T(14)};")  # r
        L.append(f"IMAD R{T(15)}, R{T(4)}, {BC * BN_GEMM * 4:#x}, RZ;")
        L.append(f"IMAD R{T(15)}, R{T(14)}, 0x10, R{T(15)};")
        L.append(f"IADD3 R{self.LDS_IN}, R{T(15)}, {self.smem_in_base:#x}, RZ;")
        L.append(f"IMAD R{T(15)}, R{T(4)}, {BC * BM * 4:#x}, RZ;")
        L.append(f"IMAD R{self.LDS_FIL}, R{T(13)}, 0x10, R{T(15)};")

        for r in range(self.n_acc):
            L.append(f"MOV R{r}, RZ;")
        L.append(f"MOV R{self.ITER}, {self.iters:#x};")
        L.append(f"MOV R{self.TMP[2]}, 0x1;")
        return L

    # ------------------------------------------------------------------
    def epilogue(self) -> list[str]:
        """Store the 2×64 accumulators directly to C (E, M, N).

        No transpose round is needed: C's natural layout accepts the
        register tile directly.  Warp lanes scatter over 8 m-rows, so
        stores coalesce at 16-byte granularity rather than 128 — the
        price the Winograd kernel's OTF transpose avoids for its own
        output; acceptable here since GEMM stores once per (M·N·Kd/8)
        FFMAs.
        """
        L: list[str] = []
        T = lambda i: self.cur[0] + i
        self._emit_thread_ids(L, T)
        self._emit_udiv(L, T(5), T(3), self.ntiles_n, T(8))
        self._emit_mod(L, T(6), T(3), T(5), self.ntiles_n)
        # Lane map (Fig. 3): c = (lane&15)>>1, r = (lane&1) + 2·(lane>>4).
        L.append(f"LOP3.AND R{T(8)}, R{T(1)}, 0xf, RZ;")
        L.append(f"SHF.R.U32 R{T(12)}, R{T(1)}, 0x4, RZ;")
        L.append(f"SHF.R.U32 R{T(13)}, R{T(8)}, 0x1, RZ;")
        L.append(f"LOP3.AND R{T(14)}, R{T(8)}, 0x1, RZ;")
        L.append(f"IMAD R{T(14)}, R{T(12)}, 0x2, R{T(14)};")

        # Base for e0 = warp: ((e0 + eg·16)·M + mi·64 + 4c)·N + ni·32 + 4r.
        L.append(f"IMAD R{T(9)}, R{T(2)}, 0x10, R{T(4)};")
        L.append(f"IMAD R{T(9)}, R{T(9)}, {self.m:#x}, RZ;")
        L.append(f"IMAD R{T(9)}, R{T(5)}, 0x40, R{T(9)};")
        L.append(f"IMAD R{T(10)}, R{T(13)}, 0x4, R{T(9)};")  # + 4c
        L.append(f"IMAD R{T(10)}, R{T(10)}, {self.n:#x}, RZ;")
        L.append(f"IMAD R{T(10)}, R{T(6)}, 0x20, R{T(10)};")
        L.append(f"IMAD R{T(11)}, R{T(14)}, 0x4, R{T(10)};")  # + 4r
        ADDR = self.PTR_FIL
        self._emit_param_address(L, ADDR, 2, T(11))

        # Per-GEMM-1 base: e0+8 → +8·M·N elements (too large for an imm).
        ADDR2 = self.PTR_IN
        L.append(f"MOV R{T(15)}, 0x1;")
        L.append(f"MOV R{ADDR2}, R{ADDR};")
        L.append(f"MOV R{ADDR2 + 1}, R{ADDR + 1};")
        L.append(
            f"IMAD.WIDE R{ADDR2}, R{T(15)}, {8 * self.m * self.n * 4:#x}, R{ADDR2};"
        )
        for g, base in ((0, ADDR), (1, ADDR2)):
            for j in range(8):
                m_off = j if j < 4 else 32 + (j - 4)
                for i in range(8):
                    n_off = i if i < 4 else 16 + (i - 4)
                    imm = 4 * (m_off * self.n + n_off)
                    L.append(
                        f"{_ctl(rbar=5)} STG.E [R{base} + {imm:#x}], "
                        f"R{self.acc(g, i, j)};"
                    )
        L.append(f"{_ctl(wait=1 << 5)} EXIT;")
        return L

    # ------------------------------------------------------------------
    # Host-side helpers
    # ------------------------------------------------------------------
    def reference(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """NumPy oracle: C[e] = A[:, e, :]ᵀ-style contraction over kd."""
        # a: (Kd, E, M), b: (Kd, E, N) → c: (E, M, N)
        return np.einsum("kem,ken->emn", a, b, optimize=True).astype(np.float32)

    def alloc_buffers(self, gmem, a: np.ndarray, b: np.ndarray):
        pad_a = np.zeros((BC, self.batch, self.m), dtype=np.float32)
        pad_b = np.zeros((BC, self.batch, self.n), dtype=np.float32)
        a_ptr = gmem.alloc_array(np.concatenate([a.astype(np.float32), pad_a]))
        b_ptr = gmem.alloc_array(np.concatenate([b.astype(np.float32), pad_b]))
        c_ptr = gmem.alloc(4 * self.batch * self.m * self.n)
        return {"a_ptr": a_ptr, "b_ptr": b_ptr, "c_ptr": c_ptr}, c_ptr
