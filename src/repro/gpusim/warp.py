"""Per-warp architectural state.

Registers are held as a (256, 32) uint32 array — one row per register,
one column per lane — so a warp instruction is one vectorized NumPy
operation over its 32 lanes (the SIMT execution model, literally).
R255 is RZ and always reads zero; predicates are a (8, 32) bool array
with P7 = PT pinned true.

This is architectural state only, what the reference engine's
``engine.execute`` reads and writes.  The scheduling state the paper's
SASS-level experiments hinge on (stall timers, the six scoreboard
barriers, the operand reuse cache) belongs to the one SM scheduler,
:func:`repro.gpusim.sm.schedule`.
"""

from __future__ import annotations

import numpy as np

from ..sass.isa import RZ


class WarpState:
    __slots__ = (
        "warp_id",
        "lane_ids",
        "tids",
        "block",
        "pc",
        "regs",
        "preds",
    )

    def __init__(self, warp_id: int, block, num_regs: int = 256):
        self.warp_id = warp_id
        self.block = block
        self.lane_ids = np.arange(32, dtype=np.int32)
        self.tids = warp_id * 32 + self.lane_ids  # threadIdx.x (1-D blocks)
        self.pc = 0
        self.regs = np.zeros((256, 32), dtype=np.uint32)
        self.preds = np.zeros((8, 32), dtype=bool)
        self.preds[7] = True  # PT

    # ---- register access --------------------------------------------------
    def read_reg(self, idx: int) -> np.ndarray:
        return self.regs[idx]

    def read_reg_f32(self, idx: int) -> np.ndarray:
        return self.regs[idx].view(np.float32)

    def write_reg(self, idx: int, values: np.ndarray, mask: np.ndarray) -> None:
        if idx == RZ:
            return
        if mask.all():
            self.regs[idx] = values.astype(np.uint32, copy=False)
        else:
            self.regs[idx][mask] = values.astype(np.uint32, copy=False)[mask]

    def read_addr64(self, base: int) -> np.ndarray:
        """64-bit address from the (base, base+1) register pair."""
        lo = self.regs[base].astype(np.int64)
        hi = self.regs[base + 1].astype(np.int64) if base + 1 < 256 else 0
        return lo | (hi << 32)

    # ---- predicates --------------------------------------------------------
    def read_pred(self, idx: int, negated: bool = False) -> np.ndarray:
        """A copy of predicate ``idx``: an instruction that rewrites the
        predicate it reads (``@P0 R2P`` clearing P0) keeps the value it
        issued with."""
        values = self.preds[idx]
        return ~values if negated else values.copy()

    def write_pred(self, idx: int, values: np.ndarray, mask: np.ndarray) -> None:
        if idx == 7:
            return  # PT is read-only
        self.preds[idx][mask] = values[mask]
