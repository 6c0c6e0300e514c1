"""Shared-memory bank-conflict and alignment pass (§4.3-§4.4).

The paper's Table 4 layout, Fig. 3 lane arrangement and Fig. 5 transpose
interleave exist to make every LDS/STS in the kernel conflict-free on
the 32-bank × 4-byte shared memory.  This pass proves those properties
*statically*: it symbolically executes the integer/address portion of
the instruction stream for every warp — seeding ``S2R SR_TID.X`` with
the warps' concrete thread ids and evaluating IMAD/IADD3/LOP3/SHF/ISETP/...
with :mod:`repro.sass.hw`'s lane arithmetic, which the simulator's fast
engine executes too — and then checks every shared access against the
phase/bank rule the fast engine charges cycles with
(:func:`repro.sass.hw.bank_phases`), all warps of an access in one call.

Registers whose values depend on memory contents or kernel parameters
become *unknown* and poison anything computed from them; shared-memory
addressing in the paper's kernels is a pure function of ``threadIdx``,
so the evaluator resolves every access.  Accesses with unknown
addresses are skipped and summarized in one info diagnostic.

Rules:

* ``SM001`` (warning) — an n-way bank conflict: distinct 32-bit words in
  the same bank within one access phase serialize (n−1 extra MIO cycles
  per phase);
* ``SM002`` (error) — a lane's address is not aligned to the access
  width (requirement (ii) of §4.3; the hardware faults);
* ``SM003`` (error) — an access falls outside the ``.smem`` window
  declared by the kernel;
* ``SM004`` (info) — accesses whose addresses could not be resolved
  statically (count, for auditability).

Control flow is handled linearly: backward branches are not re-executed
(loop bodies recompute nothing that shared addressing depends on — base
registers are loop-invariant in all generated kernels), and lanes masked
off by a statically known guard predicate are excluded exactly as the
hardware excludes them.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator

import numpy as np

from .. import hw
from ..instruction import Instruction
from ..isa import RZ, SPECIAL_REGISTERS, width_of
from ..operands import Const, Imm, Pred, Reg
from .base import AnalysisContext, AnalysisPass
from .diagnostics import Diagnostic, Severity

_U32 = np.uint32

_FULL_MASK = np.ones(32, dtype=bool)
_FULL_MASK.setflags(write=False)  # shared by every unguarded step
_CTAID = (np.zeros(32, dtype=_U32),) * 3  # 1-D blocks, block (0, 0, 0)


# ---------------------------------------------------------------------------
# Symbolic per-warp evaluation
# ---------------------------------------------------------------------------


class _WarpEval:
    """Concrete lane evaluation with unknown-poisoning, all warps at once.

    Register and predicate files hold either a lane vector or None
    (unknown).  Values broadcast against ``(num_warps, 32)`` — a
    warp-invariant value stays ``(32,)`` — so one pass evaluates every
    warp in lockstep.  The lane arithmetic is :mod:`repro.sass.hw`'s,
    the functions the fast engine replays kernels with; this class adds
    only what linting needs: a linear walk, unknown-poisoning and guard
    masks.
    """

    def __init__(self, num_warps: int):
        self.nw = num_warps
        self.lanes = np.arange(32, dtype=_U32)
        self.warp_ids = np.arange(num_warps, dtype=_U32)[:, None]
        self.regs: dict[int, np.ndarray | None] = {}
        self.preds: dict[int, np.ndarray | None] = {
            i: np.zeros(32, dtype=bool) for i in range(7)
        }
        self.preds[7] = np.ones(32, dtype=bool)

    # ---- file access -----------------------------------------------------
    def reg(self, idx: int) -> np.ndarray | None:
        if idx == RZ:
            return np.zeros(32, dtype=_U32)
        return self.regs.get(idx)

    def set_reg(
        self, idx: int, value: np.ndarray | None, mask: np.ndarray | None
    ) -> None:
        """Masked write; an unknown mask or value poisons the register."""
        if idx == RZ:
            return
        if value is None or mask is None:
            self.regs[idx] = None
            return
        if mask.all():
            self.regs[idx] = value.astype(_U32, copy=False)
            return
        old = self.regs.get(idx)
        if old is None:
            self.regs[idx] = None  # partial write over unknown stays unknown
        else:
            self.regs[idx] = np.where(mask, value.astype(_U32), old)

    def pred(self, p: Pred) -> np.ndarray | None:
        value = self.preds.get(p.index)
        if value is None:
            return None
        return ~value if p.negated else value

    def set_pred(
        self, idx: int, value: np.ndarray | None, mask: np.ndarray | None
    ) -> None:
        if idx == 7:
            return
        if value is None or mask is None:
            self.preds[idx] = None
            return
        old = self.preds.get(idx)
        if mask.all():
            self.preds[idx] = value.copy()
        elif old is None:
            self.preds[idx] = None
        else:
            self.preds[idx] = np.where(mask, value, old)

    def src(self, op: object) -> np.ndarray | None:
        if isinstance(op, Reg):
            value = self.reg(op.index)
            if value is not None and op.negated:
                value = value ^ _U32(0x80000000)
            return value
        if isinstance(op, Imm):
            return np.full(32, op.bits, dtype=_U32)
        if isinstance(op, Const):
            return None  # kernel parameters are launch-time values
        return None

    def guard_mask(self, instr: Instruction) -> np.ndarray | None:
        if instr.guard.is_pt and not instr.guard.negated:
            return _FULL_MASK
        return self.pred(instr.guard)

    # ---- one instruction ---------------------------------------------------
    def step(self, instr: Instruction) -> None:
        name = instr.name
        if name in ("BRA", "EXIT", "BAR", "NOP"):
            return
        spec = instr.spec
        if spec.pipe == "fma" or name == "MUFU":
            # FP results never feed shared addressing: poison the
            # destination without evaluating the sources.
            if instr.dest is not None and instr.dest.index != RZ:
                self.regs[instr.dest.index] = None
            return
        mask = self.guard_mask(instr)

        if name == "S2R":
            assert instr.dest is not None
            sr = next(f for f in instr.flags if f.startswith("SR_"))
            vals = hw.special_register(
                SPECIAL_REGISTERS[sr], self.warp_ids, self.lanes, _CTAID
            )
            self.set_reg(instr.dest.index, vals, mask)
            return
        if instr.spec.is_load:
            self._clobber_dest(instr, mask)
            return
        if instr.spec.is_store:
            return
        if name == "ISETP":
            a = self.src(instr.srcs[0])
            b = self.src(instr.srcs[1])
            assert instr.src_pred is not None
            combine = self.pred(instr.src_pred)
            result = (
                None if a is None or b is None or combine is None
                else hw.isetp(a, b, combine, *hw.setp_mode(instr.flags))
            )
            self.set_pred(instr.dest_preds[0].index, result, mask)
            return
        if name == "P2R":
            assert instr.dest is not None
            pack = instr.srcs[0].bits if isinstance(instr.srcs[0], Imm) else 0x7F
            preds = {i: self.preds.get(i) for i in range(7) if pack >> i & 1}
            known = not any(p is None for p in preds.values())
            self.set_reg(instr.dest.index, hw.p2r(preds) if known else None, mask)
            return
        if name == "R2P":
            src_op = instr.srcs[0]
            src = self.reg(src_op.index) if isinstance(src_op, Reg) else None
            unpack = instr.srcs[1].bits if isinstance(instr.srcs[1], Imm) else 0
            for i in range(7):
                if unpack >> i & 1:
                    self.set_pred(i, None if src is None else hw.r2p(src, i), mask)
            return

        srcs = [self.src(op) for op in instr.srcs]
        if name == "IMAD" and "WIDE" in instr.flags:
            self._imad_wide(instr, srcs, mask)
            return
        out = None
        if name in hw.INT_ALU_OPCODES and not any(v is None for v in srcs):
            out = hw.int_alu(
                name, srcs, hw.lop3_op(instr.flags), "L" in instr.flags
            )
        if instr.dest is not None:
            self.set_reg(instr.dest.index, out, mask)

    def _imad_wide(
        self,
        instr: Instruction,
        srcs: list[np.ndarray | None],
        mask: np.ndarray | None,
    ) -> None:
        assert instr.dest is not None
        a, b, addend = srcs
        c_op = instr.srcs[2]
        if isinstance(c_op, Reg) and not c_op.is_rz:
            lo, hi = self.reg(c_op.index), self.reg(c_op.index + 1)
            addend = None if lo is None or hi is None else hw.pair64(lo, hi)
        words = (
            None if a is None or b is None or addend is None
            else hw.imad_wide(a, b, addend, "U32" in instr.flags)
        )
        for i in range(2):
            self.set_reg(
                instr.dest.index + i, None if words is None else words[i], mask
            )

    def _clobber_dest(
        self, instr: Instruction, mask: np.ndarray | None
    ) -> None:
        """A load's destination vector becomes unknown (memory contents)."""
        for reg in instr.writes_registers():
            self.set_reg(reg, None, mask)

    # ---- shared-memory address resolution ---------------------------------
    def shared_addrs(
        self, instr: Instruction
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """(addrs, active-lane mask) as ``(num_warps, 32)`` arrays, or
        None if not statically known."""
        assert instr.mem is not None
        mask = self.guard_mask(instr)
        if mask is None:
            return None
        base = instr.mem.base.index
        if base == RZ:
            addrs = np.full(32, instr.mem.offset, dtype=np.int64)
        else:
            lo = self.reg(base)
            if lo is None:
                return None
            if "E" in instr.flags:
                hi = self.reg(base + 1)
                if hi is None:
                    return None
                addrs = hw.pair64(lo, hi) + instr.mem.offset
            else:
                addrs = lo.astype(np.int64) + instr.mem.offset
        shape = (self.nw, 32)
        return np.broadcast_to(addrs, shape), np.broadcast_to(mask, shape)


# ---------------------------------------------------------------------------
# Shared access table — one symbolic walk, shared by every consumer
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class SharedAccess:
    """One shared-memory access with statically resolved lane addresses.

    ``addrs``/``active`` are ``(num_warps, 32)`` arrays (byte address
    and participation mask per lane), or None when the evaluator could
    not resolve the address — consumers must count those as unaudited.
    """

    pos: int
    instr: Instruction
    is_store: bool
    width: int
    addrs: np.ndarray | None
    active: np.ndarray | None

    @property
    def resolved(self) -> bool:
        return self.addrs is not None


def shared_access_table(ctx: AnalysisContext) -> list[SharedAccess]:
    """Every shared-memory access in program order, addresses resolved.

    Both :class:`SharedMemoryPass` (bank conflicts, alignment, bounds)
    and the cross-warp race detector consume this; the symbolic warp
    evaluation runs once per context and is memoized on it.
    """
    cached = ctx.__dict__.get("_shared_access_cache")
    if cached is not None:
        return cached

    table: list[SharedAccess] = []
    state = _WarpEval(ctx.num_warps)
    for pos, instr in enumerate(ctx.instructions):
        if instr.spec.mem_space == "shared":
            resolved = state.shared_addrs(instr)
            addrs, active = resolved if resolved is not None else (None, None)
            table.append(SharedAccess(
                pos=pos,
                instr=instr,
                is_store=instr.spec.is_store,
                width=width_of(instr.flags),
                addrs=addrs,
                active=active,
            ))
        state.step(instr)
    ctx.__dict__["_shared_access_cache"] = table
    return table


# ---------------------------------------------------------------------------
# The pass
# ---------------------------------------------------------------------------


class SharedMemoryPass(AnalysisPass):
    name = "smem-bank"
    rules = ("SM001", "SM002", "SM003", "SM004")

    def run(self, ctx: AnalysisContext) -> list[Diagnostic]:
        diags: list[Diagnostic] = []
        unknown_positions: list[int] = []
        for access in shared_access_table(ctx):
            if access.addrs is None or access.active is None:
                unknown_positions.append(access.pos)
                continue
            diags.extend(_check_access(
                access, access.addrs, access.active, ctx.smem_bytes
            ))
        if unknown_positions:
            shown = unknown_positions[:8]
            suffix = "..." if len(unknown_positions) > 8 else ""
            diags.append(Diagnostic(
                rule="SM004",
                severity=Severity.INFO,
                pos=-1,
                instruction="",
                message=(
                    f"{len(unknown_positions)} shared-memory access(es) have "
                    "statically unknown addresses and were not checked "
                    f"(instructions {shown}{suffix})"
                ),
                hint="shared addressing should be a pure function of "
                     "threadIdx; data-dependent addresses cannot be audited",
            ))
        return diags


def _check_access(
    access: SharedAccess,
    addrs: np.ndarray,
    active: np.ndarray,
    smem_bytes: int | None,
) -> Iterator[Diagnostic]:
    """SM002, SM003 and SM001 for all warps of one access.

    Each finding names one warp: the first warp with an offending lane
    (and its first such lane), or for SM001 the warp with the worst
    conflict, the first one among ties.
    """
    width = access.width

    def diag(
        rule: str, severity: Severity, warp: int, message: str, hint: str
    ) -> Diagnostic:
        return Diagnostic(
            rule=rule,
            severity=severity,
            pos=access.pos,
            instruction=access.instr.name,
            message=f"warp {warp}: {message}",
            hint=hint,
        )

    def first(bad: np.ndarray) -> tuple[int, int]:
        warp = int(bad.any(axis=1).argmax())
        return warp, int(addrs[warp, bad[warp].argmax()])

    misaligned = active & (addrs % width != 0)
    if misaligned.any():
        warp, addr = first(misaligned)
        yield diag(
            "SM002", Severity.ERROR, warp,
            f"{width}-byte access at address {addr:#x} is not "
            f"{width}-byte aligned (the hardware faults; §4.3 "
            "requirement (ii))",
            f"make the byte address a multiple of {width} for every lane",
        )
    if smem_bytes is not None:
        outside = active & ((addrs < 0) | (addrs + width > smem_bytes))
        if outside.any():
            warp, addr = first(outside)
            yield diag(
                "SM003", Severity.ERROR, warp,
                f"access at {addr:#x} falls outside the {smem_bytes}-byte "
                ".smem window",
                "raise the .smem directive or fix the address computation",
            )
    cycles, worst = hw.bank_phases(addrs, width, active)
    warp = int(worst.argmax())
    if worst[warp] > 1:
        phases = width // hw.BANK_BYTES
        yield diag(
            "SM001", Severity.WARNING, warp,
            f"{int(worst[warp])}-way bank conflict "
            f"({int(cycles[warp]) - phases} extra MIO cycle(s) over the "
            f"{phases}-phase minimum)",
            "re-map addresses so each phase's lanes touch 32 distinct banks "
            "(Table 4 / Fig. 5 layouts)",
        )
