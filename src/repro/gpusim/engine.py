"""Functional + timing execution of one warp instruction.

:func:`execute` applies an instruction's architectural effects to a
:class:`~repro.gpusim.warp.WarpState` (vectorized over the 32 lanes) and
returns an :class:`ExecResult` describing its timing footprint — which
pipe it occupies and for how long, how many DRAM sectors it moves, and
whether a scoreboard barrier completes later.  This is the reference
engine: the SM scheduler (:func:`repro.gpusim.sm.schedule`) calls it
when an instruction issues, and the fast engine's vectorized replay is
checked against it.  Scheduling rules, including register-bank
conflicts and the reuse cache they read, live in the scheduler.

Values are written at issue time.  Timing correctness relies on the
control codes (the Volta/Turing contract, §5.1.4); run the assembler
with ``strict=True`` to prove a kernel never consumes a value before its
stall/barrier cover — the simulator then reports faithful timing *and*
bit-accurate results.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..common.errors import SimulatorError
from ..sass.instruction import Instruction
from ..sass.isa import RZ, SETP_BOOL, SETP_CMP, SPECIAL_REGISTERS, width_of
from ..sass.operands import Const, Imm, Reg
from .memory import SmemAccessReport, check_constant_lanes
from .warp import WarpState

_U32 = np.uint32


@dataclasses.dataclass
class ExecResult:
    """Timing footprint of one issued warp instruction."""

    pipe: str  # "fma" | "alu" | "lsu" | "mio" | "branch" | "none"
    pipe_cycles: int = 1
    variable_latency: int = 0  # >0: barrier completes this many cycles later
    dram_sectors: int = 0
    l2_sectors: int = 0  # sectors served from the L2-resident working set
    smem_report: SmemAccessReport | None = None
    branch_target: int | None = None  # absolute pc (taken branch)
    exited: bool = False
    barrier_sync: bool = False


class ExecutionContext:
    """Per-block resources an instruction may touch."""

    def __init__(self, gmem, smem, const_bank: np.ndarray, block_idx: int = 0,
                 device=None, block_idx_y: int = 0, block_idx_z: int = 0):
        self.gmem = gmem
        self.smem = smem
        self.const_bank = const_bank  # uint8 view of constant bank 0
        self.block_idx = block_idx
        self.block_idx_y = block_idx_y
        self.block_idx_z = block_idx_z
        self.device = device

    def const_u32(self, offset: int) -> int:
        return int(self.const_bank[offset : offset + 4].view(_U32)[0])


def _src_value(warp: WarpState, ctx: ExecutionContext, op) -> np.ndarray:
    """Fetch a source operand as a (32,) uint32 vector."""
    if isinstance(op, Reg):
        value = warp.read_reg(op.index)
        if op.negated:  # float source negation: flip the sign bit
            value = value ^ np.uint32(0x80000000)
        return value
    if isinstance(op, Imm):
        return np.full(32, op.bits, dtype=_U32)
    if isinstance(op, Const):
        return np.full(32, ctx.const_u32(op.offset), dtype=_U32)
    raise SimulatorError(f"cannot evaluate operand {op!r}")


def _as_f32(v: np.ndarray) -> np.ndarray:
    return v.view(np.float32)


def _from_f32(v: np.ndarray) -> np.ndarray:
    return np.asarray(v, dtype=np.float32).view(_U32)


def _as_s32(v: np.ndarray) -> np.ndarray:
    return v.view(np.int32)


def execute(instr: Instruction, warp: WarpState, ctx: ExecutionContext) -> ExecResult:
    name = instr.name
    spec = instr.spec
    mask = warp.read_pred(instr.guard.index, instr.guard.negated)

    # ---- control ----------------------------------------------------------
    if name == "EXIT":
        if mask.all():
            return ExecResult("branch", exited=True)
        if not mask.any():
            return ExecResult("branch")
        raise SimulatorError(
            "divergent EXIT: this simulator supports predication, not "
            "independent thread scheduling"
        )
    if name == "BRA":
        taken = bool(mask.all())
        if mask.any() and not taken:
            raise SimulatorError("divergent BRA is not supported; predicate instead")
        target = warp.pc + 1 + int(instr.target) if taken else None
        return ExecResult("branch", branch_target=target)
    if name == "BAR":
        return ExecResult("branch", barrier_sync=True)
    if name == "NOP":
        return ExecResult("none")

    # ---- special registers ---------------------------------------------------
    if name == "S2R":
        sr = next(f for f in instr.flags if f.startswith("SR_"))
        sr_id = SPECIAL_REGISTERS[sr]
        if sr_id == 0:
            vals = warp.tids.astype(_U32)
        elif sr_id in (1, 2):
            vals = np.zeros(32, dtype=_U32)  # 1-D blocks only
        elif sr_id == 3:
            vals = np.full(32, ctx.block_idx, dtype=_U32)
        elif sr_id == 4:
            vals = np.full(32, ctx.block_idx_y, dtype=_U32)
        elif sr_id == 5:
            vals = np.full(32, ctx.block_idx_z, dtype=_U32)
        elif sr_id == 6:
            vals = warp.lane_ids.astype(_U32)
        else:
            vals = np.full(32, warp.warp_id, dtype=_U32)
        warp.write_reg(instr.dest.index, vals, mask)
        lat = ctx.device.lat_s2r if ctx.device else 12
        return ExecResult("mio", pipe_cycles=1, variable_latency=lat)

    # ---- memory -----------------------------------------------------------
    if spec.is_load or spec.is_store:
        width = width_of(instr.flags)
        base = instr.mem.base.index
        if base == RZ:
            addrs = np.full(32, instr.mem.offset, dtype=np.int64)
        elif "E" in instr.flags:
            addrs = warp.read_addr64(base) + instr.mem.offset
        else:
            addrs = warp.read_reg(base).astype(np.int64) + instr.mem.offset
        if spec.mem_space == "global":
            # Each 32-byte sector is classified individually: a warp
            # straddling the L2-resident working set charges only its
            # resident sectors to L2 and the rest to DRAM.
            dram_sectors, l2_sectors = ctx.gmem.classify_sectors(addrs, width, mask)
            cycles = max(1, (int(mask.sum()) * width) // 128)
            if spec.is_load:
                vals = ctx.gmem.load_warp(addrs, width, mask)
                for i in range(width // 4):
                    warp.write_reg(instr.dest.index + i, vals[:, i], mask)
            else:
                data = np.stack(
                    [warp.read_reg(instr.srcs[-1].index + i) for i in range(width // 4)],
                    axis=1,
                )
                ctx.gmem.store_warp(addrs, data, width, mask)
            if spec.is_store:
                # The read-dependence barrier of a store clears once the
                # source registers are consumed into the store queue —
                # quickly — while the written sectors still charge DRAM.
                lat = 20
            elif ctx.device is None:
                lat = 200
            else:
                # The consumer waits for the access's slowest sector, so
                # one DRAM sector makes the whole load an L2 miss.
                lat = (
                    ctx.device.lat_gmem_l2_hit
                    if l2_sectors and not dram_sectors
                    else ctx.device.lat_gmem_l2_miss
                )
            return ExecResult(
                "lsu",
                pipe_cycles=cycles,
                variable_latency=lat,
                dram_sectors=dram_sectors,
                l2_sectors=l2_sectors,
            )
        if spec.mem_space == "shared":
            if spec.is_load:
                vals, report = ctx.smem.load_warp(addrs, width, mask)
                for i in range(width // 4):
                    warp.write_reg(instr.dest.index + i, vals[:, i], mask)
                lat = ctx.device.lat_smem if ctx.device else 19
            else:
                data = np.stack(
                    [warp.read_reg(instr.srcs[-1].index + i) for i in range(width // 4)],
                    axis=1,
                )
                report = ctx.smem.store_warp(addrs, data, width, mask)
                lat = 10
            return ExecResult(
                "mio",
                pipe_cycles=report.cycles,
                variable_latency=lat + (report.cycles - report.phases),
                smem_report=report,
            )
        if spec.mem_space == "constant":
            vals = np.zeros((32, width // 4), dtype=_U32)
            active = np.nonzero(mask)[0]
            check_constant_lanes(addrs[active], width, ctx.const_bank.size)
            for lane in active:
                off = int(addrs[lane])
                vals[lane] = ctx.const_bank[off : off + width].view(_U32)
            for i in range(width // 4):
                warp.write_reg(instr.dest.index + i, vals[:, i], mask)
            return ExecResult("mio", pipe_cycles=1, variable_latency=8)
        raise SimulatorError(f"unhandled memory space {spec.mem_space}")

    # ---- predicate pack/unpack (§3.5) ---------------------------------------
    if name == "P2R":
        pack_mask = instr.srcs[0].bits if isinstance(instr.srcs[0], Imm) else 0x7F
        vals = np.zeros(32, dtype=_U32)
        for i in range(7):
            if pack_mask & (1 << i):
                vals |= warp.preds[i].astype(_U32) << _U32(i)
        warp.write_reg(instr.dest.index, vals, mask)
        return ExecResult("alu", pipe_cycles=2)
    if name == "R2P":
        src = warp.read_reg(instr.srcs[0].index)
        unpack = instr.srcs[1].bits
        for i in range(7):
            if unpack & (1 << i):
                warp.write_pred(i, (src >> _U32(i)) & _U32(1) != 0, mask)
        return ExecResult("alu", pipe_cycles=2)

    # ---- predicate compare ----------------------------------------------------
    if name == "ISETP":
        a = _src_value(warp, ctx, instr.srcs[0])
        b = _src_value(warp, ctx, instr.srcs[1])
        if "U32" in instr.flags:
            a_cmp, b_cmp = a.astype(np.uint64), b.astype(np.uint64)
        else:
            a_cmp, b_cmp = _as_s32(a), _as_s32(b)
        cmp_name = next((f for f in instr.flags if f in SETP_CMP), "EQ")
        result = {
            "EQ": a_cmp == b_cmp,
            "NE": a_cmp != b_cmp,
            "LT": a_cmp < b_cmp,
            "LE": a_cmp <= b_cmp,
            "GT": a_cmp > b_cmp,
            "GE": a_cmp >= b_cmp,
        }[cmp_name]
        combine = warp.read_pred(instr.src_pred.index, instr.src_pred.negated)
        bool_name = next((f for f in instr.flags if f in SETP_BOOL), "AND")
        if bool_name == "AND":
            result = result & combine
        elif bool_name == "OR":
            result = result | combine
        else:
            result = result ^ combine
        warp.write_pred(instr.dest_preds[0].index, result, mask)
        return ExecResult("alu", pipe_cycles=2)

    # ---- ALU / FMA ---------------------------------------------------------
    srcs = [_src_value(warp, ctx, op) for op in instr.srcs]

    if name == "FFMA":
        a, b, c = (_as_f32(s) for s in srcs)
        out = _from_f32(a * b + c)
        pipe, cycles = "fma", 2
    elif name in ("HFMA2", "HADD2", "HMUL2"):
        # Packed fp16: each lane's 32-bit register is two half values.
        halves = [np.ascontiguousarray(s).view(np.float16) for s in srcs]
        if name == "HFMA2":
            res = halves[0] * halves[1] + halves[2]
        elif name == "HADD2":
            res = halves[0] + halves[1]
        else:
            res = halves[0] * halves[1]
        out = np.ascontiguousarray(res.astype(np.float16)).view(_U32)
        pipe, cycles = "fma", 2
    elif name == "FADD":
        out = _from_f32(_as_f32(srcs[0]) + _as_f32(srcs[1]))
        pipe, cycles = "fma", 2
    elif name == "FMUL":
        out = _from_f32(_as_f32(srcs[0]) * _as_f32(srcs[1]))
        pipe, cycles = "fma", 2
    elif name == "FMNMX":
        out = _from_f32(np.maximum(_as_f32(srcs[0]), _as_f32(srcs[1])))
        pipe, cycles = "fma", 2
    elif name == "MUFU":
        x = _as_f32(srcs[0])
        if "RCP" in instr.flags:
            with np.errstate(divide="ignore"):
                out = _from_f32(1.0 / x)
        elif "RSQ" in instr.flags:
            with np.errstate(divide="ignore", invalid="ignore"):
                out = _from_f32(1.0 / np.sqrt(x))
        else:
            raise SimulatorError(f"MUFU function {instr.flags} not implemented")
        warp.write_reg(instr.dest.index, out, mask)
        lat = ctx.device.lat_mufu if ctx.device else 17
        return ExecResult("mio", pipe_cycles=2, variable_latency=lat)
    elif name == "IADD3":
        out = (srcs[0] + srcs[1] + srcs[2]).astype(_U32)
        pipe, cycles = "alu", 2
    elif name == "IMAD":
        if "WIDE" in instr.flags:
            if "U32" in instr.flags:
                prod = srcs[0].astype(np.uint64) * srcs[1].astype(np.uint64)
            else:
                prod = _as_s32(srcs[0]).astype(np.int64) * _as_s32(srcs[1]).astype(
                    np.int64
                )
            c_op = instr.srcs[2]
            if isinstance(c_op, Reg) and not c_op.is_rz:
                addend = warp.read_addr64(c_op.index)
            else:
                addend = srcs[2].astype(np.int64)
            total = (prod.astype(np.int64) + addend).astype(np.uint64)
            warp.write_reg(instr.dest.index, (total & 0xFFFFFFFF).astype(_U32), mask)
            warp.write_reg(instr.dest.index + 1, (total >> 32).astype(_U32), mask)
            return ExecResult("alu", pipe_cycles=2)
        out = (srcs[0] * srcs[1] + srcs[2]).astype(_U32)
        pipe, cycles = "alu", 2
    elif name == "LOP3":
        op_name = next((f for f in instr.flags if f in ("AND", "OR", "XOR")), "AND")
        a, b, c = srcs
        if op_name == "AND":
            out = (a & b) ^ c
        elif op_name == "OR":
            out = (a | b) ^ c
        else:
            out = a ^ b ^ c
        pipe, cycles = "alu", 2
    elif name == "SHF":
        a, sh, c = srcs
        sh = sh & _U32(31)
        if "L" in instr.flags:
            hi_in = np.where(sh > 0, c >> ((_U32(32) - sh) & _U32(31)), _U32(0))
            out = ((a << sh) | hi_in).astype(_U32)
        else:
            lo_shift = a >> sh
            hi_in = np.where(sh > 0, c << ((_U32(32) - sh) & _U32(31)), _U32(0))
            out = (lo_shift | hi_in).astype(_U32)
        pipe, cycles = "alu", 2
    elif name == "MOV":
        out = srcs[0]
        pipe, cycles = "alu", 2
    elif name == "SEL":
        out = srcs[0]  # predicate-select source not modelled; see DESIGN.md
        pipe, cycles = "alu", 2
    elif name == "CS2R":
        out = np.zeros(32, dtype=_U32)
        pipe, cycles = "alu", 2
    elif name == "POPC":
        out = np.array([bin(int(v)).count("1") for v in srcs[0]], dtype=_U32)
        pipe, cycles = "alu", 2
    else:
        raise SimulatorError(f"instruction {name} has no execution semantics")

    warp.write_reg(instr.dest.index, out, mask)
    return ExecResult(pipe, pipe_cycles=cycles)
