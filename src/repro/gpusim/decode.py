"""Pre-decoded instruction programs: what the SM scheduler reads.

An instruction's pipe, control fields, operand slots and bank-conflict
behavior depend only on the program text, not on when it issues, so
re-inspecting the :class:`~repro.sass.instruction.Instruction` object on
every dynamic issue (isinstance checks over operands, flag-string scans)
is loop-invariant work.

:func:`decode_program` lowers a program once into flat per-instruction
arrays (plain Python lists — the consumers index them with scalar ints,
where list access beats NumPy scalar access) plus one small
:class:`DecodedInstr` record per instruction for the vectorized
functional replay in :mod:`repro.gpusim.fastsim`.
:func:`static_instances` packs the arrays into the instruction-instance
tuples that :func:`repro.gpusim.sm.schedule` consumes for both engines.

Register-bank conflicts (§5.2.2) are resolved *statically* here, with
:func:`repro.sass.hw.reg_bank_conflict` (the rule sasslint's RB001
reports): a conflict depends only on the instruction's register sources
and on the reuse cache left by the dynamically-previous participating
instruction.
``conflict_cleared[i]`` is the conflict with an empty cache;
:meth:`DecodedProgram.conflict_cached` memoizes the conflict given the
predecessor's reuse flags.  The scheduler then only tracks *which*
predecessor applies (one int per warp) and whether the cache survived
(cleared by warp switches and yield flags, §6.1).
"""

from __future__ import annotations

from ..common.cache import LRUCache
from ..common.errors import SimulatorError
from ..sass.control import NO_BARRIER
from ..sass.instruction import Instruction
from ..sass.hw import lop3_op, reg_bank_conflict, reg_sources, setp_mode
from ..sass.isa import REUSE_CACHE_OPCODES, RZ, SPECIAL_REGISTERS, width_of
from ..sass.operands import Const, Imm, Reg
from .arch import DeviceSpec

# Replay dispatch kinds.
K_ALU = 0       # vectorizable ALU/FMA arithmetic (incl. MUFU)
K_MEM_GLOBAL = 1
K_MEM_SHARED = 2
K_MEM_CONST = 3
K_S2R = 4
K_ISETP = 5
K_P2R = 6
K_R2P = 7
K_EXIT = 8
K_BRA = 9
K_BAR = 10
K_NOP = 11
K_UNSUPPORTED = 12

PIPE_FMA = 0
PIPE_ALU = 1
PIPE_LSU = 2
PIPE_MIO = 3
PIPE_BRANCH = 4
PIPE_NONE = 5

PIPE_IDS = {
    "fma": PIPE_FMA, "alu": PIPE_ALU, "lsu": PIPE_LSU,
    "mio": PIPE_MIO, "branch": PIPE_BRANCH, "none": PIPE_NONE,
}

# Counter classes for fma-pipe instructions (Counters bookkeeping).
CC_NONE = 0
CC_FFMA = 1
CC_HFMA2 = 2
CC_HALF2 = 3
CC_FP32_OTHER = 4

# Operand tags for DecodedInstr.srcs entries.
SRC_REG = 0   # (SRC_REG, reg_index, negated)
SRC_IMM = 1   # (SRC_IMM, bits)
SRC_CONST = 2  # (SRC_CONST, offset)


class DecodedInstr:
    """Replay-facing record of one instruction (operands resolved)."""

    __slots__ = (
        "kind", "name", "flags", "guard_idx", "guard_neg", "dest",
        "srcs", "mem_base", "mem_offset", "mem_width",
        "mem_extended", "is_load", "sr_id", "setp_cmp", "setp_bool",
        "setp_u32", "setp_dest", "setp_src_idx", "setp_src_neg",
        "pack_mask", "bra_target", "imad_wide", "imad_u32", "shf_left",
        "lop3_op", "mufu_fn",
    )

    def __init__(self) -> None:
        self.kind = K_UNSUPPORTED
        self.flags = ()
        self.guard_idx = 7
        self.guard_neg = False
        self.dest = RZ
        self.srcs = ()
        self.mem_base = RZ
        self.mem_offset = 0
        self.mem_width = 4
        self.mem_extended = False
        self.is_load = False
        self.sr_id = 0
        self.setp_cmp = "EQ"
        self.setp_bool = "AND"
        self.setp_u32 = False
        self.setp_dest = 7
        self.setp_src_idx = 7
        self.setp_src_neg = False
        self.pack_mask = 0x7F
        self.bra_target = 0
        self.imad_wide = False
        self.imad_u32 = False
        self.shf_left = False
        self.lop3_op = "AND"
        self.mufu_fn = ""


def _decode_src(op) -> tuple:
    if isinstance(op, Reg):
        return (SRC_REG, op.index, op.negated)
    if isinstance(op, Imm):
        return (SRC_IMM, op.bits)
    if isinstance(op, Const):
        return (SRC_CONST, op.offset)
    raise SimulatorError(f"cannot evaluate operand {op!r}")


class DecodedProgram:
    """Flat per-instruction arrays + replay records for one program."""

    def __init__(self, program: list[Instruction]):
        n = len(program)
        self.n = n
        self.program = program
        # Control fields (timing loop).
        self.stall: list[int] = [0] * n
        self.yield_flag: list[bool] = [False] * n
        self.write_bar: list[int] = [NO_BARRIER] * n
        self.read_bar: list[int] = [NO_BARRIER] * n
        self.wait_mask: list[int] = [0] * n
        # Scheduling / bookkeeping.
        self.pipe: list[int] = [PIPE_NONE] * n
        self.base_cycles: list[int] = [1] * n  # static pipe occupancy
        # static variable latency; DEVICE_LATENCY opcodes take theirs per launch
        self.base_lat: list[int] = [0] * n
        self.kind: list[int] = [K_UNSUPPORTED] * n
        self.name: list[str] = [""] * n
        self.cclass: list[int] = [CC_NONE] * n
        self.is_mem: list[bool] = [False] * n
        # Reuse cache / bank conflicts.
        self.participating: list[bool] = [False] * n
        self.conflict_cleared: list[bool] = [False] * n
        self.reuse_map: list[dict] = [{}] * n
        self._src_regs: list[tuple] = [()] * n
        self._conflict_memo: dict[tuple[int, int], bool] = {}
        # Replay records.
        self.instrs: list[DecodedInstr] = []

        for i, instr in enumerate(program):
            self._decode_one(i, instr)

    # ------------------------------------------------------------------
    def conflict_cached(self, i: int, prev: int) -> bool:
        """Bank conflict of instruction *i* given that the reuse cache
        holds the flags of (dynamically previous) instruction *prev*."""
        key = (i, prev)
        hit = self._conflict_memo.get(key)
        if hit is None:
            hit = reg_bank_conflict(self._src_regs[i], self.reuse_map[prev])
            self._conflict_memo[key] = hit
        return hit

    # ------------------------------------------------------------------
    def _decode_one(self, i: int, instr: Instruction) -> None:
        spec = instr.spec
        ctl = instr.control
        self.stall[i] = ctl.stall
        self.yield_flag[i] = ctl.yield_flag
        self.write_bar[i] = ctl.write_bar
        self.read_bar[i] = ctl.read_bar
        self.wait_mask[i] = ctl.wait_mask
        self.pipe[i] = PIPE_IDS[spec.pipe]
        self.name[i] = instr.name

        d = DecodedInstr()
        d.name = instr.name
        d.flags = instr.flags
        d.guard_idx = instr.guard.index
        d.guard_neg = instr.guard.negated
        if instr.dest is not None:
            d.dest = instr.dest.index
        self.instrs.append(d)

        name = instr.name
        if name == "EXIT":
            d.kind = K_EXIT
        elif name == "BRA":
            d.kind = K_BRA
            d.bra_target = int(instr.target)
        elif name == "BAR":
            d.kind = K_BAR
        elif name == "NOP":
            d.kind = K_NOP
        elif name == "S2R":
            d.kind = K_S2R
            sr = next(f for f in instr.flags if f.startswith("SR_"))
            d.sr_id = SPECIAL_REGISTERS[sr]
            self.base_cycles[i] = 1
        elif spec.is_load or spec.is_store:
            d.is_load = spec.is_load
            d.mem_width = width_of(instr.flags)
            if instr.mem is not None:
                d.mem_base = instr.mem.base.index
                d.mem_offset = instr.mem.offset
            d.mem_extended = "E" in instr.flags
            if not spec.is_load:
                d.srcs = (_decode_src(instr.srcs[-1]),)
            if spec.mem_space == "global":
                d.kind = K_MEM_GLOBAL
                self.is_mem[i] = True
            elif spec.mem_space == "shared":
                d.kind = K_MEM_SHARED
                self.is_mem[i] = True
            elif spec.mem_space == "constant":
                d.kind = K_MEM_CONST
                self.base_cycles[i] = 1
                self.base_lat[i] = 8
            else:
                d.kind = K_UNSUPPORTED
        elif name == "ISETP":
            d.kind = K_ISETP
            d.srcs = tuple(_decode_src(op) for op in instr.srcs)
            d.setp_cmp, d.setp_bool, d.setp_u32 = setp_mode(instr.flags)
            d.setp_dest = instr.dest_preds[0].index
            d.setp_src_idx = instr.src_pred.index
            d.setp_src_neg = instr.src_pred.negated
            self.base_cycles[i] = 2
        elif name == "P2R":
            d.kind = K_P2R
            d.pack_mask = (
                instr.srcs[0].bits if isinstance(instr.srcs[0], Imm) else 0x7F
            )
            self.base_cycles[i] = 2
        elif name == "R2P":
            d.kind = K_R2P
            d.srcs = (_decode_src(instr.srcs[0]),)
            d.pack_mask = instr.srcs[1].bits
            self.base_cycles[i] = 2
        elif name in REUSE_CACHE_OPCODES:
            d.kind = K_ALU
            d.srcs = tuple(_decode_src(op) for op in instr.srcs)
            if name == "IMAD":
                d.imad_wide = "WIDE" in instr.flags
                d.imad_u32 = "U32" in instr.flags
            elif name == "SHF":
                d.shf_left = "L" in instr.flags
            elif name == "LOP3":
                d.lop3_op = lop3_op(instr.flags)
            elif name == "MUFU":
                if "RCP" in instr.flags:
                    d.mufu_fn = "RCP"
                elif "RSQ" in instr.flags:
                    d.mufu_fn = "RSQ"
                else:
                    d.kind = K_UNSUPPORTED
            self.base_cycles[i] = 2
        else:
            d.kind = K_UNSUPPORTED

        self.kind[i] = d.kind

        # Counter classes for the fma pipe.
        if self.pipe[i] == PIPE_FMA:
            self.cclass[i] = {
                "FFMA": CC_FFMA, "HFMA2": CC_HFMA2,
                "HADD2": CC_HALF2, "HMUL2": CC_HALF2,
            }.get(name, CC_FP32_OTHER)

        # Reuse-cache participation + static bank-conflict variants.
        if name in REUSE_CACHE_OPCODES:
            self.participating[i] = True
            src_regs = reg_sources(instr.srcs)
            self._src_regs[i] = src_regs
            self.reuse_map[i] = {
                slot: op.index
                for slot, op in enumerate(instr.srcs)
                if isinstance(op, Reg) and ctl.reuse & (1 << slot)
            }
            self.conflict_cleared[i] = reg_bank_conflict(src_regs, {})


#: Opcodes whose variable latency is a :class:`DeviceSpec` field, so
#: :func:`static_instances` reads it from the launch's device.
DEVICE_LATENCY = {"S2R": "lat_s2r", "MUFU": "lat_mufu"}


# Field layout of one instruction-instance tuple, the unit a per-warp
# trace is made of: (pc, wait_bits, pipe, pipe_cycles, var_lat,
# dram_sectors, l2_sectors, smem_conflict_cycles, stall, yield,
# write_bar, read_bar, participating, conflict_cleared, cclass, is_bar).
# Fields 2-7 are the instance's footprint.  The fast engine overwrites
# fields 3-7 for every instance whose footprint depends on data; the
# reference engine overwrites 2-7 with what ``engine.execute`` reports.
def static_instances(dp: DecodedProgram, device: DeviceSpec) -> list[tuple]:
    """One instance tuple per instruction, with decode's static footprint
    and *device*'s :data:`DEVICE_LATENCY` latencies.

    Both engines build their traces from these: instances whose
    footprint is static share the tuple object, so one issue in the
    scheduler costs one list index and one unpack.
    """
    wait_bits = [
        tuple(b for b in range(6) if wm >> b & 1) for wm in dp.wait_mask
    ]
    device_lat = {op: getattr(device, f) for op, f in DEVICE_LATENCY.items()}
    return [
        (
            i,
            wait_bits[i],
            dp.pipe[i],
            dp.base_cycles[i],
            device_lat.get(dp.name[i], dp.base_lat[i]),
            0,
            0,
            0,
            dp.stall[i],
            dp.yield_flag[i],
            dp.write_bar[i],
            dp.read_bar[i],
            dp.participating[i],
            dp.conflict_cleared[i],
            dp.cclass[i],
            dp.kind[i] == K_BAR,
        )
        for i in range(dp.n)
    ]


# ---------------------------------------------------------------------------
# Decode cache: programs are immutable once assembled, so decoding is
# keyed by object identity.  Each entry holds its program, so no id is
# reused while it is cached.
# ---------------------------------------------------------------------------
_DECODE_CACHE: LRUCache[tuple[list, DecodedProgram]] = LRUCache(64)


def decode_program(program: list[Instruction]) -> DecodedProgram:
    return _DECODE_CACHE.get_or_build(
        id(program), lambda: (program, DecodedProgram(program))
    )[1]


_COPIED_FIELDS = (
    "stall", "yield_flag", "write_bar", "read_bar", "wait_mask",
    "pipe", "base_cycles", "base_lat", "kind", "name", "cclass",
    "is_mem", "participating", "conflict_cleared", "reuse_map",
    "_src_regs",
)


def derive_decode(
    sib_program: list[Instruction],
    new_program: list[Instruction],
    idx: int,
) -> DecodedProgram:
    """Decode *new_program* by patching its sibling's decode at *idx*.

    The two programs must be identical except for the instruction at
    *idx* (the trip-count immediate of a derived build).  Everything
    else — including the bank-conflict memo, which is keyed on register
    sources and reuse flags, never immediates — carries over verbatim,
    so only the one changed instruction is re-decoded.  The result is
    registered in the decode cache under *new_program*'s identity.
    """
    sib = decode_program(sib_program)
    dp = DecodedProgram.__new__(DecodedProgram)
    dp.n = sib.n
    dp.program = new_program
    for f in _COPIED_FIELDS:
        setattr(dp, f, list(getattr(sib, f)))
    dp._conflict_memo = sib._conflict_memo  # shared: identical family-wide
    dp.instrs = sib.instrs[:idx]
    dp._decode_one(idx, new_program[idx])  # appends at position idx
    dp.instrs.extend(sib.instrs[idx + 1:])
    _DECODE_CACHE.put(id(new_program), (new_program, dp))
    return dp
