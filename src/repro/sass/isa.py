"""Volta/Turing SASS instruction set description (paper §5.1).

The paper documents the 128-bit instruction word (Fig. 6):

* bits [11:0]    — 12-bit opcode (FFMA=0x223, FADD=0x221, LDG=0x381,
                   LDS=0x984, ...);
* bits [15:12]   — guard predicate (3-bit index, 7 = PT, bit 15 = negate);
* bits [23:16]   — destination register;
* bits [31:24]   — source register 0;
* bits [63:32]   — source register 1 / 32-bit immediate / constant memory;
* bits [95:64]   — flags / source register 2;
* bits [125:105] — control code (stall, yield, barriers, wait mask, reuse).

Like real Volta, the *form* of operand B is folded into the opcode: the
register form uses the base opcode, `+0x200` selects the immediate form
and `+0x400` the constant-memory form (e.g. FFMA R,R,R,R = 0x223,
FFMA R,R,imm,R = 0x423, FFMA R,R,c[..],R = 0x623).

Each opcode also carries the scheduling metadata the hazard pass and the
simulator need: execution pipe, fixed latency (or ``None`` for
variable-latency instructions, which must use scoreboard barriers), and
operand signature.

Where the public record is incomplete (NVIDIA has never documented this
encoding), field placements follow the paper's description plus the
conventions of the open-source TuringAs; internal consistency is
guaranteed by the encoder/decoder round-trip tests and by the simulator
executing only decoded words.
"""

from __future__ import annotations

import dataclasses

# ---------------------------------------------------------------------------
# Opcode form offsets for operand B (paper §5.1.2)
# ---------------------------------------------------------------------------
FORM_REGISTER = 0x000
FORM_IMMEDIATE = 0x200
FORM_CONSTANT = 0x400

# Architectural limits (paper §5.2.1)
NUM_REGULAR_REGISTERS = 255  # R0..R254; R255 is RZ
MAX_USABLE_REGISTERS = 253  # paper footnote 7: >=253 breaks the encoding
NUM_PREDICATES = 7  # P0..P6; 7 encodes PT
NUM_WAIT_BARRIERS = 6
RZ = 255
PT = 7


@dataclasses.dataclass(frozen=True)
class OpSpec:
    """Static description of one SASS opcode.

    Attributes
    ----------
    name: mnemonic (without flags), e.g. ``"FFMA"``.
    opcode: 12-bit base opcode (register form).
    pipe: execution pipe — ``fma`` (FP32), ``alu`` (int/logic), ``lsu``
        (global memory), ``mio`` (shared memory / S2R / shuffles),
        ``branch``, or ``none`` (NOP).
    latency: fixed result latency in cycles, or ``None`` when the
        latency is variable and the producer must set a write barrier.
    num_srcs: register-file source operand slots used.
    has_dest: writes a regular register.
    writes_pred: writes predicate register(s) (ISETP, R2P).
    is_load / is_store: memory semantics.
    mem_space: ``"global"``, ``"shared"`` or ``""``.
    valid_flags: accepted ``.FLAG`` suffixes.
    """

    name: str
    opcode: int
    pipe: str
    latency: int | None
    num_srcs: int = 2
    has_dest: bool = True
    writes_pred: bool = False
    is_load: bool = False
    is_store: bool = False
    mem_space: str = ""
    valid_flags: tuple[str, ...] = ()


_WIDTH_FLAGS = ("32", "64", "128", "16", "E", "U8", "S8")
#: Sub-word widths: they keep their flag bits (and so every encoding),
#: but the memory model has no sub-word access, so ``Instruction.validate``
#: rejects them on memory opcodes.
SUBWORD_FLAGS = ("16", "U8", "S8")
_SETP_FLAGS = (
    "EQ", "NE", "LT", "LE", "GT", "GE", "AND", "OR", "XOR", "U32", "S32",
)

# Fixed latencies follow the microbenchmark literature the paper cites
# (Jia et al. [5]): 4 cycles for the FP32 pipe, 5 for the heavier INT
# ops, with variable-latency memory ops handled by scoreboard barriers.
OPCODES: dict[str, OpSpec] = {
    spec.name: spec
    for spec in [
        # ---- FP32 pipe -----------------------------------------------------
        OpSpec("FFMA", 0x223, "fma", 4, num_srcs=3,
               valid_flags=("FTZ", "RN")),
        OpSpec("FADD", 0x221, "fma", 4, num_srcs=2, valid_flags=("FTZ",)),
        OpSpec("FMUL", 0x220, "fma", 4, num_srcs=2, valid_flags=("FTZ",)),
        OpSpec("FMNMX", 0x209, "fma", 4, num_srcs=3),
        OpSpec("FSEL", 0x208, "fma", 4, num_srcs=2),
        # Packed-half arithmetic (§8.3's fp16 port): each 32-bit register
        # holds two fp16 lanes, doubling flops per issue on the same pipe.
        OpSpec("HFMA2", 0x231, "fma", 4, num_srcs=3),
        OpSpec("HADD2", 0x232, "fma", 4, num_srcs=2),
        OpSpec("HMUL2", 0x233, "fma", 4, num_srcs=2),
        OpSpec("MUFU", 0x308, "mio", None, num_srcs=1,
               valid_flags=("RCP", "RSQ", "EX2", "LG2", "SIN", "COS")),
        # ---- INT/logic pipe ------------------------------------------------
        OpSpec("IADD3", 0x210, "alu", 5, num_srcs=3),
        OpSpec("IMAD", 0x224, "alu", 5, num_srcs=3,
               valid_flags=("WIDE", "U32", "HI", "MOV", "SHL")),
        # LOP3's full 8-bit LUT is reduced to the three named ops this
        # library's kernels use: d = (a OP b) ^ c (c = RZ for plain OP).
        OpSpec("LOP3", 0x212, "alu", 5, num_srcs=3,
               valid_flags=("AND", "OR", "XOR", "LUT")),
        OpSpec("SHF", 0x219, "alu", 5, num_srcs=3,
               valid_flags=("L", "R", "U32", "S32", "W", "HI")),
        OpSpec("SEL", 0x207, "alu", 5, num_srcs=2),
        OpSpec("MOV", 0x202, "alu", 4, num_srcs=1),
        OpSpec("ISETP", 0x20C, "alu", 5, num_srcs=2, has_dest=False,
               writes_pred=True, valid_flags=_SETP_FLAGS + ("EX",)),
        OpSpec("PLOP3", 0x81C, "alu", 5, num_srcs=0, has_dest=False,
               writes_pred=True, valid_flags=("LUT",)),
        # Predicate pack/unpack — the paper's register-saving trick (§3.5).
        OpSpec("P2R", 0x803, "alu", 5, num_srcs=1),
        OpSpec("R2P", 0x804, "alu", 5, num_srcs=1, has_dest=False,
               writes_pred=True),
        OpSpec("POPC", 0x309, "alu", 10, num_srcs=1),
        # ---- Memory --------------------------------------------------------
        OpSpec("LDG", 0x381, "lsu", None, num_srcs=1, is_load=True,
               mem_space="global", valid_flags=_WIDTH_FLAGS + ("STRONG", "CI")),
        OpSpec("STG", 0x386, "lsu", None, num_srcs=2, has_dest=False,
               is_store=True, mem_space="global", valid_flags=_WIDTH_FLAGS),
        OpSpec("LDS", 0x984, "mio", None, num_srcs=1, is_load=True,
               mem_space="shared", valid_flags=_WIDTH_FLAGS),
        OpSpec("STS", 0x388, "mio", None, num_srcs=2, has_dest=False,
               is_store=True, mem_space="shared", valid_flags=_WIDTH_FLAGS),
        OpSpec("LDC", 0x582, "mio", None, num_srcs=1, is_load=True,
               mem_space="constant", valid_flags=_WIDTH_FLAGS),
        # ---- Special registers / control ------------------------------------
        OpSpec("S2R", 0x919, "mio", None, num_srcs=0,
               valid_flags=("SR_TID.X", "SR_TID.Y", "SR_TID.Z",
                            "SR_CTAID.X", "SR_CTAID.Y", "SR_CTAID.Z",
                            "SR_LANEID", "SR_VIRTID")),
        OpSpec("CS2R", 0x805, "alu", 5, num_srcs=0, valid_flags=("32",)),
        OpSpec("BAR", 0xB1D, "branch", None, num_srcs=0, has_dest=False,
               valid_flags=("SYNC",)),
        OpSpec("BRA", 0x947, "branch", None, num_srcs=0, has_dest=False,
               valid_flags=("U",)),
        OpSpec("EXIT", 0x94D, "branch", None, num_srcs=0, has_dest=False),
        OpSpec("NOP", 0x918, "none", 1, num_srcs=0, has_dest=False),
    ]
}

OPCODE_TO_NAME: dict[int, str] = {spec.opcode: name for name, spec in OPCODES.items()}

#: Opcodes whose register sources go through the operand reuse cache:
#: each one reads the cache (a hit spares a bank read, §5.2.2) and then
#: replaces it with its own ``.reuse`` operands.  Every other opcode
#: passes the cache through untouched.  This one set is the rule for
#: both the simulator's scheduler and sasslint's register-bank pass.
REUSE_CACHE_OPCODES = frozenset({
    "FFMA", "HFMA2", "HADD2", "HMUL2", "FADD", "FMUL", "FMNMX", "MUFU",
    "IADD3", "IMAD", "LOP3", "SHF", "MOV", "SEL", "CS2R", "POPC",
})

# Special-register ids for S2R (our own stable numbering).
SPECIAL_REGISTERS = {
    "SR_TID.X": 0,
    "SR_TID.Y": 1,
    "SR_TID.Z": 2,
    "SR_CTAID.X": 3,
    "SR_CTAID.Y": 4,
    "SR_CTAID.Z": 5,
    "SR_LANEID": 6,
    "SR_VIRTID": 7,
}
SPECIAL_REGISTER_NAMES = {v: k for k, v in SPECIAL_REGISTERS.items()}

# ISETP comparison / boolean sub-ops (encoded in the flags field).
SETP_CMP = {"EQ": 0, "NE": 1, "LT": 2, "LE": 3, "GT": 4, "GE": 5}
SETP_CMP_NAMES = {v: k for k, v in SETP_CMP.items()}
SETP_BOOL = {"AND": 0, "OR": 1, "XOR": 2}
SETP_BOOL_NAMES = {v: k for k, v in SETP_BOOL.items()}

# Memory width in bytes per flag.
WIDTH_BYTES = {"16": 2, "32": 4, "64": 8, "128": 16}


def width_of(flags: tuple[str, ...]) -> int:
    """Access width in bytes implied by a memory instruction's flags."""
    for flag in flags:
        if flag in WIDTH_BYTES:
            return WIDTH_BYTES[flag]
    return 4


def spec_for(name: str) -> OpSpec:
    try:
        return OPCODES[name]
    except KeyError:
        raise KeyError(f"unknown SASS mnemonic {name!r}") from None
