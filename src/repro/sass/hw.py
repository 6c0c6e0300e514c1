"""Volta/Turing hardware rules, written once for sasslint and the simulator.

The rules the paper's kernel rests on, each stated once here as the
Citadel Volta report (Jia et al.) states it once:

* shared-memory bank phases (§4.3-4.4, Table 4, Figs. 3 and 5):
  :func:`bank_phases`;
* register banks and the operand reuse cache (Fig. 4, §5.2.2):
  :func:`reg_bank_conflict`;
* occupancy (§7.1): :class:`ArchLimits` and :func:`blocks_per_sm`;
* integer lane arithmetic, the part of the ISA that computes addresses:
  :func:`isetp`, :func:`int_alu`, :func:`imad_wide`, :func:`p2r`,
  :func:`r2p` and :func:`special_register`.

Sasslint (:mod:`repro.sass.analysis`) and the simulator's fast engine
(``gpusim.fastsim``, ``gpusim.decode``, ``gpusim.arch``) both call them.
The reference engine (``gpusim.engine.execute``,
``gpusim.memory.bank_conflict_report``) keeps its own scalar code: it is
the independent oracle the fast engine is tested against.  Lane operands
are uint32 arrays that broadcast against ``(warps, 32)``; a NumPy scalar
is the same value in every lane.
"""

from __future__ import annotations

import dataclasses
import operator
from typing import Any, Callable, Iterable, Mapping, Protocol, Sequence

import numpy as np

from ..common.cache import LRUCache
from .operands import Reg

_U32 = np.uint32

# ---------------------------------------------------------------------------
# Shared-memory banks
# ---------------------------------------------------------------------------

NUM_BANKS = 32
BANK_BYTES = 4

_NO_WORD = np.int64(1) << np.int64(62)  # sorts after every real word


# A double-buffered loop repeats each access pattern every iteration, and
# candidates that share a layout repeat them across kernels; the result
# is a pure function of (addrs, width, active), so memoize it.
_PHASE_MEMO: LRUCache[tuple[np.ndarray, np.ndarray]] = LRUCache(4096)


def bank_phases(
    addrs: np.ndarray, width: int, active: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per warp of a ``(g, 32)`` shared access: (cycles, worst multiplicity).

    A ``width``-byte access is served in ``width / 4`` phases of
    ``128 / width × 4`` consecutive lanes.  Within a phase the 32-bit
    rule applies to every word its active lanes touch: same-word
    accesses broadcast, distinct words in one of the 32 four-byte banks
    serialize.  A warp's cycles are the sum over phases of the largest
    bank multiplicity (at least 1, so ``cycles - width // 4`` are its
    conflict cycles); its worst multiplicity is the n of its worst
    n-way conflict (1 when conflict-free).  The arrays are read-only.
    """
    return _PHASE_MEMO.get_or_build(
        (width, addrs.tobytes(), active.tobytes()),
        lambda: _bank_phases(addrs, width, active),
    )


def _bank_phases(
    addrs: np.ndarray, width: int, active: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    g = addrs.shape[0]
    phases = width // BANK_BYTES  # also the words each lane touches
    # Each phase covers 32 consecutive (lane, word) slots: one row per
    # (warp, phase).
    offs = np.arange(phases, dtype=np.int64)
    words = (addrs[:, :, None] // BANK_BYTES + offs).reshape(g * phases, 32)
    valid = np.repeat(active, phases, axis=1).reshape(g * phases, 32)
    words = np.where(valid, words, _NO_WORD)
    words.sort(axis=1)
    uniq = words < _NO_WORD  # same-word lanes broadcast: count a word once
    uniq[:, 1:] &= words[:, 1:] != words[:, :-1]
    rows = np.arange(g * phases, dtype=np.int64)[:, None]
    counts = np.bincount(
        (rows * NUM_BANKS + words % NUM_BANKS).ravel(),
        weights=uniq.ravel(),
        minlength=g * phases * NUM_BANKS,
    ).reshape(g, phases, NUM_BANKS)
    # An idle phase still takes its slot: at least one cycle per phase.
    mult = np.maximum(counts.max(axis=2), 1).astype(np.int64)
    hit = (mult.sum(axis=1), mult.max(axis=1))
    for arr in hit:
        arr.setflags(write=False)
    return hit


# ---------------------------------------------------------------------------
# Register banks and the reuse cache
# ---------------------------------------------------------------------------


def reg_sources(operands: Iterable[object]) -> tuple[tuple[int, int], ...]:
    """(operand slot, register) of every register source except RZ."""
    return tuple(
        (slot, op.index)
        for slot, op in enumerate(operands)
        if isinstance(op, Reg) and not op.is_rz
    )


def reg_bank_conflict(
    sources: Iterable[tuple[int, int]], cache: Mapping[int, int]
) -> bool:
    """Paper footnote 6: 3+ distinct uncached sources in one 64-bit bank.

    *sources* are (slot, register) pairs (:func:`reg_sources`); *cache*
    maps an operand slot to the register the reuse cache holds for it: a
    ``.reuse`` flag on slot *s* serves that register to the next
    participating instruction's slot *s* without a bank read.  Registers
    alternate between the two banks by index parity, and one read feeds
    every slot that names the same register.
    """
    uncached = {reg for slot, reg in sources if cache.get(slot) != reg}
    return len(uncached) >= 3 and len({reg & 1 for reg in uncached}) == 1


# ---------------------------------------------------------------------------
# Occupancy
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ArchLimits:
    """Per-SM resource limits of one architecture (§7.1).

    ``repro.gpusim.arch.DeviceSpec`` has the same fields and takes its
    values from :data:`VOLTA_LIMITS` and :data:`TURING_LIMITS`.
    """

    name: str = "turing-sm"
    max_warps_per_sm: int = 32
    max_threads_per_block: int = 1024
    registers_per_sm: int = 65536
    smem_per_sm: int = 64 * 1024
    smem_per_block: int = 64 * 1024
    max_registers_per_thread: int = 255

    def fields(self) -> dict[str, int]:
        """The numeric limits by field name (``DeviceSpec`` keywords)."""
        return {
            f.name: getattr(self, f.name)
            for f in dataclasses.fields(self)
            if f.name != "name"
        }


#: The Turing SM (RTX 2070), sasslint's default: 32 warps, 64 KB shared memory.
TURING_LIMITS = ArchLimits()
#: The Volta SM (V100): 64 warps and 96 KB of shared memory.
VOLTA_LIMITS = ArchLimits(
    name="volta-sm",
    max_warps_per_sm=64,
    smem_per_sm=96 * 1024,
    smem_per_block=96 * 1024,
)


class SMLimits(Protocol):
    """What :func:`blocks_per_sm` reads: ``ArchLimits`` or a ``DeviceSpec``."""

    @property
    def max_warps_per_sm(self) -> int: ...
    @property
    def max_threads_per_block(self) -> int: ...
    @property
    def registers_per_sm(self) -> int: ...
    @property
    def smem_per_sm(self) -> int: ...
    @property
    def smem_per_block(self) -> int: ...
    @property
    def max_registers_per_thread(self) -> int: ...


#: Limiters that reject one block on its own, however empty the SM.
PER_BLOCK_LIMITS = frozenset({
    "threads-per-block limit",
    "registers-per-thread limit",
    "shared-memory-per-block limit",
})


def blocks_per_sm(
    limits: SMLimits, warps: int, regs_per_thread: int, smem_bytes: int
) -> tuple[int, str]:
    """Concurrent blocks per SM and the resource that limits them.

    A block that breaks a :data:`PER_BLOCK_LIMITS` limit gets 0 blocks
    and that limit's name.  Otherwise the count is the smallest of the
    warp, register and shared-memory quotients, and the limiter is the
    resource that gives it (ties go to the alphabetically first name).
    """
    if warps * 32 > limits.max_threads_per_block:
        return 0, "threads-per-block limit"
    if regs_per_thread > limits.max_registers_per_thread:
        return 0, "registers-per-thread limit"
    if smem_bytes > limits.smem_per_block:
        return 0, "shared-memory-per-block limit"
    by = {
        "warps": limits.max_warps_per_sm // max(warps, 1),
        # 32 × regs/thread per warp, with no allocation-granule rounding.
        "registers": limits.registers_per_sm
        // (max(regs_per_thread, 1) * 32 * max(warps, 1)),
        "shared memory": (
            limits.smem_per_sm // smem_bytes
            if smem_bytes > 0
            else limits.max_warps_per_sm
        ),
    }
    limiter = min(by, key=lambda k: (by[k], k))
    return max(0, by[limiter]), limiter


# ---------------------------------------------------------------------------
# Integer lane arithmetic
# ---------------------------------------------------------------------------

_CMP: dict[str, Callable[[Any, Any], Any]] = {
    "EQ": operator.eq, "NE": operator.ne, "LT": operator.lt,
    "LE": operator.le, "GT": operator.gt, "GE": operator.ge,
}
_BOOL: dict[str, Callable[[Any, Any], Any]] = {
    "AND": operator.and_, "OR": operator.or_, "XOR": operator.xor,
}
_LO32 = np.uint64(0xFFFFFFFF)
_HI_SHIFT = np.uint64(32)


def _s32(v: Any) -> Any:
    return np.asarray(v, dtype=_U32).view(np.int32)


def setp_mode(flags: Sequence[str]) -> tuple[str, str, bool]:
    """ISETP's (comparison, combine op, unsigned) from its flags."""
    return (
        next((f for f in flags if f in _CMP), "EQ"),
        next((f for f in flags if f in _BOOL), "AND"),
        "U32" in flags,
    )


def lop3_op(flags: Sequence[str]) -> str:
    """LOP3's logic op: ``d = (a OP b) ^ c`` (AND unless OR/XOR given)."""
    return next((f for f in flags if f in ("AND", "OR", "XOR")), "AND")


def isetp(
    a: Any, b: Any, combine: Any, cmp: str, bool_op: str, unsigned: bool
) -> np.ndarray:
    """ISETP: ``(a cmp b) bool_op combine`` per lane, on s32 or u32."""
    if not unsigned:
        a, b = _s32(a), _s32(b)
    return _BOOL[bool_op](_CMP[cmp](a, b), combine)


#: Single-destination integer opcodes :func:`int_alu` evaluates.
INT_ALU_OPCODES = frozenset(
    {"IADD3", "IMAD", "LOP3", "SHF", "MOV", "SEL", "CS2R", "POPC"}
)


def int_alu(
    name: str, srcs: Sequence[Any], lop3: str = "AND", shf_left: bool = False
) -> Any:
    """The uint32 result of an :data:`INT_ALU_OPCODES` instruction.

    Arithmetic wraps modulo 2**32.  *lop3* is the op from
    :func:`lop3_op`; *shf_left* picks SHF.L (``a << sh`` funnelling in
    the high bits of ``c``) over SHF.R.  SEL returns its first source:
    its predicate select is not modelled.
    """
    if name == "IADD3":
        return np.asarray(srcs[0] + srcs[1] + srcs[2]).astype(_U32, copy=False)
    if name == "IMAD":
        return np.asarray(srcs[0] * srcs[1] + srcs[2]).astype(_U32, copy=False)
    if name == "LOP3":
        a, b, c = srcs
        if lop3 == "AND":
            return (a & b) ^ c
        if lop3 == "OR":
            return (a | b) ^ c
        return a ^ b ^ c
    if name == "SHF":
        a, sh, c = srcs
        sh = sh & _U32(31)
        back = (_U32(32) - sh) & _U32(31)
        if shf_left:
            hi_in = np.where(sh > 0, c >> back, _U32(0))
            return ((a << sh) | hi_in).astype(_U32)
        hi_in = np.where(sh > 0, c << back, _U32(0))
        return ((a >> sh) | hi_in).astype(_U32)
    if name in ("MOV", "SEL"):
        return srcs[0]
    if name == "CS2R":
        return np.zeros(32, dtype=_U32)
    if name == "POPC":
        v = np.ascontiguousarray(srcs[0], dtype=_U32)
        bits = np.unpackbits(v.view(np.uint8)).reshape(v.shape + (32,))
        return bits.sum(axis=-1).astype(_U32)
    raise KeyError(f"{name} is not an integer ALU opcode")


def imad_wide(
    a: Any, b: Any, addend: Any, unsigned: bool
) -> tuple[np.ndarray, np.ndarray]:
    """IMAD.WIDE: ``a * b + addend`` in 64 bits, as (low, high) words.

    The product is u32 × u32 or s32 × s32 (sign-extended); *addend* is
    the 64-bit register pair (or a zero-extended 32-bit source), and the
    sum wraps modulo 2**64.
    """
    if unsigned:
        prod = np.asarray(a).astype(np.uint64) * np.asarray(b).astype(np.uint64)
    else:
        prod = (
            _s32(a).astype(np.int64) * _s32(b).astype(np.int64)
        ).astype(np.uint64)
    total = prod + np.asarray(addend).astype(np.uint64)
    return (total & _LO32).astype(_U32), (total >> _HI_SHIFT).astype(_U32)


def p2r(preds: Mapping[int, Any]) -> Any:
    """P2R: predicate lanes packed into a register, predicate i at bit i."""
    vals = np.zeros(32, dtype=_U32)
    for i, pred in preds.items():
        vals = vals | (pred.astype(_U32) << _U32(i))
    return vals


def r2p(src: Any, i: int) -> Any:
    """R2P: the lanes of predicate i, unpacked from bit i of *src*."""
    return (src >> _U32(i)) & _U32(1) != 0


def pair64(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The 64-bit value of a register pair (``R(n)``, ``R(n+1)``), as int64."""
    return lo.astype(np.int64) | (hi.astype(np.int64) << 32)


def special_register(
    sr_id: int, warp: np.ndarray, lane: np.ndarray, ctaid: Sequence[Any]
) -> Any:
    """S2R: special register *sr_id* (:data:`repro.sass.isa.SPECIAL_REGISTERS`).

    *warp* holds warp ids as a ``(g, 1)`` column, *lane* the 32 lane
    ids, and *ctaid* the block index's x, y, z values.  Blocks are 1-D,
    so ``SR_TID.X = 32 · warp + lane`` and ``SR_TID.Y/Z`` are 0.
    """
    if sr_id == 0:
        return warp * _U32(32) + lane
    if sr_id in (1, 2):
        return np.zeros_like(lane)
    if sr_id in (3, 4, 5):
        return ctaid[sr_id - 3]
    if sr_id == 6:
        return lane
    return warp  # SR_VIRTID
