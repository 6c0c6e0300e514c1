"""SASS source parser: text → :class:`Instruction` IR.

Accepted line grammar (one statement per line)::

    LABEL:
    [B------:R-:W-:-:S01] @!P3 FFMA.FTZ R0, R1, c[0x0][0x160], R2;  // note
    LDG.E.128 R16, [R2 + 0x100];
    ISETP.LT.AND P0, PT, R3, 0x20, PT;
    S2R R0, SR_TID.X;
    P2R R5, 0xf;      R2P R5, 0xf;
    BRA MAIN_LOOP;    BAR.SYNC;    EXIT;

The control-code prefix is optional; when omitted it defaults to
``ControlCode()`` and the assembler's ``auto_schedule`` pass
(:func:`repro.sass.analysis.ctrlcodes.schedule`) is expected to fill in
stalls, waits and barriers.  ``.reuse`` operand suffixes
set that operand slot's reuse bit in the control word.
"""

from __future__ import annotations

import copy
import dataclasses
import re

from ..common.cache import LRUCache
from ..common.errors import SassSyntaxError
from .control import ControlCode, parse_control
from .instruction import Instruction
from .isa import SPECIAL_REGISTERS, spec_for
from .operands import Const, Imm, Mem, Pred, Reg, parse_operand

_LABEL_RE = re.compile(r"^([A-Za-z_][A-Za-z_0-9.$]*):$")
_GUARD_RE = re.compile(r"^@(!?)(P[0-6T])$")
_MNEMONIC_RE = re.compile(r"^[A-Z][A-Z0-9]*(\.[A-Za-z0-9_.]+)*$")


@dataclasses.dataclass
class ParsedProgram:
    """Instruction list plus label → instruction-index map."""

    instructions: list[Instruction]
    labels: dict[str, int]


def _strip_comment(line: str) -> str:
    for marker in ("//", "#"):
        pos = line.find(marker)
        if pos >= 0:
            line = line[:pos]
    return line.strip()


def _split_operands(text: str) -> list[str]:
    """Split on commas that are not inside ``[...]`` memory brackets."""
    parts: list[str] = []
    depth = 0
    current = []
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    tail = "".join(current).strip()
    if tail:
        parts.append(tail)
    return parts


# Kernel sources repeat the same statement text heavily (unrolled FFMA
# blocks, and whole loop bodies shared across tunables that differ only
# in layout), so successful parses are memoized by statement text.  The
# memo holds a prototype; callers get a shallow copy, which is safe
# because operands are frozen and every post-parse rewrite (control,
# target) is a per-instance attribute assignment.  The prototype's
# operand lists are computed when it is built, so every copy shares
# them (read-only) instead of recomputing them once per build.
_PARSE_MEMO: LRUCache[Instruction] = LRUCache(65536)


def parse_line(line: str, lineno: int = 0) -> Instruction | None:
    """Parse one source line; returns None for blank/comment lines."""
    text = _strip_comment(line)
    if not text:
        return None
    proto = _PARSE_MEMO.get_or_build(text, lambda: _prototype(text, lineno))
    instr = copy.copy(proto)
    instr.line = lineno
    return instr


def _prototype(text: str, lineno: int) -> Instruction:
    """The memo entry for *text*: its parse, with the operand lists cached."""
    instr = _parse_statement(text, lineno)
    instr.reads_registers()
    instr.writes_registers()
    instr.reads_predicates()
    instr.writes_predicates()
    return instr


def _parse_statement(text: str, lineno: int) -> Instruction:
    control = ControlCode()
    if text.startswith("["):
        end = text.find("]")
        if end < 0:
            raise SassSyntaxError("unterminated control code", lineno)
        control = parse_control(text[: end + 1], lineno)
        text = text[end + 1 :].strip()

    guard = Pred(7)
    if text.startswith("@"):
        head, _, rest = text.partition(" ")
        m = _GUARD_RE.match(head)
        if not m:
            raise SassSyntaxError(f"malformed guard predicate {head!r}", lineno)
        idx = 7 if m.group(2) == "PT" else int(m.group(2)[1])
        guard = Pred(idx, negated=bool(m.group(1)))
        text = rest.strip()

    if not text.endswith(";"):
        raise SassSyntaxError("missing trailing ';'", lineno)
    text = text[:-1].strip()

    mnem, _, operand_text = text.partition(" ")
    if not _MNEMONIC_RE.match(mnem):
        raise SassSyntaxError(f"malformed mnemonic {mnem!r}", lineno)
    name, *flags = mnem.split(".")
    try:
        spec = spec_for(name)
    except KeyError as exc:
        raise SassSyntaxError(str(exc), lineno) from None
    # Canonicalize flag order to the opcode table's order so that
    # parse → encode → decode → text round-trips exactly.
    flags.sort(
        key=lambda f: spec.valid_flags.index(f) if f in spec.valid_flags else 99
    )

    tokens = _split_operands(operand_text) if operand_text.strip() else []
    instr = Instruction(
        name=name,
        flags=tuple(flags),
        guard=guard,
        control=control,
        line=lineno,
    )

    # ---- per-category operand assembly -----------------------------------
    if name == "BRA":
        if len(tokens) != 1:
            raise SassSyntaxError("BRA takes exactly one target", lineno)
        instr.target = tokens[0]
        _apply_reuse(instr)
        return instr
    if name in ("EXIT", "NOP", "BAR"):
        if tokens:
            raise SassSyntaxError(f"{name} takes no operands", lineno)
        return instr
    if name == "S2R":
        if len(tokens) != 2 or tokens[1] not in SPECIAL_REGISTERS:
            raise SassSyntaxError(
                f"S2R needs 'S2R Rd, SR_NAME' with SR in {sorted(SPECIAL_REGISTERS)}",
                lineno,
            )
        instr.dest = _expect_reg(tokens[0], lineno)
        instr.flags = instr.flags + (tokens[1],)
        return instr

    ops = [
        tok if tok in SPECIAL_REGISTERS else parse_operand(tok, lineno)
        for tok in tokens
    ]

    if name == "ISETP":
        # ISETP.CMP.BOOL Pdst, Pdst2, Ra, B, Pcombine
        if len(ops) != 5:
            raise SassSyntaxError("ISETP needs 5 operands", lineno)
        p0, p1, ra, b, pc = ops
        if not isinstance(p0, Pred) or not isinstance(p1, Pred):
            raise SassSyntaxError("ISETP destinations must be predicates", lineno)
        if not isinstance(pc, Pred):
            raise SassSyntaxError("ISETP combine source must be a predicate", lineno)
        instr.dest_preds = (p0, p1)
        instr.srcs = (ra, b)
        instr.src_pred = pc
    elif name in ("P2R", "R2P"):
        if len(ops) != 2 or not isinstance(ops[0], Reg) or not isinstance(ops[1], Imm):
            raise SassSyntaxError(f"{name} needs 'Rd, mask-immediate'", lineno)
        if name == "P2R":
            instr.dest = ops[0]
            instr.srcs = (ops[1],)
        else:
            instr.srcs = (ops[0], ops[1])
    elif spec.is_store:
        if len(ops) != 2 or not isinstance(ops[0], Mem):
            raise SassSyntaxError(f"{name} needs '[Rb + off], Rdata'", lineno)
        instr.mem = ops[0]
        instr.srcs = (_expect_reg_operand(ops[1], lineno),)
    elif spec.is_load:
        if len(ops) != 2 or not isinstance(ops[1], Mem):
            raise SassSyntaxError(f"{name} needs 'Rd, [Rb + off]'", lineno)
        instr.dest = _expect_reg_operand(ops[0], lineno)
        instr.mem = ops[1]
    else:
        # Generic ALU/FMA: Rd, then spec.num_srcs sources.
        expected = (1 if spec.has_dest else 0) + spec.num_srcs
        if len(ops) != expected:
            raise SassSyntaxError(
                f"{mnem} expects {expected} operands, got {len(ops)}", lineno
            )
        if spec.has_dest:
            instr.dest = _expect_reg_operand(ops[0], lineno)
            instr.srcs = tuple(ops[1:])
        else:
            instr.srcs = tuple(ops)

    _apply_reuse(instr)
    try:
        instr.validate()
    except Exception as exc:  # re-raise with line info
        raise SassSyntaxError(str(exc), lineno) from None
    return instr


def _expect_reg(token: str, lineno: int) -> Reg:
    op = parse_operand(token, lineno)
    return _expect_reg_operand(op, lineno)


def _expect_reg_operand(op, lineno: int) -> Reg:
    if not isinstance(op, Reg):
        raise SassSyntaxError(f"expected a register, got {op!r}", lineno)
    return op


def _apply_reuse(instr: Instruction) -> None:
    """Fold per-operand ``.reuse`` suffixes into the control word."""
    control = instr.control
    for slot, src in enumerate(instr.srcs):
        if isinstance(src, Reg) and src.reuse:
            control = control.with_reuse_slot(slot)
    instr.control = control


def parse_program(source: str) -> ParsedProgram:
    """Parse a full SASS listing (after preprocessing)."""
    instructions: list[Instruction] = []
    labels: dict[str, int] = {}
    for lineno, raw in enumerate(source.splitlines(), start=1):
        text = _strip_comment(raw)
        if not text:
            continue
        m = _LABEL_RE.match(text)
        if m:
            label = m.group(1)
            if label in labels:
                raise SassSyntaxError(f"duplicate label {label!r}", lineno)
            labels[label] = len(instructions)
            continue
        instr = parse_line(text, lineno)
        if instr is not None:
            instructions.append(instr)
    return ParsedProgram(instructions, labels)
