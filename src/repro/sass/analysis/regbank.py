"""Register-bank-conflict and ``.reuse`` validation pass (§4.3, §5.2.2).

Volta/Turing split the register file into two 64-bit banks (even/odd
register index — paper footnote 6).  An FMA/ALU instruction whose
register sources all live in one bank pays an extra issue cycle unless
one of them is served by the operand **reuse cache**: a ``.reuse`` flag
on operand slot *s* keeps that register's value latched for the *next*
instruction's slot *s*.

The pass replays the cache the way the simulator's scheduler does
(:func:`repro.gpusim.sm.schedule`) and reports:

* ``RB001`` (warning) — three or more distinct un-cached register
  sources in one bank: the conflict the Fig. 4 register plan eliminates,
  found by :func:`repro.sass.hw.reg_bank_conflict`, the function the
  simulator's decode charges the extra cycle with;
* ``RB002`` (error) — a consumer is served a **stale** value: the
  cached register was overwritten after the flag latched it.  The
  functional simulator reads the register file and hides this, but real
  hardware serves the latched (old) value;
* ``RB003`` (warning) — a ``.reuse`` flag no instruction consumes (the
  next instruction's matching slot reads a different register), i.e.
  the flag buys nothing — usually an interleaving bug, see
  :func:`repro.kernels.schedules.weave`;
* ``RB004`` (warning) — ``.reuse`` combined with the yield flag: a
  requested warp switch forfeits the cache (§6.1), so the flag cannot
  serve its consumer.

The cache model is intentionally the simulator's: only the opcodes in
:data:`repro.sass.isa.REUSE_CACHE_OPCODES` read or replace the cache,
every other instruction passes it through untouched, and branches and
branch targets reset it (the incoming state is ambiguous across control
flow).
"""

from __future__ import annotations

import dataclasses

from ..hw import reg_bank_conflict, reg_sources
from ..instruction import Instruction
from ..isa import REUSE_CACHE_OPCODES
from ..operands import Reg
from .base import AnalysisContext, AnalysisPass
from .diagnostics import Diagnostic, Severity


@dataclasses.dataclass
class _CacheEntry:
    reg: int
    producer_pos: int
    stale: bool = False  # overwritten since the flag latched it


class RegisterBankPass(AnalysisPass):
    name = "register-bank"
    rules = ("RB001", "RB002", "RB003", "RB004")

    def run(self, ctx: AnalysisContext) -> list[Diagnostic]:
        diags: list[Diagnostic] = []
        cache: dict[int, _CacheEntry] = {}
        consumed: set[tuple[int, int]] = set()  # (producer_pos, slot) pairs

        branch_targets = _branch_targets(ctx.instructions)

        for pos, instr in enumerate(ctx.instructions):
            if pos in branch_targets:
                # Incoming cache state is ambiguous across control flow;
                # drop entries without judging their consumption.
                for slot in list(cache):
                    consumed.add((cache[slot].producer_pos, slot))
                cache.clear()

            # Any write invalidates matching cache entries (the latch keeps
            # the old value; hardware will happily serve it — stale).
            writes = set(instr.writes_registers())
            for entry in cache.values():
                if entry.reg in writes:
                    entry.stale = True

            if instr.name not in REUSE_CACHE_OPCODES:
                if instr.name in ("BRA", "EXIT", "BAR"):
                    for slot in list(cache):
                        consumed.add((cache[slot].producer_pos, slot))
                    cache.clear()
                continue

            # ---- consume: which sources are served by the cache? ----------
            sources = reg_sources(instr.srcs)
            for slot, reg in sources:
                entry = cache.get(slot)
                if entry is None or entry.reg != reg:
                    continue
                consumed.add((entry.producer_pos, slot))
                if entry.stale:
                    diags.append(Diagnostic(
                        rule="RB002",
                        severity=Severity.ERROR,
                        pos=pos,
                        instruction=instr.name,
                        message=(
                            f"operand slot {slot} reads R{reg} from the "
                            f"reuse cache, but R{reg} was overwritten "
                            f"after instr {entry.producer_pos} latched it — "
                            "hardware serves the stale value"
                        ),
                        hint="drop the .reuse flag or move the overwrite "
                             "after the consumer",
                    ))

            cached = {slot: entry.reg for slot, entry in cache.items()}
            if reg_bank_conflict(sources, cached):
                bank = next(r & 1 for slot, r in sources if cached.get(slot) != r)
                which = ("even", "odd")[bank]
                regs = ", ".join(f"R{reg}" for _, reg in sources)
                diags.append(Diagnostic(
                    rule="RB001",
                    severity=Severity.WARNING,
                    pos=pos,
                    instruction=instr.name,
                    message=(
                        f"all register sources ({regs}) read the {which} "
                        "64-bit bank: +1 issue cycle per warp instruction"
                    ),
                    hint="re-allocate one operand to the other bank or serve "
                         "one via a .reuse flag (Fig. 4)",
                ))

            # ---- publish: this instruction's reuse flags replace the cache.
            new_cache: dict[int, _CacheEntry] = {}
            for slot, op in enumerate(instr.srcs):
                if isinstance(op, Reg) and instr.control.reuse & (1 << slot):
                    if instr.control.yield_flag:
                        diags.append(Diagnostic(
                            rule="RB004",
                            severity=Severity.WARNING,
                            pos=pos,
                            instruction=instr.name,
                            message=(
                                f"slot {slot} .reuse flag is combined with the "
                                "yield flag: the warp switch forfeits the reuse "
                                "cache, so the flag cannot serve its consumer"
                            ),
                            hint="keep .reuse producers on non-yield "
                                 "instructions (§6.1)",
                        ))
                        consumed.add((pos, slot))  # judged; don't also RB003
                        continue
                    entry = _CacheEntry(reg=op.index, producer_pos=pos)
                    if op.index in writes:
                        entry.stale = True
                    new_cache[slot] = entry
            # Entries the consumer did not pick up are judged when replaced.
            for slot, entry in cache.items():
                key = (entry.producer_pos, slot)
                if key not in consumed:
                    consumed.add(key)
                    diags.append(_dead_reuse(ctx.instructions, entry, slot))
            cache = new_cache

        for slot, entry in cache.items():
            if (entry.producer_pos, slot) not in consumed:
                diags.append(_dead_reuse(ctx.instructions, entry, slot))
        return diags


def _dead_reuse(
    instructions: list[Instruction], entry: _CacheEntry, slot: int
) -> Diagnostic:
    instr = instructions[entry.producer_pos]
    return Diagnostic(
        rule="RB003",
        severity=Severity.WARNING,
        pos=entry.producer_pos,
        instruction=instr.name,
        message=(
            f"slot {slot} .reuse flag on R{entry.reg} has no consumer: the "
            "next register-file instruction does not read "
            f"R{entry.reg} in slot {slot}"
        ),
        hint="the reuse cache only survives to the immediately following "
             "instruction — keep producer/consumer back-to-back "
             "(schedules.weave never splits them)",
    )


def _branch_targets(instructions: list[Instruction]) -> set[int]:
    targets: set[int] = set()
    for pos, instr in enumerate(instructions):
        if instr.name == "BRA" and isinstance(instr.target, int):
            targets.add(pos + 1 + instr.target)
    return targets
