"""Instruction IR — the common currency of parser, encoder and simulator.

A parsed/decoded instruction keeps its operands in *semantic* slots
rather than raw text order:

* ``guard`` — the @Pn predicate gate (PT when absent);
* ``dest`` — destination regular register, if any;
* ``dest_preds`` — predicate destinations (ISETP);
* ``srcs`` — register/immediate/constant source operands in ISA order;
* ``src_pred`` — the predicate *input* of ISETP's boolean combine;
* ``mem`` — the ``[Rn + off]`` reference of memory instructions;
* ``flags`` — ``.SUFFIX`` modifiers, validated against the opcode table.

Operand-B convention (see :mod:`repro.sass.isa`): in multi-source
instructions source slot 1 may be an immediate or constant; in
single-source instructions slot 0 may.  Everything else must be a
register.
"""

from __future__ import annotations

import dataclasses
import functools

from ..common.errors import EncodingError
from .control import ControlCode
from .isa import SUBWORD_FLAGS, OpSpec, spec_for, width_of
from .operands import Const, Imm, Mem, Operand, Pred, Reg


@dataclasses.dataclass
class Instruction:
    name: str
    flags: tuple[str, ...] = ()
    guard: Pred = dataclasses.field(default_factory=lambda: Pred(7))
    dest: Reg | None = None
    dest_preds: tuple[Pred, ...] = ()
    srcs: tuple[Operand, ...] = ()
    src_pred: Pred | None = None
    mem: Mem | None = None
    control: ControlCode = dataclasses.field(default_factory=ControlCode)
    target: str | int | None = None  # BRA: label name, or resolved offset
    line: int = 0

    @functools.cached_property
    def spec(self) -> OpSpec:
        return spec_for(self.name)

    # ------------------------------------------------------------------
    def b_slot(self) -> int | None:
        """Index in ``srcs`` that may hold an Imm/Const, or None."""
        n = len(self.srcs)
        if n == 0:
            return None
        return 1 if n >= 2 else 0

    def validate(self) -> None:
        """Structural checks shared by the parser and programmatic builders."""
        spec = self.spec
        for flag in self.flags:
            if spec.valid_flags and flag not in spec.valid_flags:
                raise EncodingError(f"{self.name}: invalid flag .{flag}")
        if spec.has_dest and self.dest is None:
            raise EncodingError(f"{self.name}: missing destination register")
        if not spec.has_dest and self.dest is not None:
            raise EncodingError(f"{self.name}: unexpected destination register")
        b = self.b_slot()
        for i, src in enumerate(self.srcs):
            if isinstance(src, (Imm, Const)) and i != b:
                raise EncodingError(
                    f"{self.name}: operand {i} cannot be an immediate/constant "
                    f"(only slot {b} encodes operand B)"
                )
            if not isinstance(src, (Reg, Imm, Const)):
                raise EncodingError(
                    f"{self.name}: bad source operand {src!r} in slot {i}"
                )
        # Reuse bits are per *register* source slot; a flag on any other
        # slot has no operand to cache and no textual representation.
        for slot in range(4):
            if self.control.reuse & (1 << slot):
                if slot >= len(self.srcs) or not isinstance(self.srcs[slot], Reg):
                    raise EncodingError(
                        f"{self.name}: reuse flag on slot {slot}, which holds "
                        "no register operand"
                    )
        if spec.is_load or spec.is_store:
            for flag in self.flags:
                if flag in SUBWORD_FLAGS:
                    raise EncodingError(
                        f"{self.name}.{flag}: sub-word memory accesses are not "
                        "supported (use .32, .64 or .128)"
                    )
            if spec.mem_space != "constant" and self.mem is None:
                raise EncodingError(f"{self.name}: memory instruction needs [R + off]")
        # Vector-register alignment: destination of a 64/128-bit access must
        # be a 2/4-aligned register (requirement (i) of §4.3).
        width = {"64": 2, "128": 4}
        for flag in self.flags:
            if flag in width:
                vec = width[flag]
                reg = self.dest if spec.is_load else self._store_data_reg()
                if reg is not None and not reg.is_rz and reg.index % vec:
                    raise EncodingError(
                        f"{self.name}.{flag}: R{reg.index} must be "
                        f"{vec}-register aligned"
                    )

    def _store_data_reg(self) -> Reg | None:
        if self.spec.is_store and self.srcs:
            data = self.srcs[-1]
            return data if isinstance(data, Reg) else None
        return None

    # ------------------------------------------------------------------
    # Operand lists.  Each is computed once and cached on the instance;
    # the parser computes them on its memoized prototype, so the copies
    # of one statement share the same lists.  Callers must not mutate
    # them.
    def reads_registers(self) -> list[int]:
        """Regular-register indices this instruction reads (RZ excluded)."""
        cached = self.__dict__.get("_reads_cache")
        if cached is not None:
            return cached
        data = self._store_data_reg()
        regs: list[int] = []
        for src in self.srcs:
            if isinstance(src, Reg) and not src.is_rz and src is not data:
                regs.append(src.index)
        if self.mem is not None and not self.mem.base.is_rz:
            regs.append(self.mem.base.index)
        # Wide memory stores read a register vector starting at the data reg.
        if data is not None and not data.is_rz:
            nregs = max(1, width_of(self.flags) // 4)
            regs.extend(range(data.index, data.index + nregs))
        # Operands are immutable after parsing (only ``control`` is
        # rewritten by the scheduler), so the answer never changes.
        self.__dict__["_reads_cache"] = regs
        return regs

    def writes_registers(self) -> list[int]:
        """Regular-register indices this instruction writes."""
        cached = self.__dict__.get("_writes_cache")
        if cached is not None:
            return cached
        regs: list[int]
        if self.dest is None or self.dest.is_rz:
            regs = []
        elif self.spec.is_load:
            nregs = max(1, width_of(self.flags) // 4)
            regs = list(range(self.dest.index, self.dest.index + nregs))
        elif self.name == "IMAD" and "WIDE" in self.flags:
            regs = [self.dest.index, self.dest.index + 1]
        else:
            regs = [self.dest.index]
        self.__dict__["_writes_cache"] = regs
        return regs

    def reads_predicates(self) -> list[int]:
        cached = self.__dict__.get("_rpreds_cache")
        if cached is not None:
            return cached
        preds = []
        if not self.guard.is_pt:
            preds.append(self.guard.index)
        if self.src_pred is not None and not self.src_pred.is_pt:
            preds.append(self.src_pred.index)
        self.__dict__["_rpreds_cache"] = preds
        return preds

    def writes_predicates(self) -> list[int]:
        cached = self.__dict__.get("_wpreds_cache")
        if cached is not None:
            return cached
        preds = [p.index for p in self.dest_preds if not p.is_pt]
        if self.name == "R2P" and self.srcs:
            mask = self.srcs[-1]
            if isinstance(mask, Imm):
                preds.extend(i for i in range(7) if mask.bits & (1 << i))
        self.__dict__["_wpreds_cache"] = preds
        return preds

    # ------------------------------------------------------------------
    def text(self, with_control: bool = True) -> str:
        """Render back to canonical source text."""
        parts = []
        if with_control:
            parts.append(self.control.text())
        if not self.guard.is_pt or self.guard.negated:
            parts.append(f"@{self.guard.text()}")
        if self.name == "S2R":
            # The SR name is carried as a flag but printed as an operand.
            sr = next((f for f in self.flags if f.startswith("SR_")), "SR_TID.X")
            parts.append(f"S2R {self.dest.text()}, {sr};")
            return " ".join(parts)
        mnem = self.name + "".join(f".{f}" for f in self.flags)
        operand_texts: list[str] = []
        for p in self.dest_preds:
            operand_texts.append(p.text())
        if self.dest is not None:
            operand_texts.append(self.dest.text())
        if self.spec.is_store and self.mem is not None:
            operand_texts.append(self.mem.text())
            operand_texts.extend(s.text() for s in self.srcs[-1:])
        else:
            operand_texts.extend(s.text() for s in self.srcs)
            if self.mem is not None:
                operand_texts.append(self.mem.text())
        if self.src_pred is not None:
            operand_texts.append(self.src_pred.text())
        if self.target is not None:
            operand_texts.append(
                self.target if isinstance(self.target, str) else f"{self.target:#x}"
            )
        body = mnem + (" " + ", ".join(operand_texts) if operand_texts else "")
        parts.append(body + ";")
        return " ".join(parts)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.text()
