"""The assembler driver: source text → assembled kernel.

Pipeline (mirroring TuringAs):

1. :mod:`preprocess` — inline Python, register aliases, directives;
2. :mod:`parser` — text → IR, labels collected;
3. label resolution — ``BRA`` targets become relative instruction
   displacements (in instructions, i.e. 16-byte units);
4. optional control-code repair (``auto_schedule=True``) and check
   (``strict=True``), both over the CFG (:mod:`.analysis.ctrlcodes`);
5. register audit — highest register used must stay under the 253-register
   ceiling the paper measured (footnote 7);
6. :mod:`encoder` — IR → 128-bit words.

The result bundles everything the simulator and the cubin writer need.
"""

from __future__ import annotations

import dataclasses

from ..common.errors import AssemblerError, RegisterBudgetError, SassSyntaxError
from .analysis.ctrlcodes import schedule, validate_control
from .encoder import encode_program
from .instruction import Instruction
from .isa import MAX_USABLE_REGISTERS
from .parser import parse_program
from .preprocess import KernelMeta, preprocess


@dataclasses.dataclass
class AssembledKernel:
    """A fully assembled kernel ready to write to a cubin or simulate."""

    meta: KernelMeta
    instructions: list[Instruction]
    labels: dict[str, int]
    text: bytes

    @property
    def num_instructions(self) -> int:
        return len(self.instructions)

    def max_register(self) -> int:
        """Highest regular register index referenced (or -1 if none)."""
        top = -1
        for instr in self.instructions:
            for reg in instr.reads_registers() + instr.writes_registers():
                if reg < 255:
                    top = max(top, reg)
        return top

    def disassemble(self) -> str:
        """Canonical listing with labels and control codes.

        Resolved branch displacements are rendered back as labels so the
        listing reassembles to the same bytes.
        """
        index_to_label = {v: k for k, v in self.labels.items()}
        lines = []
        for i, instr in enumerate(self.instructions):
            if i in index_to_label:
                lines.append(f"{index_to_label[i]}:")
            if instr.name == "BRA" and isinstance(instr.target, int):
                target_idx = i + 1 + instr.target
                if target_idx in index_to_label:
                    saved = instr.target
                    instr.target = index_to_label[target_idx]
                    lines.append("    " + instr.text())
                    instr.target = saved
                    continue
            lines.append("    " + instr.text())
        return "\n".join(lines)


def assemble(
    source: str,
    env: dict[str, object] | None = None,
    auto_schedule: bool = False,
    strict: bool = False,
) -> AssembledKernel:
    """Assemble SASS source text.

    Parameters
    ----------
    source: SASS listing (may contain directives and inline Python).
    env: variables visible to inline Python blocks and ``{{ }}`` splices.
    auto_schedule: add the stalls, waits and barriers the program's
        hazards need, on every branch and loop path
        (:func:`~repro.sass.analysis.ctrlcodes.schedule`).
    strict: raise if :func:`~repro.sass.analysis.ctrlcodes.validate_control`
        finds violations.
    """
    pre = preprocess(source, env)
    parsed = parse_program(pre.source)
    instructions = parsed.instructions
    if not instructions:
        raise AssemblerError("empty program")

    # Resolve BRA labels to relative displacements (in instructions).
    for pos, instr in enumerate(instructions):
        if instr.name == "BRA" and isinstance(instr.target, str):
            label = instr.target
            if label not in parsed.labels:
                raise SassSyntaxError(f"undefined label {label!r}", instr.line)
            instr.target = parsed.labels[label] - (pos + 1)

    if auto_schedule:
        schedule(instructions)
    if strict:
        problems = validate_control(instructions)
        if problems:
            raise AssemblerError(
                "control-code hazards detected:\n  " + "\n  ".join(problems[:20])
            )

    top = -1
    for instr in instructions:
        for reg in instr.reads_registers() + instr.writes_registers():
            if reg < 255:
                top = max(top, reg)
    if top + 1 > MAX_USABLE_REGISTERS:
        raise RegisterBudgetError(
            f"kernel uses R{top} but only {MAX_USABLE_REGISTERS} registers are "
            "usable (paper §5.2.1 footnote: the hardware rejects >= 253)"
        )
    meta = pre.meta
    if meta.registers < top + 1:
        meta = dataclasses.replace(meta, registers=top + 1)

    return AssembledKernel(
        meta=meta,
        instructions=instructions,
        labels=parsed.labels,
        text=encode_program(instructions),
    )


def assemble_file(
    path: str,
    env: dict[str, object] | None = None,
    auto_schedule: bool = False,
    strict: bool = False,
) -> AssembledKernel:
    with open(path, "r", encoding="utf-8") as fh:
        return assemble(fh.read(), env, auto_schedule, strict)
