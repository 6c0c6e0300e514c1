"""TuringAs reimplementation: a SASS assembler for Volta/Turing (paper §5).

Typical use::

    from repro.sass import assemble, write_cubin

    kernel = assemble('''
        .kernel saxpy
        .registers 8
        .param 8 x_ptr
        .param 4 a
        {%
        for i in range(4):
            emit(f"FFMA R{i}, R{i+4}, c[0x0][0x168], R{i};")
        %}
        EXIT;
    ''', auto_schedule=True)
    blob = write_cubin(kernel)
"""

from .analysis import (
    AnalysisContext,
    AnalysisPass,
    ControlCodePass,
    Diagnostic,
    LivenessPass,
    RegisterBankPass,
    Severity,
    SharedMemoryPass,
    lint_instructions,
    lint_kernel,
)
from .analysis.ctrlcodes import schedule, validate_control
from .assembler import AssembledKernel, assemble, assemble_file
from .control import NO_BARRIER, ControlCode, parse_control
from .cubin import LoadedCubin, read_cubin, write_cubin
from .encoder import (
    INSTRUCTION_BYTES,
    decode_instruction,
    decode_program,
    encode_instruction,
    encode_program,
)
from .instruction import Instruction
from .isa import (
    MAX_USABLE_REGISTERS,
    NUM_PREDICATES,
    NUM_WAIT_BARRIERS,
    OPCODES,
    PT,
    RZ,
    OpSpec,
    spec_for,
    width_of,
)
from .operands import Const, Imm, Mem, Pred, Reg, parse_operand
from .parser import parse_line, parse_program
from .preprocess import PARAM_BASE, KernelMeta, preprocess

__all__ = [
    "AnalysisContext",
    "AnalysisPass",
    "AssembledKernel",
    "Const",
    "ControlCode",
    "ControlCodePass",
    "Diagnostic",
    "INSTRUCTION_BYTES",
    "Imm",
    "Instruction",
    "KernelMeta",
    "LivenessPass",
    "LoadedCubin",
    "MAX_USABLE_REGISTERS",
    "Mem",
    "NO_BARRIER",
    "NUM_PREDICATES",
    "NUM_WAIT_BARRIERS",
    "OPCODES",
    "OpSpec",
    "PARAM_BASE",
    "PT",
    "Pred",
    "RZ",
    "Reg",
    "RegisterBankPass",
    "Severity",
    "SharedMemoryPass",
    "assemble",
    "assemble_file",
    "decode_instruction",
    "decode_program",
    "encode_instruction",
    "encode_program",
    "lint_instructions",
    "lint_kernel",
    "parse_control",
    "parse_line",
    "parse_operand",
    "parse_program",
    "preprocess",
    "read_cubin",
    "schedule",
    "spec_for",
    "validate_control",
    "width_of",
    "write_cubin",
]
