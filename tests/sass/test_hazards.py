"""Hazard pass: stall insertion, barrier allocation, validation."""

from repro.sass import NO_BARRIER, assemble, parse_program, schedule, validate_control


def _prog(src):
    return parse_program(src).instructions


def test_fixed_latency_stall_inserted():
    instrs = _prog("MOV R0, 0x1;\nIADD3 R1, R0, 0x1, RZ;\nEXIT;\n")
    schedule(instrs)
    assert instrs[0].control.stall >= 4
    assert validate_control(instrs) == []


def test_independent_instructions_not_stalled():
    instrs = _prog("MOV R0, 0x1;\nMOV R1, 0x2;\nMOV R2, 0x3;\nEXIT;\n")
    schedule(instrs)
    assert all(i.control.stall == 1 for i in instrs[:3])


def test_stall_accumulates_over_distance():
    """A consumer 2 instructions later needs less extra stall."""
    instrs = _prog(
        "MOV R0, 0x1;\nMOV R5, 0x2;\nMOV R6, 0x3;\nIADD3 R1, R0, 0x1, RZ;\nEXIT;\n"
    )
    schedule(instrs)
    # 3 default cycles already passed; one more needed.
    assert instrs[2].control.stall >= 2
    assert validate_control(instrs) == []


def test_variable_latency_gets_write_barrier():
    instrs = _prog("LDG.E R0, [R2];\nIADD3 R1, R0, 0x1, RZ;\nEXIT;\n")
    schedule(instrs)
    assert instrs[0].control.write_bar != NO_BARRIER
    assert instrs[1].control.waits_on(instrs[0].control.write_bar)
    assert validate_control(instrs) == []


def test_store_gets_read_barrier_for_war():
    instrs = _prog("STS [R1], R8;\nMOV R8, 0x0;\nEXIT;\n")
    schedule(instrs)
    assert instrs[0].control.read_bar != NO_BARRIER
    assert instrs[1].control.waits_on(instrs[0].control.read_bar)


def test_barrier_shared_across_group():
    """Several loads may share one barrier; the union of regs is tracked."""
    instrs = _prog(
        "[B------:R-:W0:-:S01] LDG.E R0, [R2];\n"
        "[B------:R-:W0:-:S01] LDG.E R1, [R2 + 0x4];\n"
        "[B0-----:R-:W-:-:S01] IADD3 R3, R0, R1, RZ;\nEXIT;\n"
    )
    assert validate_control(instrs) == []


def test_validator_flags_missing_wait():
    instrs = _prog(
        "[B------:R-:W0:-:S01] LDG.E R0, [R2];\n"
        "IADD3 R3, R0, 0x1, RZ;\nEXIT;\n"
    )
    problems = validate_control(instrs)
    assert problems and "R0" in problems[0]


def test_validator_flags_unbarriered_load():
    instrs = _prog("LDG.E R0, [R2];\nIADD3 R3, R0, 0x1, RZ;\nEXIT;\n")
    assert validate_control(instrs)


def test_validator_flags_underslept_fixed_latency():
    instrs = _prog("MOV R0, 0x1;\nIADD3 R1, R0, 0x1, RZ;\nEXIT;\n")
    problems = validate_control(instrs)
    assert problems and "too early" in problems[0]


def test_bar_needs_no_scoreboard_waits():
    """CTA barriers order shared memory by MIO issue order: the hazard
    pass must not make BAR wait on memory scoreboards (that stall is
    real and unnecessary — see the Winograd generator's main loop)."""
    instrs = _prog(
        "STS [R1], R8;\n"
        "LDG.E R4, [R2];\n"
        "BAR.SYNC;\n"
        "[B-1----:R-:W-:-:S01] IADD3 R5, R4, 0x1, RZ;\nEXIT;\n"
    )
    schedule(instrs)
    bar = instrs[2]
    assert not bar.control.waits_on(instrs[0].control.read_bar)
    assert not bar.control.waits_on(instrs[1].control.write_bar)


def test_loop_carried_hazard_second_pass():
    """A value produced at the loop tail and read at the head is covered:
    the back-edge branch's stall is raised by what the linear sweep could
    not see."""
    kernel = assemble(
        ".kernel t\n.registers 8\n"
        "MOV R0, 0x4;\n"
        "TOP:\n"
        "IADD3 R1, R0, 0x1, RZ;\n"
        "MOV R0, 0x2;\n"
        "@P0 BRA TOP;\nEXIT;\n",
        auto_schedule=True,
    )
    assert validate_control(kernel.instructions) == []
    mov, bra = kernel.instructions[2], kernel.instructions[3]
    assert mov.control.stall == 1 and bra.control.stall == 3


def test_schedule_preserves_explicit_controls():
    instrs = _prog(
        "[B------:R-:W3:-:S01] LDG.E R0, [R2];\n"
        "[B---3--:R-:W-:-:S01] IADD3 R1, R0, 0x1, RZ;\nEXIT;\n"
    )
    schedule(instrs)
    assert instrs[0].control.write_bar == 3  # a hand-set barrier is kept
    assert validate_control(instrs) == []
