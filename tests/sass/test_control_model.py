"""One control-code model: ``schedule`` is ``ControlCodePass``'s repair mode.

The assembler's ``auto_schedule`` pass and sasslint's CTRL001–CTRL003
run one per-instruction rule over the CFG.  Whatever the scheduler
emits — straight-line code, loops, forward branches — the checker
must therefore accept: a hazard the checker can find is one the
scheduler fixes.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import AssemblerError
from repro.sass import ControlCodePass, assemble, lint_instructions, parse_program
from repro.sass.analysis import Severity

HEADER = ".kernel t\n.registers 32\n"

# The loop counter (R22), the memory addresses (R20, R21) and P0 stay
# out of the random bodies, which use R0-R11 and P1-P3.
regs = st.integers(0, 11)
preds = st.integers(1, 3)
stalls = st.integers(0, 4)


@st.composite
def _statement(draw):
    d, a, b, c = draw(regs), draw(regs), draw(regs), draw(regs)
    p = draw(preds)
    text = draw(st.sampled_from([
        f"MOV R{d}, R{a};",
        f"MOV R{d}, 0x{a + 1:x};",
        f"IADD3 R{d}, R{a}, R{b}, RZ;",
        f"FFMA R{d}, R{a}, R{b}, R{c};",
        f"LDG.E R{d}, [R20];",
        f"LDS R{d}, [R21];",
        f"STS [R21], R{a};",
        f"ISETP.LT.AND P{p}, PT, R{a}, R{b}, PT;",
        f"@P{p} MOV R{d}, R{a};",
        f"MUFU.RCP R{d}, R{a};",
        "BAR.SYNC;",
    ]))
    # Some statements carry a hand-written control code: a stall, and
    # on loads a barrier index the scheduler must keep.
    if draw(st.integers(0, 3)) == 0:
        bar = "-"
        if text.startswith(("LDG", "LDS", "MUFU")) and draw(st.booleans()):
            bar = str(draw(st.integers(0, 5)))
        text = f"[B------:R-:W{bar}:-:S{draw(stalls):02d}] {text}"
    return text


def _body(min_size, max_size):
    return st.lists(_statement(), min_size=min_size, max_size=max_size)


def _assemble_clean(lines):
    source = HEADER + "\n".join(lines) + "\n"
    kernel = assemble(source, auto_schedule=True)
    diags = lint_instructions(kernel.instructions, passes=[ControlCodePass()])
    assert diags == [], (source, kernel.disassemble(), diags)
    # Hand-set barrier indices survive scheduling.
    written = parse_program("\n".join(lines)).instructions
    for want, instr in zip(written, kernel.instructions):
        if want.control.write_bar != 7:
            assert instr.control.write_bar == want.control.write_bar
    return kernel


@settings(max_examples=150, deadline=None)
@given(body=_body(1, 24))
def test_straight_line_programs_schedule_clean(body):
    _assemble_clean(body + ["EXIT;"])


@settings(max_examples=150, deadline=None)
@given(pre=_body(0, 5), body=_body(1, 16), post=_body(0, 5))
def test_single_loop_programs_schedule_clean(pre, body, post):
    _assemble_clean(
        pre + ["TOP:"] + body
        + ["ISETP.LT.AND P0, PT, R22, 0x4, PT;", "@P0 BRA TOP;"]
        + post + ["EXIT;"]
    )


@settings(max_examples=150, deadline=None)
@given(pre=_body(0, 5), body=_body(1, 10), post=_body(1, 8))
def test_forward_branch_programs_schedule_clean(pre, body, post):
    _assemble_clean(
        pre + ["ISETP.LT.AND P0, PT, R22, 0x4, PT;", "@P0 BRA SKIP;"]
        + body + ["SKIP:"] + post + ["EXIT;"]
    )


LOOP_CARRIED_LOAD = HEADER + (
    "MOV R4, RZ;\n"
    "TOP:\n"
    "FFMA R5, R4, R4, R5;\n"
    "LDS R4, [R21];\n"
    "ISETP.LT.AND P0, PT, R22, 0x4, PT;\n"
    "@P0 BRA TOP;\n"
    "EXIT;\n"
)

SKIPPED_WAIT = HEADER + (
    "LDS R4, [R21];\n"
    "ISETP.LT.AND P0, PT, R22, 0x4, PT;\n"
    "@P0 BRA SKIP;\n"
    "FFMA R5, R4, R4, R5;\n"
    "SKIP:\n"
    "IADD3 R6, R4, 0x1, RZ;\n"
    "EXIT;\n"
)


def test_loop_carried_load_is_awaited_under_strict():
    """The next iteration's FFMA reads, and its LDS overwrites, R4 while
    the previous LDS's barrier is armed: the FFMA at the loop head must
    wait on it."""
    kernel = assemble(LOOP_CARRIED_LOAD, auto_schedule=True, strict=True)
    ffma, lds = kernel.instructions[1], kernel.instructions[2]
    assert ffma.control.waits_on(lds.control.write_bar)


def test_wait_skipped_by_a_branch_is_repeated_under_strict():
    """The taken branch skips the FFMA's wait, so the IADD3 after the
    join waits on the load's barrier too."""
    kernel = assemble(SKIPPED_WAIT, auto_schedule=True, strict=True)
    lds, iadd = kernel.instructions[0], kernel.instructions[4]
    assert iadd.control.waits_on(lds.control.write_bar)


def test_strict_rejects_a_hand_written_loop_hazard():
    source = LOOP_CARRIED_LOAD.replace(
        "LDS R4, [R21];", "[B------:R-:W0:-:S01] LDS R4, [R21];"
    )
    with pytest.raises(AssemblerError, match="R4 guarded by barrier 0"):
        assemble(source, strict=True)


def test_ctrl003_reports_predicate_waw():
    """A fixed-latency predicate write overwritten before it lands is a
    hazard like a register WAW (the scheduler always stalled for it)."""
    diags = lint_instructions(
        parse_program(
            "ISETP.LT.AND P1, PT, R0, R1, PT;\n"
            "ISETP.GE.AND P1, PT, R2, R3, PT;\n"
            "EXIT;\n"
        ).instructions,
        passes=[ControlCodePass()],
    )
    assert [(d.rule, d.pos, d.severity) for d in diags] == [
        ("CTRL003", 1, Severity.ERROR)
    ]
    assert diags[0].message == "writes P1 4 cycles too early"


def test_raised_zero_stall_covers_the_whole_latency():
    """Raising a hand-written ``S00`` accounts for the one cycle a zero
    stall already takes."""
    kernel = assemble(
        HEADER + "[B------:R-:W-:-:S00] MOV R0, 0x1;\n"
        "IADD3 R1, R0, 0x1, RZ;\nEXIT;\n",
        auto_schedule=True, strict=True,
    )
    assert kernel.instructions[0].control.stall == 4
