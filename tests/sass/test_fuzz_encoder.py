"""Property-based fuzzing of the 128-bit encoder/decoder.

Hypothesis builds random (but structurally valid) instructions across
the operand shapes and control-code space; every one must survive
encode → decode → re-encode bit-identically, and its canonical text must
reparse to the same bits.  This pins the Fig. 6 field layout far more
densely than the hand-written golden tests.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sass import (
    ControlCode,
    Imm,
    Instruction,
    Mem,
    Pred,
    Reg,
    decode_instruction,
    encode_instruction,
    parse_line,
)
from repro.sass.operands import Const

regs = st.integers(0, 252).map(Reg)
rz_or_reg = st.one_of(regs, st.just(Reg(255)))
preds = st.builds(Pred, st.integers(0, 6), st.booleans())
guards = st.one_of(st.just(Pred(7)), preds)
imms = st.integers(0, 0xFFFFFFFF).map(Imm)
consts = st.builds(
    Const, st.integers(0, 7), st.integers(0, 1023).map(lambda x: 4 * x)
)
b_operands = st.one_of(regs, imms, consts)


def _controls(reuse):
    return st.builds(
        ControlCode,
        stall=st.integers(0, 15),
        yield_flag=st.booleans(),
        write_bar=st.sampled_from([0, 1, 2, 3, 4, 5, 7]),
        read_bar=st.sampled_from([0, 1, 2, 3, 4, 5, 7]),
        wait_mask=st.integers(0, 63),
        reuse=reuse,
    )


controls = _controls(st.integers(0, 15))
# Built with no reuse flags rather than filtered to them: a filter that
# keeps 1 draw in 16 trips Hypothesis's filter_too_much health check on
# unlucky seeds.
no_reuse_controls = _controls(st.just(0))


def _roundtrip(instr: Instruction) -> None:
    word = encode_instruction(instr)
    back = decode_instruction(word)
    assert encode_instruction(back) == word
    assert back.text() == instr.text()
    # Canonical text reparses to identical bits.
    reparsed = parse_line(instr.text())
    assert encode_instruction(reparsed) == word


@given(
    dest=regs,
    a=rz_or_reg,
    b=b_operands,
    c=rz_or_reg,
    guard=guards,
    control=controls,
    neg_a=st.booleans(),
    neg_c=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_fuzz_ffma(dest, a, b, c, guard, control, neg_a, neg_c):
    import dataclasses

    a = Reg(a.index, negated=neg_a and not a.is_rz)
    c = Reg(c.index, negated=neg_c and not c.is_rz)
    srcs = [a, b, c]
    # Reuse bits are only meaningful on register slots (the encoder
    # rejects anything else); mirror the surviving flags onto operands
    # the way the parser does so text() matches after decode.
    allowed = sum(
        1 << slot for slot, src in enumerate(srcs) if isinstance(src, Reg)
    )
    control = dataclasses.replace(control, reuse=control.reuse & allowed)
    for slot, src in enumerate(srcs):
        if isinstance(src, Reg) and control.reuse & (1 << slot):
            srcs[slot] = Reg(src.index, reuse=True, negated=src.negated)
    instr = Instruction(
        name="FFMA", dest=dest, srcs=tuple(srcs), guard=guard, control=control
    )
    _roundtrip(instr)


@given(
    dest=regs,
    base=regs,
    offset=st.integers(-(1 << 20), (1 << 20) - 1).map(lambda x: 4 * x),
    guard=guards,
    width=st.sampled_from([(), ("E",), ("E", "64"), ("E", "128")]),
    control=no_reuse_controls,
)
@settings(max_examples=200, deadline=None)
def test_fuzz_ldg(dest, base, offset, guard, width, control):
    vec = {(): 1, ("E",): 1, ("E", "64"): 2, ("E", "128"): 4}[width]
    dest = Reg((dest.index // vec) * vec)
    if dest.index + vec > 253:
        dest = Reg(0)
    flags = tuple(sorted(width, key=("32", "64", "128", "16", "E").index))
    instr = Instruction(
        name="LDG", flags=flags, dest=dest, mem=Mem(base, offset),
        guard=guard, control=control,
    )
    _roundtrip(instr)


@given(
    pdst=st.integers(0, 6),
    a=regs,
    b=b_operands,
    combine=st.one_of(st.just(Pred(7)), preds),
    cmp=st.sampled_from(["EQ", "NE", "LT", "LE", "GT", "GE"]),
    boolean=st.sampled_from(["AND", "OR", "XOR"]),
    unsigned=st.booleans(),
    control=no_reuse_controls,
)
@settings(max_examples=150, deadline=None)
def test_fuzz_isetp(pdst, a, b, combine, cmp, boolean, unsigned, control):
    flags = [cmp, boolean] + (["U32"] if unsigned else [])
    from repro.sass import spec_for

    order = spec_for("ISETP").valid_flags
    instr = Instruction(
        name="ISETP",
        flags=tuple(sorted(flags, key=order.index)),
        dest_preds=(Pred(pdst), Pred(7)),
        srcs=(a, b),
        src_pred=combine,
        control=control,
    )
    _roundtrip(instr)


@given(
    dest=regs,
    mask=st.integers(0, 127).map(Imm),
    control=no_reuse_controls,
)
@settings(max_examples=60, deadline=None)
def test_fuzz_p2r(dest, mask, control):
    _roundtrip(Instruction(name="P2R", dest=dest, srcs=(mask,), control=control))


@given(target=st.integers(-(1 << 20), (1 << 20)), guard=guards)
@settings(max_examples=60, deadline=None)
def test_fuzz_bra(target, guard):
    instr = Instruction(name="BRA", target=target, guard=guard)
    word = encode_instruction(instr)
    back = decode_instruction(word)
    assert back.target == target and back.guard == guard
