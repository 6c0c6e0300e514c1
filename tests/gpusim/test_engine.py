"""Per-instruction functional semantics of the execution engine."""

import struct

import numpy as np
import pytest

from repro.common import SimulatorError
from repro.gpusim import (
    ExecutionContext,
    GlobalMemory,
    SharedMemory,
    V100,
    WarpState,
    simulate_resident_blocks,
)
from repro.gpusim.engine import execute
from repro.sass import assemble, parse_line
from repro.sass.analysis import RegisterBankPass, lint_kernel


@pytest.fixture
def ctx():
    return ExecutionContext(
        GlobalMemory(1 << 16), SharedMemory(8192), np.zeros(4096, np.uint8),
        block_idx=3, device=V100, block_idx_y=5,
    )


@pytest.fixture
def warp():
    return WarpState(warp_id=2, block=0)


def _f32(warp, idx, values):
    warp.regs[idx] = np.frombuffer(
        np.asarray(values, np.float32).tobytes(), np.uint32
    )


def _run(warp, ctx, text):
    return execute(parse_line(text), warp, ctx)


def test_ffma(warp, ctx):
    _f32(warp, 1, np.full(32, 2.0))
    _f32(warp, 2, np.full(32, 3.0))
    _f32(warp, 3, np.full(32, 0.5))
    r = _run(warp, ctx, "FFMA R0, R1, R2, R3;")
    assert r.pipe == "fma" and r.pipe_cycles == 2
    np.testing.assert_array_equal(warp.read_reg_f32(0), np.full(32, 6.5))


def test_fadd_negated(warp, ctx):
    _f32(warp, 1, np.full(32, 5.0))
    _f32(warp, 2, np.full(32, 2.0))
    _run(warp, ctx, "FADD R0, R1, -R2;")
    np.testing.assert_array_equal(warp.read_reg_f32(0), np.full(32, 3.0))


def test_ffma_immediate_float(warp, ctx):
    _f32(warp, 1, np.full(32, 2.0))
    _run(warp, ctx, "FFMA R0, R1, 1.5, RZ;")
    np.testing.assert_array_equal(warp.read_reg_f32(0), np.full(32, 3.0))


def test_predicated_write_masks_lanes(warp, ctx):
    warp.preds[1, :16] = True
    _f32(warp, 1, np.full(32, 1.0))
    _run(warp, ctx, "@P1 FADD R0, R1, R1;")
    out = warp.read_reg_f32(0)
    assert (out[:16] == 2.0).all() and (out[16:] == 0.0).all()


def test_rz_reads_zero_and_ignores_writes(warp, ctx):
    _f32(warp, 1, np.full(32, 9.0))
    _run(warp, ctx, "FADD RZ, R1, R1;")
    assert (warp.read_reg(255) == 0).all()


def test_iadd3_wraps(warp, ctx):
    warp.regs[1][:] = 0xFFFFFFFF
    _run(warp, ctx, "IADD3 R0, R1, 0x2, RZ;")
    assert (warp.read_reg(0) == 1).all()


def test_imad(warp, ctx):
    warp.regs[1][:] = 7
    warp.regs[2][:] = 3
    _run(warp, ctx, "IMAD R0, R1, 0x6, R2;")
    assert (warp.read_reg(0) == 45).all()


def test_imad_wide_unsigned(warp, ctx):
    warp.regs[1][:] = 0x80000000
    _run(warp, ctx, "IMAD.WIDE.U32 R4, R1, 0x4, RZ;")
    assert (warp.read_reg(4) == 0).all()
    assert (warp.read_reg(5) == 2).all()


def test_imad_wide_signed_negative(warp, ctx):
    warp.regs[1][:] = np.uint32(0xFFFFFFFF)  # −1
    _run(warp, ctx, "IMAD.WIDE R4, R1, 0x4, RZ;")
    assert (warp.read_reg(4) == 0xFFFFFFFC).all()
    assert (warp.read_reg(5) == 0xFFFFFFFF).all()


def test_imad_wide_adds_64bit_base(warp, ctx):
    warp.regs[2][:] = 0x10  # lo
    warp.regs[3][:] = 0x1  # hi
    warp.regs[1][:] = 1
    _run(warp, ctx, "IMAD.WIDE.U32 R4, R1, 0x8, R2;")
    assert (warp.read_reg(4) == 0x18).all()
    assert (warp.read_reg(5) == 1).all()


def test_magic_division_idiom(warp, ctx):
    """The IMAD.WIDE.U32 + high-word idiom divides by a constant."""
    d = 28
    magic = -(-(1 << 32) // d)
    warp.regs[1] = np.arange(32, dtype=np.uint32) * 97
    _run(warp, ctx, f"IMAD.WIDE.U32 R4, R1, {magic:#x}, RZ;")
    np.testing.assert_array_equal(
        warp.read_reg(5), (np.arange(32) * 97 // d).astype(np.uint32)
    )


def test_lop3_variants(warp, ctx):
    warp.regs[1][:] = 0b1100
    warp.regs[2][:] = 0b1010
    _run(warp, ctx, "LOP3.AND R0, R1, R2, RZ;")
    assert (warp.read_reg(0) == 0b1000).all()
    _run(warp, ctx, "LOP3.OR R0, R1, R2, RZ;")
    assert (warp.read_reg(0) == 0b1110).all()
    _run(warp, ctx, "LOP3.XOR R0, R1, R2, RZ;")
    assert (warp.read_reg(0) == 0b0110).all()


def test_shf_shifts(warp, ctx):
    warp.regs[1][:] = 0x80
    _run(warp, ctx, "SHF.L.U32 R0, R1, 0x4, RZ;")
    assert (warp.read_reg(0) == 0x800).all()
    _run(warp, ctx, "SHF.R.U32 R0, R1, 0x3, RZ;")
    assert (warp.read_reg(0) == 0x10).all()


def test_shf_funnel(warp, ctx):
    warp.regs[1][:] = 0x80000000
    warp.regs[2][:] = 0x1
    _run(warp, ctx, "SHF.R.U32 R0, R1, 0x4, R2;")
    assert (warp.read_reg(0) == 0x18000000).all()


def test_mov_and_cs2r(warp, ctx):
    _run(warp, ctx, "MOV R0, 0x2a;")
    assert (warp.read_reg(0) == 42).all()
    warp.regs[3][:] = 5
    _run(warp, ctx, "CS2R.32 R3, ;".replace(", ;", ";"))
    assert (warp.read_reg(3) == 0).all()


def test_popc(warp, ctx):
    warp.regs[1][:] = 0b1011001
    _run(warp, ctx, "POPC R0, R1;")
    assert (warp.read_reg(0) == 4).all()


def test_mufu_rcp(warp, ctx):
    _f32(warp, 1, np.full(32, 4.0))
    r = _run(warp, ctx, "MUFU.RCP R0, R1;")
    assert r.pipe == "mio" and r.variable_latency > 0
    np.testing.assert_allclose(warp.read_reg_f32(0), 0.25)


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------
def test_isetp_signed_vs_unsigned(warp, ctx):
    warp.regs[1][:] = np.uint32(0xFFFFFFFF)  # −1 signed, huge unsigned
    _run(warp, ctx, "ISETP.LT.AND P0, PT, R1, 0x5, PT;")
    assert warp.preds[0].all()  # signed: −1 < 5
    _run(warp, ctx, "ISETP.LT.U32.AND P1, PT, R1, 0x5, PT;")
    assert not warp.preds[1].any()  # unsigned: 2^32−1 > 5


def test_isetp_bool_combine(warp, ctx):
    warp.preds[2, :] = False
    warp.regs[1][:] = 1
    _run(warp, ctx, "ISETP.EQ.AND P0, PT, R1, 0x1, P2;")
    assert not warp.preds[0].any()
    _run(warp, ctx, "ISETP.EQ.OR P0, PT, R1, 0x1, P2;")
    assert warp.preds[0].all()
    _run(warp, ctx, "ISETP.EQ.AND P0, PT, R1, 0x1, !P2;")
    assert warp.preds[0].all()


def test_p2r_r2p_roundtrip(warp, ctx):
    warp.preds[0, :] = True
    warp.preds[2, ::2] = True
    _run(warp, ctx, "P2R R5, 0x7f;")
    expect = 1 | (warp.preds[2].astype(np.uint32) << 2)
    np.testing.assert_array_equal(warp.read_reg(5), expect)
    # Clear and restore via R2P.
    warp.preds[:7] = False
    _run(warp, ctx, "R2P R5, 0x7f;")
    assert warp.preds[0].all()
    np.testing.assert_array_equal(warp.preds[2], expect >= 5)


def test_r2p_respects_mask(warp, ctx):
    warp.regs[5][:] = 0b111
    warp.preds[2, :] = False
    _run(warp, ctx, "R2P R5, 0x3;")  # only P0, P1
    assert warp.preds[0].all() and warp.preds[1].all()
    assert not warp.preds[2].any()


def test_pt_never_written(warp, ctx):
    warp.regs[5][:] = 0xFF
    _run(warp, ctx, "R2P R5, 0x7f;")
    assert warp.preds[7].all()


# ---------------------------------------------------------------------------
# Special registers and memory
# ---------------------------------------------------------------------------
def test_s2r_values(warp, ctx):
    _run(warp, ctx, "S2R R0, SR_TID.X;")
    np.testing.assert_array_equal(warp.read_reg(0), 64 + np.arange(32))
    _run(warp, ctx, "S2R R1, SR_CTAID.X;")
    assert (warp.read_reg(1) == 3).all()
    _run(warp, ctx, "S2R R2, SR_CTAID.Y;")
    assert (warp.read_reg(2) == 5).all()
    _run(warp, ctx, "S2R R3, SR_LANEID;")
    np.testing.assert_array_equal(warp.read_reg(3), np.arange(32))


def test_ldg_stg_64bit_address(warp, ctx):
    ptr = ctx.gmem.alloc(256)
    ctx.gmem.write_array(ptr, np.arange(64, dtype=np.float32))
    warp.regs[2][:] = np.uint32(ptr)
    warp.regs[3][:] = 0
    warp.regs[2] += 4 * np.arange(32, dtype=np.uint32)
    r = _run(warp, ctx, "LDG.E R0, [R2 + 0x10];")
    assert r.pipe == "lsu" and r.variable_latency > 0
    np.testing.assert_array_equal(warp.read_reg_f32(0), 4.0 + np.arange(32))
    _run(warp, ctx, "STG.E [R2], R0;")
    np.testing.assert_array_equal(
        ctx.gmem.read_array(ptr, (32,)), 4.0 + np.arange(32)
    )


def test_ldg_negative_low_word_base(warp, ctx):
    """A 'negative' low word with an all-ones high word addresses correctly."""
    ptr = ctx.gmem.alloc(256)
    ctx.gmem.write_array(ptr, np.arange(8, dtype=np.float32))
    base = ptr - 64  # may point below the heap start
    warp.regs[2][:] = np.uint32(base & 0xFFFFFFFF)
    warp.regs[3][:] = np.uint32(0)
    _run(warp, ctx, "LDG.E R0, [R2 + 0x40];")
    assert warp.read_reg_f32(0)[0] == 0.0


def test_lds_sts_width_128(warp, ctx):
    ctx.smem.write_array(0, np.arange(256, dtype=np.float32))
    warp.regs[1] = (16 * np.arange(32)).astype(np.uint32)
    r = _run(warp, ctx, "LDS.128 R4, [R1];")
    assert r.pipe == "mio" and r.pipe_cycles == 4  # 4 word transactions
    np.testing.assert_array_equal(warp.read_reg_f32(4), 4.0 * np.arange(32))
    np.testing.assert_array_equal(warp.read_reg_f32(7), 4.0 * np.arange(32) + 3)


def test_sts_predicated(warp, ctx):
    warp.regs[1] = (4 * np.arange(32)).astype(np.uint32)
    warp.regs[8][:] = 0x42
    warp.preds[0, :4] = True
    _run(warp, ctx, "@P0 STS [R1], R8;")
    data = ctx.smem.read_array(0, (32,), np.uint32)
    assert (data[:4] == 0x42).all() and (data[4:] == 0).all()


def test_const_operand_reads_bank(warp, ctx):
    ctx.const_bank[0x160:0x164] = np.frombuffer(
        struct.pack("<I", 1234), np.uint8
    )
    _run(warp, ctx, "MOV R0, c[0x0][0x160];")
    assert (warp.read_reg(0) == 1234).all()


# ---------------------------------------------------------------------------
# Control
# ---------------------------------------------------------------------------
def test_uniform_branch_taken(warp, ctx):
    warp.pc = 10
    instr = parse_line("BRA LOOP;")
    instr.target = -4
    r = execute(instr, warp, ctx)
    assert r.branch_target == 7


def test_predicated_branch_not_taken(warp, ctx):
    instr = parse_line("@P0 BRA X;")
    instr.target = 5
    r = execute(instr, warp, ctx)
    assert r.branch_target is None


def test_divergent_branch_rejected(warp, ctx):
    warp.preds[0, :16] = True
    instr = parse_line("@P0 BRA X;")
    instr.target = 5
    with pytest.raises(SimulatorError):
        execute(instr, warp, ctx)


def test_exit_and_divergent_exit(warp, ctx):
    assert _run(warp, ctx, "EXIT;").exited
    warp.preds[0, :16] = True
    with pytest.raises(SimulatorError):
        _run(warp, ctx, "@P0 EXIT;")
    assert not _run(warp, ctx, "@!PT EXIT;").exited


def test_bar_flag(warp, ctx):
    assert _run(warp, ctx, "BAR.SYNC;").barrier_sync


# ---------------------------------------------------------------------------
# Register bank conflicts + reuse cache (§5.2.2 / footnote 6).  The rule
# is the scheduler's, not execute's, so these run one warp on both
# engines and read the counters.
# ---------------------------------------------------------------------------
@pytest.fixture
def bank(both_engines):
    """Counters of one warp running *src* then EXIT (equal on both engines)."""

    def run(src):
        kernel = assemble(src + "\nEXIT;\n")
        counters = both_engines(
            lambda: simulate_resident_blocks(
                kernel, V100, params={}, gmem=GlobalMemory(1 << 12),
                threads_per_block=32, num_blocks=1,
            ).counters
        )
        # An FFMA holds its FP32 pipe 2 cycles, plus 1 on a bank conflict.
        assert counters.fma_pipe_busy == (
            2 * counters.ffma_instrs + counters.reg_bank_conflicts
        )
        return counters

    return run


def test_same_bank_three_sources_conflict(bank):
    assert bank("FFMA R0, R2, R4, R6;").reg_bank_conflicts == 1  # all even


def test_mixed_banks_no_conflict(bank):
    assert bank("FFMA R0, R1, R4, R6;").reg_bank_conflicts == 0


def test_repeated_register_counts_once(bank):
    assert bank("FFMA R0, R2, R2, R2;").reg_bank_conflicts == 0


def test_reuse_cache_suppresses_conflict(bank):
    # Slot 1 caches R4, so the second FFMA reads only R2 and R6 from banks.
    src = "FFMA R1, R3, R4.reuse, R5;\nFFMA R0, R2, R4, R6;"
    assert bank(src).reg_bank_conflicts == 0


def test_reuse_cache_cleared_between_different_regs(bank):
    # The cache holds R8, not R4.
    src = "FFMA R1, R3, R8.reuse, R5;\nFFMA R0, R2, R4, R6;"
    assert bank(src).reg_bank_conflicts == 1


def test_yield_forfeits_reuse_cache(bank):
    """§6.1: the yield's warp switch drops the latched R4."""
    src = "[B------:R-:W-:Y:S01] FFMA R1, R3, R4.reuse, R5;\nFFMA R0, R2, R4, R6;"
    assert bank(src).reg_bank_conflicts == 1


def test_sasslint_reuse_cache_matches_the_scheduler(bank):
    """MUFU replaces the reuse cache in both models, so the R4 latched by
    the first FFMA no longer serves the second: one conflict, one RB001."""
    src = (
        "FFMA R1, R3, R4.reuse, R5;\n"
        "MUFU.RCP R9, R11;\n"
        "FFMA R0, R2, R4, R6;"
    )
    diags = lint_kernel(assemble(src + "\nEXIT;\n"), passes=[RegisterBankPass()])
    rb001 = sum(d.rule == "RB001" for d in diags)
    assert rb001 == bank(src).reg_bank_conflicts == 1
