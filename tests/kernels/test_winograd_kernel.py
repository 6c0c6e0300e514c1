"""Structural invariants of the generated Winograd SASS kernels."""

import dataclasses
import re

import pytest

from repro.common import ConvConfigError, ConvProblem
from repro.kernels import BC, BN, Tunables, WinogradF22Kernel
from repro.kernels.winograd_fused import (
    _magic_u32,
    default_tunables,
    kernel_for_tile,
)
from repro.sass import validate_control
from repro.sched import Schedule

PROB = ConvProblem(n=32, c=16, h=8, w=8, k=64, name="test")


def _gen(tunables=Tunables(), prob=PROB):
    return WinogradF22Kernel(prob, tunables)


# ---------------------------------------------------------------------------
# Construction rules
# ---------------------------------------------------------------------------
def test_register_budget_is_exactly_table5():
    gen = _gen()
    assert gen.num_regs == 253  # Table 5's total


def test_f44_register_and_smem_budget():
    gen = kernel_for_tile(PROB, "f44")
    assert gen.num_regs == 212
    assert gen.smem_bytes == gen.launch_smem_bytes == 55296  # 18 KB + 36 KB


def test_smem_budget_is_table7():
    gen = _gen()
    assert gen.smem_fil_bytes == 32 * 1024
    assert gen.smem_in_bytes == 16 * 1024
    assert gen.smem_bytes == 48 * 1024


def test_bk32_uses_less():
    gen = _gen(Tunables(bk=32), ConvProblem(n=32, c=16, h=8, w=8, k=32))
    assert gen.num_regs < 200
    assert gen.smem_bytes == 32 * 1024


def test_grid_shape():
    gen = _gen()
    # 4×4 tiles × 32 batch / 32 per block = 16 tile blocks; K/64 = 1.
    assert gen.grid == (16, 1)


@pytest.mark.parametrize(
    "kwargs,msg",
    [
        (dict(n=31, c=16, h=8, w=8, k=64), "multiple of 32"),
        (dict(n=32, c=15, h=8, w=8, k=64), "multiple of 8"),
        (dict(n=32, c=16, h=8, w=8, k=65), "multiple of bk"),
    ],
)
def test_geometry_requirements(kwargs, msg):
    with pytest.raises(ConvConfigError, match=msg):
        WinogradF22Kernel(ConvProblem(**kwargs))


def test_tunables_validation():
    with pytest.raises(ConvConfigError):
        Tunables(bk=48)
    with pytest.raises(ConvConfigError):
        Tunables(smem_layout="fancy")
    with pytest.raises(ConvConfigError):
        Tunables(ldg_interleave=0)
    with pytest.raises(ConvConfigError):
        Tunables(double_buffer=3)


@pytest.mark.parametrize("bk", [64, 16], ids=["Tunables", "f44_Tunables"])
def test_unknown_yield_strategy_is_a_config_error(bk):
    # Rejected at construction, as a ReproError, not later by .source().
    with pytest.raises(ConvConfigError, match="yield strategy"):
        Tunables(yield_strategy="bogus", bk=bk)


def test_f22_generator_rejects_f44_tunables():
    # The f44 defaults are a Tunables with bk=16; without the check the
    # F(2×2) generator only failed later, inside the assembler.
    with pytest.raises(ConvConfigError, match=r"F\(2×2\).*bk=16"):
        kernel_for_tile(PROB, "f22", default_tunables("f44"))


@pytest.mark.parametrize(
    "tunables",
    [
        default_tunables("f22"),
        dataclasses.replace(default_tunables("f44"), smem_layout="tile_major"),
        Schedule(double_buffer=1).to_tunables(tile="f44"),
    ],
    ids=["bk64", "tile_major", "db1"],
)
def test_f44_generator_rejects_structural_knobs(tunables):
    # The F(4×4) thread mapping fixes bk=16, the transposed layout and
    # register ping-pong; a schedule grafted onto the f44 defaults is
    # checked when its generator is built.
    with pytest.raises(ConvConfigError, match=r"F\(4×4\)"):
        kernel_for_tile(PROB, "f44", tunables)


def test_magic_u32_division():
    for d in (3, 7, 28, 56, 96, 127):
        m = _magic_u32(d)
        for n in (0, 1, d - 1, d, 12345, 1 << 20):
            assert (n * m) >> 32 == n // d, (n, d)


# ---------------------------------------------------------------------------
# Emission invariants
# ---------------------------------------------------------------------------
def test_main_loop_ffma_count_is_1024_per_iteration():
    body = _gen().loop_body()
    ffmas = [l for l in body if "FFMA" in l]
    assert len(ffmas) == 1024  # §4.3: 1024 FFMAs per thread per bc-iteration


def test_main_loop_ffma_count_halves_at_bk32():
    """cuDNN's bk=32 blocking (Table 7): half the filters, 512 FFMAs."""
    body = _gen(Tunables(bk=32)).loop_body()
    assert sum(1 for l in body if "FFMA" in l) == 512


def test_itf_is_exactly_36_fadds():
    itf = _gen().itf_stream()
    assert len(itf) == 36  # 32 transform FADDs + 4 in-place row saves
    assert all("FADD" in l for l in itf)


def test_f44_loop_body_ffma_counts():
    ffmas = [l for l in kernel_for_tile(PROB, "f44").loop_body() if "FFMA" in l]
    ewmm = [l for l in ffmas if re.search(r"FFMA R\d+, R\d+, R\d+", l)]
    # 48 (channel, element-group) steps × 12 EWMM FFMAs; the first of
    # each tile pair reuses the filter operand.
    assert len(ewmm) == 576
    assert sum(1 for l in ewmm if ".reuse" in l) == 288
    # The rest are the ITF's float-immediate (±2/±4/±5) terms.
    assert len(ffmas) - len(ewmm) == 72


@pytest.mark.parametrize(
    "tile,ldgs,predicated", [("f22", 48, 16), ("f44", 54, 36)], ids=["f22", "f44"]
)
def test_ldg_stream_counts(tile, ldgs, predicated):
    # f22: 32 filter + 16 input (§3.4's prefetch registers); f44: 18
    # filter + the 6×6 input window.
    lines = [l for l in kernel_for_tile(PROB, tile).ldg_stream() if "LDG" in l]
    assert len(lines) == ldgs
    # The input loads are predicated by the unpacked zero-pad mask.
    assert sum(1 for l in lines if "@P" in l) == predicated


@pytest.mark.parametrize(
    "tile,fil,inp", [("f22", 32, 16), ("f44", 18, 36)], ids=["f22", "f44"]
)
def test_sts_stream_counts(tile, fil, inp):
    gen = kernel_for_tile(PROB, tile)
    assert len(gen.sts_filter_stream()) == fil
    assert len(gen.sts_input_stream()) == inp


def test_lds_step_is_8_vector_loads():
    lines = _gen().lds_step(0, 3)
    assert len(lines) == 8
    assert all("LDS.128" in l for l in lines)


def test_tile_major_layout_needs_scalar_loads():
    lines = _gen(Tunables(smem_layout="tile_major")).lds_step(0, 0)
    assert sum(1 for l in lines if "LDS.32" in l) == 16


def test_ffma_reuse_pattern_follows_paper_rule():
    """§4.3: first FFMA of each pair carries .reuse on the filter operand."""
    lines = _gen().ffma_step(0)
    assert len(lines) == 128
    for first, second in zip(lines[::2], lines[1::2]):
        assert ".reuse" in first
        assert ".reuse" not in second


def test_ffma_bank_parity_rule():
    """First of each pair must not have all-same-parity sources."""
    for line in _gen().ffma_step(0)[::2]:
        regs = [int(r) for r in re.findall(r"R(\d+)", line)]
        dest, a, b, c = regs
        assert len({a % 2, b % 2, c % 2}) > 1, line


def test_full_kernel_assembles_hazard_free():
    kernel = _gen().build()
    assert validate_control(kernel.instructions) == []
    assert kernel.max_register() + 1 <= 253


@pytest.mark.parametrize("tile", ["f22", "f44"])
def test_no_p2r_kernel_assembles_hazard_free(tile):
    tunables = dataclasses.replace(default_tunables(tile), use_p2r=False)
    gen = kernel_for_tile(PROB, tile, tunables)
    assert "P2R" not in gen.source()  # the predicates are recomputed in-loop
    assert validate_control(gen.build().instructions) == []


def test_single_buffer_keeps_ffma_count():
    body = _gen(Tunables(double_buffer=1)).loop_body()
    ffmas = [l for l in body if "FFMA" in l]
    assert len(ffmas) == 1024  # the §3.4 ablation changes latency, not math


def test_single_buffer_reads_one_fragment_block():
    """depth=1: every k-step computes from register block 0 — the LDS
    bursts all write the same fragment block instead of ping-ponging."""
    single = _gen(Tunables(double_buffer=1)).loop_body()
    double = _gen(Tunables(double_buffer=2)).loop_body()
    lds = lambda body: [l for l in body if "LDS" in l]  # noqa: E731
    assert len(lds(single)) == len(lds(double))  # same traffic ...
    assert single != double  # ... different schedule


def test_single_buffer_assembles_hazard_free():
    kernel = _gen(Tunables(double_buffer=1)).build()
    assert validate_control(kernel.instructions) == []
    assert kernel.max_register() + 1 <= 253


@pytest.mark.parametrize("strategy", ["natural", "nvcc8", "cudnn7"])
def test_yield_strategies_assemble(strategy):
    kernel = _gen(Tunables(yield_strategy=strategy)).build(main_loop_only=True)
    yields = sum(1 for i in kernel.instructions if i.control.yield_flag)
    if strategy == "natural":
        assert yields == 0
    else:
        assert yields > 100


@pytest.mark.parametrize("ldg", [2, 4, 8])
def test_ldg_interleave_changes_positions(ldg):
    body = _gen(Tunables(ldg_interleave=ldg)).loop_body()
    first_ldg = next(i for i, l in enumerate(body) if "LDG" in l)
    assert first_ldg <= ldg * 2 + 8


def test_fig3_lane_map_formula():
    """The prologue's (r, c) computation must match Fig. 3's table."""
    fig3_rows = {  # input-offset row → lanes
        0: [0, 2, 4, 6, 8, 10, 12, 14],
        1: [1, 3, 5, 7, 9, 11, 13, 15],
        2: [16, 18, 20, 22, 24, 26, 28, 30],
        3: [17, 19, 21, 23, 25, 27, 29, 31],
    }
    for lane in range(32):
        sub, quad = lane & 15, lane >> 4
        r = (sub & 1) + 2 * quad
        c = sub >> 1
        assert lane in fig3_rows[r]
        # Fig. 3 columns: row lists lanes in filter-column order.
        assert fig3_rows[r].index(lane) == c


@pytest.mark.parametrize(
    "tile,header",
    [("f22", ".kernel winograd_f22_bk64"), ("f44", ".kernel winograd_f44_bk16")],
    ids=["f22", "f44"],
)
def test_source_contains_structure(tile, header):
    src = kernel_for_tile(PROB, tile).source()
    assert header in src
    assert "MAIN_LOOP:" in src
    assert "P2R" in src and "R2P" in src  # the §3.5 mask packing
    assert "BAR.SYNC;" in src


def test_f44_mask_row_5_spills_into_the_second_word():
    # 36 mask bits: row 5 (bits 30-35) crosses into MASK_HI.
    gen = kernel_for_tile(PROB, "f44")
    assert any(
        f"LOP3.OR R{gen.MASK_HI}, R{gen.MASK_HI}," in l for l in gen.prologue()
    )


def test_constants_exported():
    assert BC == 8 and BN == 32
