"""Structural invariants of the generated Winograd SASS kernel."""

import pytest

from repro.common import ConvConfigError, ConvProblem
from repro.kernels import BC, BN, Tunables, WinogradF22Kernel
from repro.kernels.winograd_fused import (
    F44Tunables,
    _magic_u32,
    default_tunables,
    kernel_for_tile,
)
from repro.sass import validate_control

PROB = ConvProblem(n=32, c=16, h=8, w=8, k=64, name="test")


def _gen(tunables=Tunables(), prob=PROB):
    return WinogradF22Kernel(prob, tunables)


# ---------------------------------------------------------------------------
# Construction rules
# ---------------------------------------------------------------------------
def test_register_budget_is_exactly_table5():
    gen = _gen()
    assert gen.num_regs == 253  # Table 5's total


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


@pytest.mark.parametrize("cls", [Tunables, F44Tunables])
def test_unknown_yield_strategy_is_a_config_error(cls):
    # Rejected at construction, as a ReproError, not later by .source().
    with pytest.raises(ConvConfigError, match="yield strategy"):
        cls(yield_strategy="bogus")


def test_f22_generator_rejects_f44_tunables():
    # F44Tunables is a Tunables with bk=16; without the check the F(2×2)
    # generator only failed later, inside the assembler.
    with pytest.raises(ConvConfigError, match=r"F\(2×2\).*bk=16"):
        kernel_for_tile(PROB, "f22", default_tunables("f44"))


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


def test_itf_is_exactly_36_fadds():
    itf = _gen().itf_stream()
    assert len(itf) == 36  # 32 transform FADDs + 4 in-place row saves
    assert all("FADD" in l for l in itf)


def test_ldg_stream_counts():
    ldgs = [l for l in _gen().ldg_stream() if "LDG" in l]
    assert len(ldgs) == 48  # 32 filter + 16 input (§3.4's prefetch registers)
    # The 16 input loads are predicated by the unpacked zero-pad mask.
    assert sum(1 for l in ldgs if "@P" in l) == 16


def test_sts_stream_counts():
    gen = _gen()
    assert len(gen.sts_filter_stream()) == 32
    assert len(gen.sts_input_stream()) == 16


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
    import re

    for line in _gen().ffma_step(0)[::2]:
        regs = [int(r) for r in re.findall(r"R(\d+)", line)]
        dest, a, b, c = regs
        assert len({a % 2, b % 2, c % 2}) > 1, line


def test_full_kernel_assembles_hazard_free():
    kernel = _gen().build()
    assert validate_control(kernel.instructions) == []
    assert kernel.max_register() + 1 <= 253


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


def test_source_contains_structure():
    src = _gen().source()
    assert ".kernel winograd_f22_bk64" in src
    assert "MAIN_LOOP:" in src
    assert "P2R" in src and "R2P" in src  # the §3.5 mask packing
    assert "BAR.SYNC;" in src


def test_constants_exported():
    assert BC == 8 and BN == 32
