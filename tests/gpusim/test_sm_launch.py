"""SM scheduler behavior and the launch API.

The scheduler tests simulate through the ``both_engines`` fixture, so
each pins the sleeping and the per-cycle path of the one scheduler.
"""

import dataclasses

import numpy as np
import pytest

from repro.common import SimLaunchError
from repro.gpusim import (
    GlobalMemory,
    RTX2070,
    V100,
    build_const_bank,
    run_grid,
    simulate_resident_blocks,
)
from repro.sass import assemble


def _ffma_loop(yield_every=None, body=128, iters=8, pairs_mixed=True):
    lines = [".kernel loop", ".registers 64", ".param 4 iters",
             "MOV R60, param:iters;", "LOOP:"]
    for i in range(body):
        d = i % 32
        a = 33 + 2 * (i % 8) if pairs_mixed else 32 + 2 * (i % 8)
        line = f"FFMA R{d}, R{a}, R{48 + 2 * (i % 8)}, R{d};"
        if yield_every and (i + 1) % yield_every == 0:
            line = "[B------:R-:W-:Y:S01] " + line
        lines.append(line)
    lines += [
        "IADD3 R60, R60, -1, RZ;",
        "ISETP.NE.AND P1, PT, R60, RZ, PT;",
        "[B------:R-:W-:-:S05] @P1 BRA LOOP;",
        "EXIT;",
    ]
    return assemble("\n".join(lines))


@pytest.fixture
def run(both_engines):
    """Counters of *blocks* resident blocks of *kernel* (equal on both engines)."""

    def _run(kernel, device=V100, iters=8, threads=256, blocks=1):
        return both_engines(
            lambda: simulate_resident_blocks(
                kernel, device, params={"iters": iters}, gmem=GlobalMemory(1 << 20),
                threads_per_block=threads, num_blocks=blocks,
            ).counters
        )

    return _run


def test_ffma_throughput_near_peak(run):
    c = run(_ffma_loop())
    assert c.sol() > 0.97
    # 8 warps × 8 iters × 128 FFMAs.
    assert c.ffma_instrs == 8 * 8 * 128


def test_flops_accounting(run):
    c = run(_ffma_loop(), iters=2)
    assert c.flops == 2 * 32 * c.ffma_instrs


def test_register_bank_conflicts_slow_the_pipe(run):
    good = run(_ffma_loop(pairs_mixed=True))
    bad = run(_ffma_loop(pairs_mixed=False))
    assert bad.reg_bank_conflicts > 0 and good.reg_bank_conflicts == 0
    assert bad.cycles > good.cycles * 1.2


def test_yield_flag_costs_cycles(run):
    natural = run(_ffma_loop(yield_every=None))
    yielding = run(_ffma_loop(yield_every=8))
    assert yielding.switch_penalty_cycles > 0
    assert natural.switch_penalty_cycles == 0
    assert yielding.cycles >= natural.cycles


def test_single_warp_cannot_reach_peak(run):
    """One warp alone: FFMA every 2 cycles max → SOL capped at ~0.25/sched."""
    c = run(_ffma_loop(), threads=32)
    assert c.sol() < 0.30


def test_barrier_synchronizes_block(both_engines):
    """Warp 0 writes smem before the barrier; all warps read it after."""
    src = """
.kernel barrier_demo
.registers 16
.smem 1024
.param 8 out_ptr
S2R R0, SR_TID.X;
SHF.L.U32 R1, R0, 0x2, RZ;
ISETP.LT.U32.AND P0, PT, R0, 0x20, PT;
MOV R4, 0x2a;
@P0 STS [R1], R4;
BAR.SYNC;
LDS R5, [R1 + 0x0];
MOV R2, param:out_ptr;
MOV R3, c[0x0][0x164];
IADD3 R2, R2, R1, RZ;
STG.E [R2], R5;
EXIT;
"""
    kernel = assemble(src, auto_schedule=True, strict=True)

    def launch():
        gmem = GlobalMemory(1 << 20)
        out = gmem.alloc(1024)
        res = run_grid(kernel, V100, grid=1, threads_per_block=64,
                       params={"out_ptr": out}, gmem=gmem)
        return res.counters, gmem.read_array(out, (64,), np.uint32).tolist()

    # Only threads < 32 wrote; but all 64 threads read within [0,256B)?
    # Threads 32-63 read offsets 128..255 which were never written → 0.
    vals = np.array(both_engines(launch)[1])
    assert (vals[:32] == 0x2A).all()
    assert (vals[32:] == 0).all()


def test_multi_block_isolation(both_engines):
    """Two resident blocks have independent shared memory and barriers."""
    src = """
.kernel two_blocks
.registers 16
.smem 1024
.param 8 out_ptr
S2R R0, SR_TID.X;
S2R R6, SR_CTAID.X;
SHF.L.U32 R1, R0, 0x2, RZ;
IADD3 R4, R6, 0x1, RZ;
STS [R1], R4;
BAR.SYNC;
LDS R5, [R1];
MOV R2, param:out_ptr;
MOV R3, c[0x0][0x164];
SHF.L.U32 R7, R6, 0x7, RZ;
IADD3 R2, R2, R7, RZ;
IADD3 R2, R2, R1, RZ;
STG.E [R2], R5;
EXIT;
"""
    kernel = assemble(src, auto_schedule=True, strict=True)

    def launch():
        gmem = GlobalMemory(1 << 20)
        out = gmem.alloc(4096)
        res = run_grid(kernel, V100, grid=2, threads_per_block=32,
                       params={"out_ptr": out}, gmem=gmem, concurrent=2)
        return res.counters, gmem.read_array(out, (64,), np.uint32).tolist()

    vals = np.array(both_engines(launch)[1])
    assert (vals[:32] == 1).all() and (vals[32:] == 2).all()


def test_grid_tuple_exposes_ctaid_y():
    src = """
.kernel grid2d
.registers 16
.param 8 out_ptr
S2R R0, SR_CTAID.X;
S2R R1, SR_CTAID.Y;
IMAD R4, R1, 0x3, R0;
SHF.L.U32 R5, R4, 0x2, RZ;
MOV R2, param:out_ptr;
MOV R3, c[0x0][0x164];
IADD3 R2, R2, R5, RZ;
STG.E [R2], R4;
EXIT;
"""
    kernel = assemble(src, auto_schedule=True, strict=True)
    gmem = GlobalMemory(1 << 20)
    out = gmem.alloc(256)
    run_grid(kernel, V100, grid=(3, 2), threads_per_block=32,
             params={"out_ptr": out}, gmem=gmem)
    vals = gmem.read_array(out, (6,), np.uint32)
    np.testing.assert_array_equal(vals, np.arange(6))


def test_mshr_limit_throttles_ldg_bursts(both_engines):
    """A burst of loads beyond the LSU queue depth stalls issue."""
    def burst_kernel():
        lines = [".kernel burst", ".registers 96", ".param 8 ptr",
                 "MOV R2, param:ptr;", "MOV R3, c[0x0][0x164];"]
        for i in range(64):
            lines.append(
                f"[B------:R-:W0:-:S01] LDG.E R{8 + (i % 64)}, [R2 + {i * 4:#x}];"
            )
        lines += ["[B0-----:R-:W-:-:S01] EXIT;"]
        return assemble("\n".join(lines))

    kernel = burst_kernel()

    def counters(device):
        gmem = GlobalMemory(1 << 20)
        ptr = gmem.alloc(4096)
        return both_engines(
            lambda: simulate_resident_blocks(
                kernel, device, params={"ptr": ptr}, gmem=gmem, threads_per_block=256
            ).counters
        )

    c_deep = counters(dataclasses.replace(V100, lsu_queue_depth=1024))
    c_shallow = counters(dataclasses.replace(V100, lsu_queue_depth=8))
    assert c_shallow.cycles > c_deep.cycles


# ---------------------------------------------------------------------------
# Launch plumbing
# ---------------------------------------------------------------------------
def _demo():
    return assemble(".kernel k\n.param 8 p\n.param 4 n\nMOV R0, param:n;\nEXIT;\n")


def test_build_const_bank_layout():
    bank = build_const_bank(_demo().meta, {"p": 0x1234, "n": 7})
    assert bank[0x160:0x164].view(np.uint32)[0] == 0x1234
    assert bank[0x168:0x16C].view(np.uint32)[0] == 7


def test_unknown_param_rejected():
    with pytest.raises(SimLaunchError):
        build_const_bank(_demo().meta, {"nope": 1})


def test_threads_must_be_warp_multiple():
    with pytest.raises(SimLaunchError):
        run_grid(_demo(), V100, 1, 33, {}, GlobalMemory(1 << 12))


def test_device_waves():
    assert V100.waves(80) == 1  # one block on each of the 80 SMs
    assert V100.waves(81) == 2  # one block spills into a tail wave
    assert V100.waves(161, blocks_per_sm=2) == 2


def test_occupancy_zero_rejected():
    kernel = assemble(
        ".kernel big\n.smem 131072\nEXIT;\n"
    )
    with pytest.raises(SimLaunchError):
        run_grid(kernel, RTX2070, 1, 32, {}, GlobalMemory(1 << 12))
