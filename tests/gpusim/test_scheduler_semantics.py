"""Focused timing-semantics tests for the SM scheduler.

Every simulation runs on both engines (the ``both_engines`` fixture), so
each test pins the scheduler's per-cycle path and its sleeping path.
"""

import numpy as np
import pytest

from repro.common import SimDeadlock
from repro.gpusim import GlobalMemory, V100, simulate_resident_blocks
from repro.gpusim.sm import BlockSpec, SMSimulator
from repro.sass import assemble


@pytest.fixture
def run(both_engines):
    """Counters of one block of *src* (equal on both engines)."""

    def _run(src, threads=32, device=V100, gmem=None, **assemble_kwargs):
        kernel = assemble(src, **assemble_kwargs)
        return both_engines(
            lambda: simulate_resident_blocks(
                kernel, device, params={}, gmem=gmem or GlobalMemory(1 << 16),
                threads_per_block=threads,
                num_blocks=1,  # isolate one block so per-warp timing is visible
            ).counters
        )

    return _run


def test_stall_counts_delay_issue(run):
    """A stall of S holds the warp's next issue back to cycle S."""
    short = run("MOV R0, 0x1;\nMOV R1, 0x1;\nEXIT;\n")
    long = run(
        "[B------:R-:W-:-:S09] MOV R0, 0x1;\nMOV R1, 0x1;\nEXIT;\n"
    )
    # Baseline: issue at 0, pipe-limited second MOV at 2 → EXIT at 3.
    # Stalled: second MOV at 9 → EXIT at 10: 7 extra cycles.
    assert long.cycles - short.cycles == 7


def test_fma_pipe_limits_one_warp_to_half_rate(run):
    """A lone warp's FFMA stream issues at most every 2 cycles."""
    body = "\n".join(f"FFMA R{i % 16}, R20, R21, R{i % 16};" for i in range(64))
    c = run(body + "\nEXIT;\n")
    assert c.cycles >= 2 * 64


def test_two_warps_share_alu_and_fma_pipes(run):
    """INT work from warp B fills the FFMA dead cycles of warp A."""
    body = []
    for i in range(32):
        body.append(f"FFMA R{i % 8}, R20, R21, R{i % 8};")
        body.append(f"IADD3 R{8 + i % 8}, R22, R23, RZ;")
    src = "\n".join(body) + "\nEXIT;\n"
    one = run(src, threads=32)
    # Same per-warp program with 2 warps: pipes overlap, far less than 2×.
    two = run(src, threads=64)
    assert two.cycles < 1.5 * one.cycles


def test_scoreboard_blocks_until_completion(run):
    """A consumer waiting on an LDG barrier stalls ~ the memory latency."""
    src = (
        "MOV R2, 0x400;\nMOV R3, 0x0;\n"
        "[B------:R-:W0:-:S01] LDG.E R4, [R2];\n"
        "[B0-----:R-:W-:-:S01] IADD3 R5, R4, 0x1, RZ;\nEXIT;\n"
    )
    c = run(src)
    assert c.cycles > V100.lat_gmem_l2_miss


def test_independent_work_hides_memory_latency(run):
    """FFMAs between the LDG and its consumer absorb the wait."""
    filler = "\n".join(
        f"[B------:R-:W-:-:S01] FFMA R{8 + i % 8}, R20, R21, R{8 + i % 8};"
        for i in range(400)
    )
    src = (
        "MOV R2, 0x400;\nMOV R3, 0x0;\n"
        "[B------:R-:W0:-:S01] LDG.E R4, [R2];\n"
        + filler
        + "\n[B0-----:R-:W-:-:S01] IADD3 R5, R4, 0x1, RZ;\nEXIT;\n"
    )
    with_filler = run(src)
    # 400 FFMAs × 2 cycles dominate; the load is fully hidden.
    assert with_filler.cycles < 2 * 400 + 150


def test_deadlock_detected(both_engines):
    """A warp spinning forever must raise SimDeadlock, not hang.

    (Exiting before a peer's BAR.SYNC no longer deadlocks — Volta
    arrival semantics release the barrier — so the livelock here is an
    unconditional infinite loop in one warp.)
    """
    import repro.gpusim.sm as sm_mod

    src = (
        "S2R R0, SR_TID.X;\n"
        "ISETP.LT.U32.AND P0, PT, R0, 0x20, PT;\n"
        "@!P0 EXIT;\n"  # warp 1 exits; warp 0 spins forever
        "SPIN:\n"
        "[B------:R-:W-:-:S02] IADD3 R1, R1, 0x1, RZ;\n"
        "BRA SPIN;\n"
        "EXIT;\n"
    )
    kernel = assemble(src, auto_schedule=True)
    gmem = GlobalMemory(1 << 12)
    sim = SMSimulator(V100, kernel.instructions, gmem)

    def deadlocks():
        with pytest.raises(SimDeadlock):
            sim.run([BlockSpec(0, 2, np.zeros(4096, np.uint8), 1024)])

    old = sm_mod.MAX_CYCLES
    sm_mod.MAX_CYCLES = 20_000
    try:
        both_engines(deadlocks)
    finally:
        sm_mod.MAX_CYCLES = old


def test_dram_bandwidth_throttles_streaming_loads(run):
    """Loads beyond the fair-share DRAM rate finish later than the base
    latency alone would predict."""
    def kernel(n_loads):
        lines = ["MOV R2, 0x400;", "MOV R3, 0x0;"]
        for i in range(n_loads):
            lines.append(
                f"[B------:R-:W0:-:S01] LDG.E.128 R{4 * (i % 40) + 8}, "
                f"[R2 + {(i * 16) % 512:#x}];"
            )
        lines.append("[B0-----:R-:W-:-:S01] EXIT;")
        return "\n".join(lines)

    few = run(kernel(4), threads=256)
    many = run(kernel(60), threads=256)
    assert many.cycles > few.cycles + 100
    assert many.dram_sectors > few.dram_sectors


def test_l2_resident_loads_bypass_dram_bucket(run):
    gmem = GlobalMemory(1 << 16)
    resident = gmem.alloc(1024, l2_resident=True)
    streaming = gmem.alloc(1024)

    def loads(ptr):
        lines = [f"MOV R2, {ptr:#x};", "MOV R3, 0x0;"]
        for i in range(32):
            lines.append(
                f"[B------:R-:W0:-:S01] LDG.E R{8 + i % 32}, [R2 + {4 * i:#x}];"
            )
        lines.append("[B0-----:R-:W-:-:S01] EXIT;")
        return run("\n".join(lines), threads=256, gmem=gmem)

    c_res = loads(resident)
    c_str = loads(streaming)
    assert c_res.l2_sectors > 0 and c_res.dram_sectors == 0
    assert c_str.dram_sectors > 0 and c_str.l2_sectors == 0
