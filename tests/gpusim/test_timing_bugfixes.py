"""Regression tests for three cycle-accounting bugs found while
vectorizing the hot loop.

Each test encodes the *fixed* behavior and fails on the pre-fix code:

* **yield double-charge** — a yield-requested warp switch used to cost
  two cycles (the ``charged`` bubble *and* an extra issue penalty); the
  §5.1.4 cost is exactly one bubble.
* **first-lane L2 classification** — a warp access straddling the
  L2-resident working set used to charge every sector to whichever side
  the first active lane lived on; sectors are classified individually.
* **barrier deadlock on early exit** — a block whose warp ``EXIT``ed
  before its peers reached ``BAR.SYNC`` used to hang until MAX_CYCLES;
  Volta arrival semantics release the barrier when the straggler exits.

The simulated cases run on both engines (the ``both_engines`` fixture),
so they pin the scheduler's per-cycle and sleeping paths alike.
"""

import numpy as np
import pytest

from repro.gpusim import (
    ExecutionContext,
    GlobalMemory,
    SharedMemory,
    V100,
    WarpState,
    simulate_resident_blocks,
)
from repro.gpusim.engine import execute
from repro.gpusim.sm import BlockSpec, SMSimulator
from repro.sass import assemble, parse_line


@pytest.fixture
def run(both_engines):
    """Counters of one block of *src* (equal on both engines)."""

    def _run(src, threads=32, device=V100, **assemble_kwargs):
        kernel = assemble(src, **assemble_kwargs)
        return both_engines(
            lambda: simulate_resident_blocks(
                kernel, device, params={}, gmem=GlobalMemory(1 << 16),
                threads_per_block=threads, num_blocks=1,
            ).counters
        )

    return _run


# ---------------------------------------------------------------------------
# Bug A: yield-switch penalty double-charged
# ---------------------------------------------------------------------------

def test_yield_switch_costs_exactly_one_bubble(run):
    """§5.1.4: a yield-requested switch 'takes one more clock cycle' —
    one, not two.  The pre-fix loop paid the ``charged`` bubble and then
    added a second cycle at issue time."""
    base = run(
        "MOV R0, 0x1;\n"
        "MOV R1, 0x1;\n"
        "MOV R2, 0x1;\n"
        "EXIT;\n"
    )
    yielded = run(
        "MOV R0, 0x1;\n"
        "[B------:R-:W-:Y:S01] MOV R1, 0x1;\n"
        "MOV R2, 0x1;\n"
        "EXIT;\n"
    )
    assert yielded.warp_switches == 1
    assert yielded.switch_penalty_cycles == 1
    # The switch-back costs the one bubble only (pre-fix: 2 cycles).
    assert yielded.cycles - base.cycles == 1


def test_yield_every_instruction_costs_one_cycle_each(run):
    """N yields ⇒ exactly N extra cycles, not 2N."""
    n = 8
    plain = "\n".join(f"MOV R{i}, 0x1;" for i in range(n)) + "\nEXIT;\n"
    flagged = (
        "\n".join(f"[B------:R-:W-:Y:S01] MOV R{i}, 0x1;" for i in range(n))
        + "\nEXIT;\n"
    )
    base = run(plain)
    yielded = run(flagged)
    assert yielded.warp_switches == n
    assert yielded.cycles - base.cycles == n


# ---------------------------------------------------------------------------
# Bug B: L2 residency decided by the first active lane only
# ---------------------------------------------------------------------------

def _straddling_warp(first_lane_resident: bool):
    """A warp whose 32 4-byte lanes cover 4 sectors: 2 L2-resident and
    2 streaming, ordered so the first active lane lands on either side."""
    gmem = GlobalMemory(1 << 16)
    if first_lane_resident:
        resident = gmem.alloc(1024, l2_resident=True)
        start = resident + 1024 - 64  # lanes 0..15 resident, 16..31 not
    else:
        gmem.alloc(1024)  # streaming region first
        resident = gmem.alloc(1024, l2_resident=True)
        start = resident - 64  # lanes 0..15 streaming, 16..31 resident
    warp = WarpState(warp_id=0, block=0)
    warp.regs[2] = np.uint32(start) + 4 * np.arange(32, dtype=np.uint32)
    warp.regs[3][:] = 0
    ctx = ExecutionContext(
        gmem, SharedMemory(16), np.zeros(4096, np.uint8), 0, V100
    )
    return warp, ctx


@pytest.mark.parametrize("first_lane_resident", [True, False])
def test_straddling_warp_splits_sectors(first_lane_resident):
    """Each 32-byte sector charges the bucket it actually lives in,
    regardless of where the first active lane points (the pre-fix code
    charged all 4 sectors to the first lane's side)."""
    warp, ctx = _straddling_warp(first_lane_resident)
    r = execute(parse_line("LDG.E R4, [R2];"), warp, ctx)
    assert r.dram_sectors == 2
    assert r.l2_sectors == 2
    # Any DRAM sector makes the whole access an L2 miss.
    assert r.variable_latency == V100.lat_gmem_l2_miss


def test_fully_resident_warp_is_all_l2():
    gmem = GlobalMemory(1 << 16)
    resident = gmem.alloc(1024, l2_resident=True)
    warp = WarpState(warp_id=0, block=0)
    warp.regs[2] = np.uint32(resident) + 4 * np.arange(32, dtype=np.uint32)
    warp.regs[3][:] = 0
    ctx = ExecutionContext(
        gmem, SharedMemory(16), np.zeros(4096, np.uint8), 0, V100
    )
    r = execute(parse_line("LDG.E R4, [R2];"), warp, ctx)
    assert r.dram_sectors == 0 and r.l2_sectors == 4
    assert r.variable_latency == V100.lat_gmem_l2_hit


def test_classify_sectors_counts_each_side():
    gmem = GlobalMemory(1 << 16)
    resident = gmem.alloc(256, l2_resident=True)
    addrs = np.uint32(resident - 32) + 32 * np.arange(32, dtype=np.uint32)
    dram, l2 = gmem.classify_sectors(addrs, 4, np.ones(32, bool))
    # Sectors before/after the 256-byte region stream; 8 sectors hit L2.
    assert l2 == 8
    assert dram == 24


# ---------------------------------------------------------------------------
# Bug C: early EXIT deadlocks a block at BAR.SYNC
# ---------------------------------------------------------------------------

@pytest.fixture
def run_blocks(both_engines):
    """Counters of one *num_warps* block of *src* (equal on both engines)."""
    import repro.gpusim.sm as sm_mod

    def _run_blocks(src, num_warps, max_cycles=50_000):
        kernel = assemble(src, auto_schedule=True)
        block = BlockSpec(0, num_warps, np.zeros(4096, np.uint8), 1024)
        old = sm_mod.MAX_CYCLES
        sm_mod.MAX_CYCLES = max_cycles
        try:
            return both_engines(
                lambda: SMSimulator(
                    V100, kernel.instructions, GlobalMemory(1 << 12)
                ).run([block])
            )
        finally:
            sm_mod.MAX_CYCLES = old

    return _run_blocks


def test_exit_before_bar_releases_barrier(run_blocks):
    """A warp exiting before its peers' BAR.SYNC must not count toward
    the barrier (pre-fix: the block spins until MAX_CYCLES)."""
    counters = run_blocks(
        "S2R R0, SR_TID.X;\n"
        "ISETP.LT.U32.AND P0, PT, R0, 0x20, PT;\n"
        "@!P0 EXIT;\n"  # warp 1 exits; warp 0 proceeds to the barrier
        "BAR.SYNC;\n"
        "EXIT;\n",
        num_warps=2,
    )
    assert counters.cycles < 100


def test_last_straggler_exit_releases_waiting_warps(run_blocks):
    """Warps already parked at the barrier are released the cycle the
    last non-arrived warp exits."""
    counters = run_blocks(
        "S2R R0, SR_TID.X;\n"
        "ISETP.LT.U32.AND P0, PT, R0, 0x20, PT;\n"
        "@P0 BRA WAIT;\n"
        # warp 1: dawdle ~45 cycles, then exit without ever reaching BAR
        "[B------:R-:W-:-:S15] MOV R1, 0x1;\n"
        "[B------:R-:W-:-:S15] MOV R1, 0x1;\n"
        "[B------:R-:W-:-:S15] MOV R1, 0x1;\n"
        "EXIT;\n"
        "WAIT:\n"
        "BAR.SYNC;\n"
        "EXIT;\n",
        num_warps=2,
    )
    assert counters.cycles < 200


def test_barrier_still_synchronizes_live_warps(run_blocks):
    """The fix must not weaken a real barrier: all live warps still wait
    for the slowest arrival."""
    counters = run_blocks(
        "S2R R0, SR_TID.X;\n"
        "ISETP.LT.U32.AND P0, PT, R0, 0x20, PT;\n"
        "@P0 BRA WAIT;\n"
        "[B------:R-:W-:-:S15] MOV R1, 0x1;\n"
        "[B------:R-:W-:-:S15] MOV R1, 0x1;\n"
        "[B------:R-:W-:-:S15] MOV R1, 0x1;\n"
        "WAIT:\n"
        "BAR.SYNC;\n"
        "EXIT;\n",
        num_warps=2,
    )
    # Warp 0 reaches WAIT after ~4 issues but must wait for warp 1's
    # three 15-cycle stalls before the barrier opens.
    assert counters.cycles > 45
    assert counters.barrier_wait_cycles > 0
