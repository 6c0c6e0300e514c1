"""Differential cycle-equivalence: fast engine vs. reference engine.

Both engines issue through the one scheduler (``gpusim.sm.schedule``);
they differ in how an instruction's effects and footprint are produced.
The reference engine runs ``engine.execute`` on one warp as each
instruction issues and steps every cycle.  The fast engine replaces
that with four pieces this file checks against it, bit for bit (same
cycle counts, same sector/conflict counters, same occupancy) on the
kernels the paper actually measures:

* the lockstep functional replay (``fastsim._Replay``);
* decode's static footprints (``base_cycles``/``base_lat``), which the
  reference engine takes from ``ExecResult`` instead;
* trace assembly (``fastsim.replay_traces``);
* the scheduler's sleep and wake rules (each partition looked at only
  in cycles where it might issue).

The default tier covers a few main-loop schedules, the F(4×4) default
main loop and the full kernels (prologue and epilogue) of both
families, on both devices, with the full ``Counters`` record compared
field-for-field.  The ``slow`` tier sweeps the entire QUICK_SPACE grid
(the CI search space) plus Table-1 layer kernels.
"""

import dataclasses

import numpy as np
import pytest

from repro.common import SimMemoryFault, SimulatorError
from repro.gpusim import DEVICES, V100, GlobalMemory, run_grid, simulate_resident_blocks
from repro.kernels.runner import _simulate_fused_kernel
from repro.kernels.winograd_fused import default_tunables
from repro.models import paper_layers
from repro.runtime import ExecutionContext, activate
from repro.sass import assemble
from repro.sched.space import PAPER_SCHEDULE, QUICK_SPACE

DEVICE_KEYS = ("RTX2070", "V100")


@pytest.fixture(autouse=True)
def _isolated(monkeypatch):
    # Every simulation must actually run through the engine under test:
    # a sim-cache hit (memory or disk) would compare a payload against
    # itself and prove nothing.
    monkeypatch.setenv("REPRO_SIM_CACHE", "0")
    with activate(ExecutionContext()):
        yield


def _counters(monkeypatch, engine, prob, device, tunables, iters, **kind):
    monkeypatch.setenv("REPRO_SIM_ENGINE", engine)
    result = _simulate_fused_kernel(prob, device, tunables, iters, None, **kind)
    return dataclasses.asdict(result.counters), result.occupancy


def _assert_engines_agree(monkeypatch, prob, device, tunables, iters=3, **kind):
    ref_counters, ref_occ = _counters(
        monkeypatch, "reference", prob, device, tunables, iters, **kind
    )
    fast_counters, fast_occ = _counters(
        monkeypatch, "fast", prob, device, tunables, iters, **kind
    )
    assert fast_occ == ref_occ
    assert fast_counters == ref_counters, {
        k: (ref_counters[k], fast_counters[k])
        for k in ref_counters
        if ref_counters[k] != fast_counters[k]
    }


def _surrogate():
    from repro.perfmodel.layer_model import _SURROGATE

    return _SURROGATE


# ---------------------------------------------------------------------------
# Default tier: representative schedules, both devices, full Counters.
# ---------------------------------------------------------------------------
SPOT_SCHEDULES = [PAPER_SCHEDULE] + QUICK_SPACE.candidates()[:2]


@pytest.mark.parametrize("dev_key", DEVICE_KEYS)
@pytest.mark.parametrize(
    "schedule", SPOT_SCHEDULES, ids=lambda s: s.label()
)
def test_engines_agree_on_spot_schedules(monkeypatch, dev_key, schedule):
    _assert_engines_agree(
        monkeypatch, _surrogate(), DEVICES[dev_key], schedule.to_tunables()
    )


@pytest.mark.parametrize("dev_key", DEVICE_KEYS)
@pytest.mark.parametrize(
    "tile,main_loop_only",
    [("f22", False), ("f44", True), ("f44", False)],
    ids=["f22-full", "f44-main", "f44-full"],
)
def test_engines_agree_on_default_kernels(monkeypatch, dev_key, tile, main_loop_only):
    """The kernels the ledger simulates besides the f22 main loops: the
    F(4×4) main loop and both families' full kernels (prologue, main
    loop and OTF epilogue), at the layer model's surrogate shapes."""
    tunables = default_tunables(tile)
    prob = dataclasses.replace(_surrogate(), k=tunables.bk)
    _assert_engines_agree(
        monkeypatch, prob, DEVICES[dev_key], tunables,
        tile=tile, main_loop_only=main_loop_only,
    )


TWO_BLOCKS = """
.kernel two_blocks
.registers 32
.smem 2048
.param 8 ptr
S2R R0, SR_TID.X;
SHF.L.U32 R1, R0, 0x2, RZ;
MOV R2, param:ptr;
MOV R3, c[0x0][0x164];
IADD3 R2, R2, R1, RZ;
LDG.E R4, [R2];
STS [R1], R4;
BAR.SYNC;
[B------:R-:W-:Y:S01] LDS R5, [R1];
FFMA R6, R5, R5, R4;
[B------:R-:W-:Y:S02] FFMA R7, R6, R5, R4;
STG.E [R2], R7;
EXIT;
"""


def _two_block_launch():
    kernel = assemble(TWO_BLOCKS, auto_schedule=True)
    gmem = GlobalMemory(1 << 16)
    ptr = gmem.alloc(4096)
    return simulate_resident_blocks(
        kernel, V100, params={"ptr": ptr}, gmem=gmem,
        threads_per_block=128, num_blocks=2,
    ).counters


@pytest.mark.parametrize("kernel", ["f22-full", "f44-full", "two-blocks"])
def test_idle_cycles_are_the_scheduler_cycles_left_over(monkeypatch, kernel):
    """Each scheduler-cycle is an issue, a yield-switch bubble or an idle
    look, on both engines: the default full kernels of both families on
    RTX2070, and two resident blocks on V100."""
    for engine in ("reference", "fast"):
        if kernel == "two-blocks":
            monkeypatch.setenv("REPRO_SIM_ENGINE", engine)
            device, c = V100, dataclasses.asdict(_two_block_launch())
        else:
            device = DEVICES["RTX2070"]
            tunables = default_tunables(kernel[:3])
            prob = dataclasses.replace(_surrogate(), k=tunables.bk)
            c, _ = _counters(
                monkeypatch, engine, prob, device, tunables, 3,
                tile=kernel[:3], main_loop_only=False,
            )
        assert c["issue_idle_cycles"] == (
            device.schedulers_per_sm * c["cycles"]
            - c["instructions"] - c["switch_penalty_cycles"]
        ), engine


def test_engines_agree_on_table1_layer(monkeypatch):
    """A real Table-1 ResNet layer, not just the search surrogate."""
    prob = paper_layers()[0]
    _assert_engines_agree(
        monkeypatch, prob, DEVICES["RTX2070"], PAPER_SCHEDULE.to_tunables()
    )


@pytest.mark.parametrize("name", ["Reference", "ref", "FAST"])
def test_unknown_engine_name_is_rejected(monkeypatch, name):
    """A misspelt engine must not silently run the fast engine, which
    would let this file compare the fast engine with itself."""
    kernel = assemble("MOV R0, 0x1;\nEXIT;\n")

    def run():
        return simulate_resident_blocks(
            kernel, V100, params={}, gmem=GlobalMemory(1 << 12),
            threads_per_block=32, num_blocks=1,
        )

    monkeypatch.setenv("REPRO_SIM_ENGINE", name)
    with pytest.raises(SimulatorError, match="'fast' or 'reference'"):
        run()
    monkeypatch.delenv("REPRO_SIM_ENGINE")
    assert run().counters.instructions == 2  # unset means fast


# ---------------------------------------------------------------------------
# Slow tier: the whole QUICK_SPACE grid and more Table-1 layers.
# ---------------------------------------------------------------------------
@pytest.mark.slow
@pytest.mark.parametrize("dev_key", DEVICE_KEYS)
@pytest.mark.parametrize(
    "schedule", QUICK_SPACE.candidates(), ids=lambda s: s.label()
)
def test_engines_agree_across_quick_space(monkeypatch, dev_key, schedule):
    _assert_engines_agree(
        monkeypatch, _surrogate(), DEVICES[dev_key], schedule.to_tunables()
    )


@pytest.mark.slow
@pytest.mark.parametrize("layer_idx", range(4))
def test_engines_agree_on_more_table1_layers(monkeypatch, layer_idx):
    # All four Table-1 layers at N=32 (larger batches overflow the
    # 128 MB synthetic per-problem memory image, see _problem_image).
    prob = paper_layers(batch_sizes=(32,))[layer_idx]
    _assert_engines_agree(
        monkeypatch, prob, DEVICES["V100"], PAPER_SCHEDULE.to_tunables()
    )


def test_s2r_and_mufu_latencies_come_from_the_device(monkeypatch):
    """S2R and MUFU wait ``DeviceSpec.lat_s2r`` and ``lat_mufu`` cycles,
    on both engines: a barrier chain through both moves by the deltas."""
    kernel = assemble(
        "[B------:R-:W-:-:S01] MOV R2, 0x3f800000;\n"
        "[B------:R-:W0:-:S01] S2R R0, SR_TID.X;\n"
        "[B0-----:R-:W1:-:S01] MUFU.RCP R1, R2;\n"
        "[B-1----:R-:W-:-:S01] EXIT;\n"
    )
    slow = dataclasses.replace(V100, lat_s2r=V100.lat_s2r + 8, lat_mufu=V100.lat_mufu + 13)
    cycles = {}
    for engine in ("reference", "fast"):
        monkeypatch.setenv("REPRO_SIM_ENGINE", engine)
        for device in (V100, slow):
            cycles[engine, device.lat_s2r] = simulate_resident_blocks(
                kernel, device, params={}, gmem=GlobalMemory(1 << 12),
                threads_per_block=32, num_blocks=1,
            ).counters.cycles
    assert cycles["fast", V100.lat_s2r] == cycles["reference", V100.lat_s2r]
    assert cycles["fast", slow.lat_s2r] == cycles["reference", slow.lat_s2r]
    assert cycles["fast", slow.lat_s2r] - cycles["fast", V100.lat_s2r] == 8 + 13


# ---------------------------------------------------------------------------
# Split lockstep groups: warps that diverge at warp granularity.
# ---------------------------------------------------------------------------
# Odd warps branch away (``@P0 BRA`` on ``(tid >> 5) & 1``); each path
# stores and loads shared memory, touches global memory and waits at its
# own BAR.SYNC; both paths then meet at a third.  The fast engine runs
# each path as a group of every other warp (not a contiguous range), and
# releases the join barrier as one group in arrival order.  Registers
# written before each barrier are read after it, by the next group, and
# the load after the join is conflict-free on even warps only (8-way on
# odd ones), so each warp's footprint is its own.  Two loads overwrite
# their own address register: one before the split (a group of
# contiguous warps) and one after the join (a group in arrival order).
_SPLIT = """
.kernel split_groups
.registers 32
.smem 4096
.param 8 out_ptr
S2R R0, SR_TID.X;
S2R R6, SR_CTAID.X;
SHF.R.U32 R1, R0, 0x5, RZ;
LOP3.AND R2, R1, 0x1, RZ;
ISETP.NE.AND P0, PT, R2, RZ, PT;
SHF.L.U32 R3, R0, 0x2, RZ;
SHF.L.U32 R7, R6, 0xb, RZ;
MOV R4, param:out_ptr;
MOV R5, c[0x0][0x164];
IADD3 R4, R4, R7, RZ;
IADD3 R4, R4, R3, RZ;
IADD3 R8, R0, 0x100, RZ;
STS [R3+0x800], R8;
IADD3 R16, R3, 0x800, RZ;
LDS R16, [R16];
@P0 BRA odd;
STS [R3], R8;
MOV R14, 0x10;
MOV R15, R3;
BAR.SYNC;
LDS R9, [R3];
IADD3 R9, R9, R14, RZ;
STG.E [R4], R9;
BRA join;
odd:
IADD3 R10, R0, 0x200, RZ;
LDG.E R11, [R4];
MOV R14, 0x20;
LOP3.AND R15, R0, 0x7, RZ;
SHF.L.U32 R15, R15, 0x7, RZ;
BAR.SYNC;
STS [R3+0x400], R10;
LDS R12, [R3+0x400];
STG.E [R4], R12;
join:
BAR.SYNC;
LDS R15, [R15];
IADD3 R13, R15, R14, RZ;
IADD3 R13, R13, R16, RZ;
STG.E [R4+0x400], R13;
EXIT;
"""


@pytest.mark.parametrize("dev_key", DEVICE_KEYS)
def test_engines_agree_on_split_groups(monkeypatch, dev_key):
    kernel = assemble(_SPLIT, auto_schedule=True, strict=True)
    runs = {}
    for engine in ("reference", "fast"):
        monkeypatch.setenv("REPRO_SIM_ENGINE", engine)
        gmem = GlobalMemory(1 << 20)
        out = gmem.alloc(2 * 2048)
        result = run_grid(
            kernel, DEVICES[dev_key], grid=2, threads_per_block=256,
            params={"out_ptr": out}, gmem=gmem, concurrent=2,
        )
        runs[engine] = (
            dataclasses.asdict(result.counters),
            gmem.read_array(out, (2, 2, 256), np.uint32),
        )
    (ref, ref_out), (fast, fast_out) = runs["reference"], runs["fast"]
    assert fast == ref, {k: (ref[k], fast[k]) for k in ref if ref[k] != fast[k]}
    np.testing.assert_array_equal(fast_out, ref_out)
    tid = np.arange(256, dtype=np.uint32)
    odd = (tid >> 5) & 1 == 1
    for block in range(2):
        first, second = fast_out[block]
        np.testing.assert_array_equal(first, np.where(odd, tid + 0x200, tid + 0x110))
        # Odd lanes read the word of thread (lane & 7) * 32: written (as
        # tid + 0x100) only when that thread's warp is even.
        row = (tid & 7) * 32
        read = np.where((row >> 5) & 1 == 0, row + 0x100, 0)
        joined = np.where(odd, read + 0x20, tid + 0x110)
        np.testing.assert_array_equal(second, joined + tid + 0x100)


# ---------------------------------------------------------------------------
# Constant loads: the 4 KB bank bounds and alignment, on both engines.
# ---------------------------------------------------------------------------
# Only block 0 loads from the offset under test; block 1 loads its
# out_ptr parameter, so an engine that reads across the bank's end sees
# block 1's bank.
_LDC = """
.kernel ldc
.registers 16
.param 8 out_ptr
S2R R6, SR_CTAID.X;
S2R R0, SR_TID.X;
ISETP.EQ.AND P0, PT, R6, RZ, PT;
MOV R1, 0x160;
@P0 MOV R1, {offset:#x};
LDC R4, [R1];
SHF.L.U32 R7, R0, 0x2, RZ;
SHF.L.U32 R8, R6, 0x7, RZ;
MOV R2, param:out_ptr;
MOV R3, c[0x0][0x164];
IADD3 R2, R2, R7, RZ;
IADD3 R2, R2, R8, RZ;
STG.E [R2], R4;
EXIT;
"""


def _run_ldc(offset):
    kernel = assemble(_LDC.format(offset=offset), auto_schedule=True)
    gmem = GlobalMemory(1 << 16)
    out = gmem.alloc(256)
    result = run_grid(
        kernel, V100, grid=2, threads_per_block=32,
        params={"out_ptr": out}, gmem=gmem, concurrent=2,
    )
    return result.counters.cycles, gmem.read_array(out, (2, 32), np.uint32)


@pytest.mark.parametrize("engine", ["reference", "fast"])
@pytest.mark.parametrize(
    "offset,message",
    [
        (0x1000, "constant access at 0x1000 outside the 4096-byte bank"),
        (0xFFE, "constant access at 0xffe outside the 4096-byte bank"),
        (0x2, "misaligned 4-byte constant access at 0x2"),
    ],
)
def test_bad_constant_load_faults(monkeypatch, engine, offset, message):
    monkeypatch.setenv("REPRO_SIM_ENGINE", engine)
    with pytest.raises(SimMemoryFault, match=message):
        _run_ldc(offset)


def test_in_range_constant_load_agrees(monkeypatch):
    runs = {}
    for engine in ("reference", "fast"):
        monkeypatch.setenv("REPRO_SIM_ENGINE", engine)
        runs[engine] = _run_ldc(0x160)
    cycles, out = runs["fast"]
    assert cycles == runs["reference"][0]
    np.testing.assert_array_equal(out, runs["reference"][1])
    assert (out == 256).all()  # out_ptr: the first allocation


def test_guarded_r2p_keeps_the_mask_it_issued_with(both_engines):
    """``@P0 R2P`` that clears P0 still writes P1 under the P0 it issued
    with: each engine's guard mask is a copy, not a view of the row the
    instruction rewrites."""
    kernel = assemble(
        ".kernel r2p_guard\n.registers 16\n.param 8 out_ptr\n"
        "S2R R0, SR_TID.X;\n"
        "MOV R1, 0x2;\n"
        "ISETP.LT.U32.AND P0, PT, R0, 0x20, PT;\n"
        "@P0 R2P R1, 0x3;\n"
        "MOV R5, RZ;\n"
        "@P1 MOV R5, 0x1;\n"
        "SHF.L.U32 R7, R0, 0x2, RZ;\n"
        "MOV R2, param:out_ptr;\n"
        "MOV R3, c[0x0][0x164];\n"
        "IADD3 R2, R2, R7, RZ;\n"
        "STG.E [R2], R5;\n"
        "EXIT;\n",
        auto_schedule=True,
    )

    def simulate():
        gmem = GlobalMemory(1 << 16)
        out = gmem.alloc(128)
        result = run_grid(kernel, V100, grid=1, threads_per_block=32,
                          params={"out_ptr": out}, gmem=gmem)
        return (gmem.read_array(out, (32,), np.uint32).tolist(),
                dataclasses.asdict(result.counters))

    stored, _ = both_engines(simulate)
    assert stored == [1] * 32
