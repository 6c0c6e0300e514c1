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
* the scheduler's arithmetic skip over idle stretches.

The default tier covers a few main-loop schedules, the F(4×4) default
main loop and the full kernels (prologue and epilogue) of both
families, on both devices, with the full ``Counters`` record compared
field-for-field.  The ``slow`` tier sweeps the entire QUICK_SPACE grid
(the CI search space) plus Table-1 layer kernels.
"""

import dataclasses

import pytest

from repro.common import SimulatorError
from repro.gpusim import DEVICES, V100, GlobalMemory, simulate_resident_blocks
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
