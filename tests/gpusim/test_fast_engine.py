"""Differential cycle-equivalence: fast engine vs. reference loop.

The pre-decoded fast path (``gpusim/decode.py`` + ``gpusim/fastsim.py``)
must be a *bit-exact* replacement for the per-cycle reference loop in
``SMSimulator._run_reference`` — same cycle counts, same sector/conflict
counters, same occupancy — on the kernels the paper actually measures.

The default tier spot-checks a few schedules on both devices with the
full ``Counters`` record compared field-for-field.  The ``slow`` tier
sweeps the entire QUICK_SPACE grid (the CI search space) plus Table-1
layer kernels.
"""

import dataclasses

import pytest

from repro.gpusim import DEVICES
from repro.kernels import clear_kernel_cache, clear_simulation_cache
from repro.kernels.runner import _simulate_fused_kernel
from repro.models import paper_layers
from repro.sched.space import PAPER_SCHEDULE, QUICK_SPACE

DEVICE_KEYS = ("RTX2070", "V100")


@pytest.fixture(autouse=True)
def _isolated(monkeypatch):
    # Every simulation must actually run through the engine under test:
    # a sim-cache hit (memory or disk) would compare a payload against
    # itself and prove nothing.
    monkeypatch.setenv("REPRO_SIM_CACHE", "0")
    clear_simulation_cache()
    clear_kernel_cache()
    yield
    clear_simulation_cache()
    clear_kernel_cache()


def _counters(monkeypatch, engine, prob, device, tunables, iters=3):
    monkeypatch.setenv("REPRO_SIM_ENGINE", engine)
    result = _simulate_fused_kernel(prob, device, tunables, iters, None)
    return dataclasses.asdict(result.counters), result.occupancy


def _assert_engines_agree(monkeypatch, prob, device, tunables, iters=3):
    ref_counters, ref_occ = _counters(
        monkeypatch, "reference", prob, device, tunables, iters
    )
    fast_counters, fast_occ = _counters(
        monkeypatch, "fast", prob, device, tunables, iters
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


def test_engines_agree_on_table1_layer(monkeypatch):
    """A real Table-1 ResNet layer, not just the search surrogate."""
    prob = paper_layers()[0]
    _assert_engines_agree(
        monkeypatch, prob, DEVICES["RTX2070"], PAPER_SCHEDULE.to_tunables()
    )


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
    # 128 MB synthetic per-problem arena, see _problem_arena).
    prob = paper_layers(batch_sizes=(32,))[layer_idx]
    _assert_engines_agree(
        monkeypatch, prob, DEVICES["V100"], PAPER_SCHEDULE.to_tunables()
    )
