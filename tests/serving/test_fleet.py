"""FleetRouter: load-aware placement, delegation, stats export.

Routing tests inject a cost function so no schedule search runs; one
submit round-trip drives the full stack (router → frontend → session)
on a tiny problem.
"""

import asyncio
import dataclasses

import numpy as np
import pytest

from repro.common.errors import ServingError
from repro.common.problem import ConvProblem
from repro.gpusim import RTX2070, V100
from repro.serving import FleetRouter, ModelSpec, ServingConfig

TINY = ConvProblem(n=1, c=8, h=8, w=8, k=8, name="tiny")


def _model(name: str, prob: ConvProblem = TINY) -> ModelSpec:
    filt = np.ones((prob.k, prob.c, prob.r, prob.s), dtype=np.float32)
    return ModelSpec(name=name, problems=(prob,), filters=(filt,))


def _router(costs, **kwargs):
    return FleetRouter(
        ("V100", "RTX2070"),
        ServingConfig(max_batch=4, mode="GEMM"),
        cost_fn=lambda model, key, spec: costs[key],
        **kwargs,
    )


def test_router_resolves_devices_through_registry():
    router = _router({"V100": 1.0, "RTX2070": 1.0})
    assert router.device_keys == ["V100", "RTX2070"]
    assert router.planning_context("volta").device is V100
    assert router.planning_context("turing").device is RTX2070
    solo = FleetRouter(("V100",), cost_fn=lambda *a: 1.0)
    with pytest.raises(ServingError, match="not part of this fleet"):
        solo.frontend("RTX2070")


def test_router_rejects_empty_and_duplicate_fleets():
    with pytest.raises(ServingError, match="at least one device"):
        FleetRouter((), cost_fn=lambda *a: 1.0)
    with pytest.raises(ServingError, match="duplicate"):
        FleetRouter(("V100", "volta"), cost_fn=lambda *a: 1.0)


def test_greedy_load_aware_placement_uses_both_devices():
    """A pure argmin-speed policy would park everything on the faster
    device; argmin(load + cost) spills onto the slower one."""
    router = _router({"V100": 1.0, "RTX2070": 2.0})
    devices = [
        router.register_model("t", _model(f"m{i}")).device for i in range(4)
    ]
    # m0 -> V100 (0+1 < 0+2); m1 -> V100 (1+1 < 0+2... tie at 2, V100
    # wins the deterministic key tie-break is not needed: 2 == 2, V100
    # sorts first); m2 -> RTX (3 > 2); m3 -> V100.
    assert set(devices) == {"V100", "RTX2070"}
    assert devices.count("V100") == 3


def test_placement_records_costs_loads_and_traces():
    router = _router({"V100": 1.0, "RTX2070": 2.0})
    decision = router.register_model("t", _model("m0"))
    assert decision.device == "V100"
    assert decision.costs == {"V100": 1.0, "RTX2070": 2.0}
    assert decision.loads == {"V100": 0.0, "RTX2070": 0.0}
    spans = [
        s for s in router.planning_context("V100").tracer.spans()
        if s.kind == "route"
    ]
    assert len(spans) == 1
    assert spans[0].label == "t/m0"


def test_duplicate_registration_rejected():
    router = _router({"V100": 1.0, "RTX2070": 2.0})
    router.register_model("t", _model("m0"))
    with pytest.raises(ServingError, match="already has a model"):
        router.register_model("t", _model("m0"))


def test_refused_registration_books_no_load():
    """A model the device's frontend refuses leaves no load, routing
    entry or route span behind to steer later placements."""
    router = FleetRouter(("V100",), cost_fn=lambda *a: 1.0)
    pointwise = ConvProblem(n=1, c=8, h=8, w=8, k=8, r=1, s=1, pad=0, name="pw")
    model = ModelSpec(
        name="pw", problems=(pointwise,),
        filters=(np.ones((8, 8, 1, 1), dtype=np.float32),), mode="WINOGRAD",
    )
    with pytest.raises(ServingError, match="cannot run"):
        router.register_model("t", model)
    stats = router.stats()
    assert stats["devices"]["V100"]["load_s"] == 0.0
    assert stats["devices"]["V100"]["models"] == 0
    assert stats["routing"] == []
    spans = router.planning_context("V100").tracer.spans()
    assert not [s for s in spans if s.kind == "route"]


@pytest.mark.parametrize("mode", ["FASTEST", "WINOGRAD_REFERENCE"])
def test_unknown_mode_refused_before_the_fleet_bids(mode):
    """The built-in cost model has no time for a mode no session runs;
    the fleet refuses it with the frontend's error before any bid."""
    router = FleetRouter(("V100", "RTX2070"), ServingConfig(max_batch=4))
    model = dataclasses.replace(_model("m"), mode=mode)
    with pytest.raises(ServingError, match=f"model 'm': unknown session mode '{mode}'"):
        router.register_model("t", model)
    assert router.stats()["routing"] == []


def test_submit_routes_to_placed_device_and_runs():
    async def go():
        router = _router({"V100": 5.0, "RTX2070": 1.0})
        async with router:
            decision = router.register_model("t", _model("m0"))
            assert decision.device == "RTX2070"
            image = np.ones((TINY.c, TINY.h, TINY.w), dtype=np.float32)
            outs = await router.submit("t", "m0", image)
            assert len(outs) == 1
            assert outs[0].shape == (TINY.k, TINY.out_h, TINY.out_w)
            # the request ran on the placed device's frontend
            stats = router.stats()
            served = stats["devices"]["RTX2070"]["serving"]["serving"]
            assert served["requests_completed"] == 1
            idle = stats["devices"]["V100"]["serving"]["serving"]
            assert idle["requests_completed"] == 0

    asyncio.run(go())


def test_submit_unplaced_model_is_actionable():
    async def go():
        router = _router({"V100": 1.0, "RTX2070": 1.0})
        async with router:
            with pytest.raises(ServingError, match="no placement"):
                await router.submit("t", "ghost", np.zeros(1))

    asyncio.run(go())


def test_stats_exports_routing_decisions_and_per_device_load():
    router = _router({"V100": 1.0, "RTX2070": 2.0})
    for i in range(3):
        router.register_model("t", _model(f"m{i}"))
    stats = router.stats()
    assert len(stats["routing"]) == 3
    assert all(
        set(d) >= {"tenant", "model", "device", "costs", "loads", "notes"}
        for d in stats["routing"]
    )
    total_models = sum(d["models"] for d in stats["devices"].values())
    assert total_models == 3
    assert stats["devices"]["V100"]["load_s"] == pytest.approx(2.0)
    assert stats["devices"]["RTX2070"]["load_s"] == pytest.approx(2.0)


def test_real_cost_model_is_occupancy_and_device_aware(monkeypatch):
    """With the measured-cycles path patched to a flat per-device value,
    the wave-model cost still differs across devices through their SM
    counts and occupancies — V100 (80 SMs) must underbid RTX2070
    (36 SMs) for a fused-eligible layer."""
    import types

    from repro.models.resnet import resnet_layer

    def fake_ensure(device=None, config=None, context=None, tile=None):
        from repro.sched.space import PAPER_SCHEDULE
        return types.SimpleNamespace(
            best=types.SimpleNamespace(
                schedule=PAPER_SCHEDULE, cycles_per_iter=1000.0
            ),
            budget=types.SimpleNamespace(base_iters=3),
            tile="f22",
        )

    monkeypatch.setattr("repro.sched.search.ensure_schedule", fake_ensure)
    router = FleetRouter(("V100", "RTX2070"), ServingConfig(max_batch=32))
    decision = router.place("t", _model("conv3", resnet_layer("Conv3", n=1)))
    assert decision.costs["V100"] < decision.costs["RTX2070"]


def test_forced_mode_is_costed_with_its_algorithm_alone(monkeypatch):
    """A model served in GEMM mode bids the GEMM time model and runs no
    schedule search, on every device; AUTO still bids the fused path."""
    from repro.models.resnet import resnet_layer
    from repro.perfmodel.selection import predicted_time

    searched = []
    monkeypatch.setattr(
        FleetRouter, "_fused_layer_cost",
        lambda self, dev, prob, family: searched.append((dev.key, family)) or 1e-9,
    )
    prob = resnet_layer("Conv3", n=1)
    router = FleetRouter(("V100", "RTX2070"), ServingConfig(max_batch=4, mode="GEMM"))
    decision = router.place("t", _model("conv3", prob))
    assert searched == []
    for key, spec in (("V100", V100), ("RTX2070", RTX2070)):
        assert decision.costs[key] == predicted_time(prob.with_batch(4), spec, "GEMM")

    auto = FleetRouter(("V100",), ServingConfig(max_batch=4))
    assert auto.place("t", _model("conv3", prob)).costs["V100"] == 1e-9
    assert ("V100", "f22") in searched
