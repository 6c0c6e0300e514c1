"""ServingFrontend: batching, deadlines, backpressure, tenant isolation."""

import asyncio
import dataclasses

import numpy as np
import pytest

from repro.common import ConvProblem, conv_tolerance, make_rng, random_filter
from repro.common.errors import BackpressureError, ServingError
from repro.convolution import conv2d
from repro.serving import ModelSpec, ServingConfig, ServingFrontend

PROB = ConvProblem(n=1, c=4, h=8, w=8, k=4, name="Tiny")
RNG = make_rng(7)
WEIGHTS = random_filter(PROB, RNG)


def _model(name="tiny", mode=None, problems=(PROB,), filters=(WEIGHTS,)):
    return ModelSpec(name=name, problems=tuple(problems),
                     filters=tuple(filters), mode=mode)


def _image(seed=0):
    rng = make_rng(seed)
    return (rng.random((PROB.c, PROB.h, PROB.w), dtype=np.float32) * 2 - 1)


def test_batches_form_up_to_max_batch():
    async def main():
        frontend = ServingFrontend(ServingConfig(
            max_batch=8, max_queue_delay_s=0.010, mode="GEMM"))
        frontend.register_model("a", _model())
        images = [_image(i) for i in range(16)]
        outs = await asyncio.gather(
            *[frontend.submit("a", "tiny", img) for img in images])
        for img, out in zip(images, outs):
            expect = conv2d(img[np.newaxis], WEIGHTS, pad=1, algo="GEMM")[0]
            np.testing.assert_allclose(out[0], expect,
                                       atol=conv_tolerance(PROB))
        snap = frontend.metrics.snapshot()
        await frontend.close()
        return snap

    snap = asyncio.run(main())
    assert snap.requests_completed == 16
    assert snap.batches < 16  # coalescing actually happened
    assert snap.mean_batch_size > 1.0
    assert snap.max_batch_size <= 8
    assert snap.deadline_overshoots == 0


def test_deadline_flushes_partial_batch():
    # One lonely request must not wait for max_batch companions: the
    # queue-delay deadline flushes a batch of one.
    async def main():
        frontend = ServingFrontend(ServingConfig(
            max_batch=64, max_queue_delay_s=0.002, mode="DIRECT"))
        frontend.register_model("a", _model())
        out = await asyncio.wait_for(
            frontend.submit("a", "tiny", _image()), timeout=5.0)
        snap = frontend.metrics.snapshot()
        await frontend.close()
        return out, snap

    out, snap = asyncio.run(main())
    assert out[0].shape == (PROB.k, PROB.out_h, PROB.out_w)
    assert snap.batches == 1 and snap.batched_requests == 1


def test_queue_depth_bound_sheds_load():
    async def main():
        # A long deadline and an oversized batch keep requests queued
        # so the depth bound is what admission control sees.
        frontend = ServingFrontend(ServingConfig(
            max_batch=64, max_queue_delay_s=30.0, max_queue_depth=3,
            mode="DIRECT"))
        frontend.register_model("a", _model())
        queued = [asyncio.ensure_future(
            frontend.submit("a", "tiny", _image(i))) for i in range(3)]
        await asyncio.sleep(0.01)  # let the queue absorb them
        with pytest.raises(BackpressureError) as excinfo:
            await frontend.submit("a", "tiny", _image(99))
        assert excinfo.value.reason == "queue_full"
        snap = frontend.metrics.snapshot()
        assert snap.rejected_by_reason == {"queue_full": 1}
        assert snap.queue_depth == 3
        await frontend.close()  # queued stragglers fail with ServingError
        for fut in queued:
            with pytest.raises(ServingError):
                await fut
        return snap

    asyncio.run(main())


def test_workspace_budget_caps_formed_batch_size():
    # GEMM's im2col workspace is linear in N; a budget sized for two
    # images caps the formed batch at 2 regardless of max_batch.
    from repro.perfmodel.workspace import gemm_workspace_bytes, reserved_bytes

    per_image = reserved_bytes(gemm_workspace_bytes(PROB))

    async def main():
        frontend = ServingFrontend(ServingConfig(
            max_batch=16, max_queue_delay_s=0.005, mode="GEMM",
            workspace_limit_bytes=2 * per_image))
        frontend.register_model("a", _model())
        assert frontend.stats()["tenants"]["a"]["batch_caps"]["tiny"] == 2
        outs = await asyncio.gather(
            *[frontend.submit("a", "tiny", _image(i)) for i in range(6)])
        snap = frontend.metrics.snapshot()
        arena = frontend.stats()["tenants"]["a"]["arena"]
        await frontend.close()
        return outs, snap, arena

    outs, snap, arena = asyncio.run(main())
    assert len(outs) == 6
    assert snap.max_batch_size == 2
    assert arena["peak_bytes"] <= 2 * per_image


def test_auto_tenant_serves_a_candidate_that_fits_the_reserved_budget():
    # WINOGRAD needs 960 B on this layer, reserved as 1,024 B: under a
    # 1,000 B budget the tenant must plan a candidate that fits
    # (IMPLICIT_GEMM needs none), not shed every request; at 1,024 B it
    # serves WINOGRAD.
    prob = ConvProblem(n=1, c=5, h=8, w=8, k=3, name="Odd")
    weights = random_filter(prob, make_rng(3))
    image = make_rng(4).random((prob.c, prob.h, prob.w), dtype=np.float32)

    async def serve(budget):
        frontend = ServingFrontend(ServingConfig(
            max_batch=1, max_queue_delay_s=0.001, workspace_limit_bytes=budget))
        frontend.register_model("a", _model(
            name="odd", problems=(prob,), filters=(weights,)))
        out = await frontend.submit("a", "odd", image)
        chosen = frontend.stats()["tenants"]["a"]["dispatch"]["chosen"]
        await frontend.close()
        return out, chosen

    out, chosen = asyncio.run(serve(1000))
    assert "WINOGRAD" not in chosen
    np.testing.assert_allclose(
        out[0], conv2d(image[np.newaxis], weights, pad=1, algo="DIRECT")[0],
        atol=conv_tolerance(prob),
    )
    assert asyncio.run(serve(1024))[1] == {"WINOGRAD": 1}


def test_unservable_model_rejected_at_registration():
    frontend = ServingFrontend(ServingConfig(
        mode="GEMM", workspace_limit_bytes=64))  # < one image's im2col
    with pytest.raises(ServingError, match="batch 1"):
        frontend.register_model("a", _model())


def test_unknown_mode_rejected_at_registration():
    # A mode no session can run would fail every request; registration
    # refuses it, from the model or from the frontend-wide config.
    from repro.perfmodel.selection import DISPATCH_CANDIDATES
    from repro.perfmodel.workspace import DISPATCH_WORKSPACE

    frontend = ServingFrontend(ServingConfig(workspace_limit_bytes=1 << 30))
    with pytest.raises(ServingError, match="'FASTEST'") as err:
        frontend.register_model("a", _model(mode="fastest"))
    assert "AUTO_HEURISTIC" in str(err.value)
    assert "WINOGRAD_F44" in str(err.value)  # lists what it accepts
    with pytest.raises(ServingError, match="'FASTEST'"):
        ServingFrontend(ServingConfig(mode="FASTEST")).register_model(
            "a", _model()
        )
    # Every accepted algorithm has a workspace formula for the batch cap.
    assert set(DISPATCH_CANDIDATES) <= set(DISPATCH_WORKSPACE)
    frontend.register_model("a", _model(mode="winograd_nonfused"))


def test_forced_algorithm_that_cannot_run_a_layer_rejected_at_registration():
    # WINOGRAD runs 3x3/pad-1 layers only: a 1x1 pad-0 layer would fail
    # every request with ConvConfigError, so registration refuses it.
    pointwise = ConvProblem(n=1, c=4, h=8, w=8, k=4, r=1, s=1, pad=0, name="Pw")
    model = _model(mode="winograd", problems=(PROB, pointwise),
                   filters=(WEIGHTS, np.ones((4, 4, 1, 1), np.float32)))
    frontend = ServingFrontend()
    with pytest.raises(ServingError, match="layer Pw: WINOGRAD cannot run a 1x1"):
        frontend.register_model("a", model)
    assert "a" not in frontend.stats()["tenants"]
    # The AUTO modes and a shape-general algorithm still serve it.
    frontend.register_model("a", dataclasses.replace(model, mode=None))
    frontend.register_model("a", dataclasses.replace(model, name="g", mode="GEMM"))


def test_workspace_limit_surfaces_as_typed_backpressure():
    # Occupy the tenant's arena so the dispatch-time reservation loses:
    # the client must see BackpressureError, never WorkspaceLimitError.
    from repro.perfmodel.workspace import gemm_workspace_bytes, reserved_bytes

    per_image = reserved_bytes(gemm_workspace_bytes(PROB))

    async def main():
        frontend = ServingFrontend(ServingConfig(
            max_batch=1, max_queue_delay_s=0.001, mode="GEMM",
            workspace_limit_bytes=per_image))
        frontend.register_model("a", _model())
        hog = frontend.tenant_context("a").arena.reserve(per_image, tag="hog")
        try:
            with pytest.raises(BackpressureError) as excinfo:
                await frontend.submit("a", "tiny", _image())
            assert excinfo.value.reason == "workspace_limit"
        finally:
            hog.release()
        # With the budget free again the same request is served.
        out = await frontend.submit("a", "tiny", _image())
        snap = frontend.metrics.snapshot()
        await frontend.close()
        return out, snap

    out, snap = asyncio.run(main())
    assert out[0].shape == (PROB.k, PROB.out_h, PROB.out_w)
    assert snap.rejected_by_reason.get("workspace_limit") == 1
    assert snap.requests_completed == 1


def test_tenants_are_isolated():
    async def main():
        frontend = ServingFrontend(ServingConfig(
            max_batch=4, max_queue_delay_s=0.002, mode="GEMM"))
        frontend.register_model("alice", _model())
        frontend.register_model("bob", _model())  # same model name, own state
        await asyncio.gather(
            frontend.submit("alice", "tiny", _image(1)),
            frontend.submit("bob", "tiny", _image(2)),
        )
        ctx_a = frontend.tenant_context("alice")
        ctx_b = frontend.tenant_context("bob")
        stats = frontend.stats()
        await frontend.close()
        return ctx_a, ctx_b, stats

    ctx_a, ctx_b, stats = asyncio.run(main())
    assert ctx_a is not ctx_b
    assert ctx_a.arena is not ctx_b.arena
    assert ctx_a.schedules is not ctx_b.schedules
    # Each tenant's runtime counters are reported separately.
    assert set(stats["tenants"]) == {"alice", "bob"}
    for tenant in ("alice", "bob"):
        assert stats["tenants"][tenant]["arena"]["reserves"] >= 1


def test_multi_layer_stack_round_trip():
    prob2 = ConvProblem(n=1, c=4, h=8, w=8, k=8, name="Tiny2")
    w2 = random_filter(prob2, make_rng(8))

    async def main():
        frontend = ServingFrontend(ServingConfig(
            max_batch=4, max_queue_delay_s=0.002, mode="DIRECT"))
        frontend.register_model("a", _model(
            name="stack", problems=(PROB, prob2), filters=(WEIGHTS, w2)))
        outs = await frontend.submit("a", "stack", [_image(3), _image(4)])
        await frontend.close()
        return outs

    outs = asyncio.run(main())
    assert len(outs) == 2
    assert outs[0].shape == (PROB.k, PROB.out_h, PROB.out_w)
    assert outs[1].shape == (prob2.k, prob2.out_h, prob2.out_w)
    expect = conv2d(_image(3)[np.newaxis], WEIGHTS, pad=1, algo="DIRECT")[0]
    np.testing.assert_array_equal(outs[0], expect)


def test_submission_validation():
    async def main():
        frontend = ServingFrontend(ServingConfig(mode="DIRECT"))
        frontend.register_model("a", _model())
        with pytest.raises(ServingError, match="unknown tenant"):
            await frontend.submit("nobody", "tiny", _image())
        with pytest.raises(ServingError, match="no model"):
            await frontend.submit("a", "missing", _image())
        with pytest.raises(ServingError, match="input shape"):
            await frontend.submit("a", "tiny", _image()[:, :4])
        with pytest.raises(ServingError, match="already has a model"):
            frontend.register_model("a", _model())
        await frontend.close()
        with pytest.raises(ServingError, match="closed"):
            await frontend.submit("a", "tiny", _image())

    asyncio.run(main())


def test_model_spec_validation():
    with pytest.raises(ServingError, match="n=1"):
        ModelSpec(name="bad", problems=(PROB.with_batch(2),),
                  filters=(WEIGHTS,))
    with pytest.raises(ServingError, match="filter shape"):
        ModelSpec(name="bad", problems=(PROB,),
                  filters=(WEIGHTS[:, :2],))
    with pytest.raises(ServingError, match="at least one layer"):
        ModelSpec(name="bad", problems=(), filters=())
    sig = _model().signature()
    assert sig == ((PROB.c, PROB.h, PROB.w, PROB.k, PROB.r, PROB.s, PROB.pad),)


def test_config_validation():
    with pytest.raises(ServingError):
        ServingConfig(max_batch=0)
    with pytest.raises(ServingError):
        ServingConfig(max_queue_delay_s=-1.0)
    with pytest.raises(ServingError):
        ServingConfig(max_queue_depth=0)
    with pytest.raises(ServingError):
        ServingConfig(dispatch_workers=0)
    with pytest.raises(ServingError):
        ServingConfig(workspace_limit_bytes=-1)


def test_stats_export_is_json_ready():
    import json

    async def main():
        frontend = ServingFrontend(ServingConfig(
            max_batch=4, max_queue_delay_s=0.002, mode="GEMM"))
        frontend.register_model("a", _model())
        await frontend.submit("a", "tiny", _image())
        stats = frontend.stats()
        await frontend.close()
        return stats

    stats = asyncio.run(main())
    payload = json.loads(json.dumps(stats))
    assert payload["serving"]["requests_completed"] == 1
    assert payload["serving"]["batches"] == 1
    assert payload["tenants"]["a"]["sessions_compiled"] == 1
    assert payload["tenants"]["a"]["prepared_filters"] == dict(
        hits=0, misses=0, entries=0, bytes=0
    )  # GEMM runs no filter transform
    assert payload["config"]["max_batch"] == 4


def test_batch_sizes_share_the_tenants_prepared_filters():
    async def main():
        frontend = ServingFrontend(ServingConfig(
            max_batch=4, max_queue_delay_s=0.05, mode="WINOGRAD"))
        frontend.register_model("a", _model())
        await frontend.submit("a", "tiny", _image())  # a batch of one
        await asyncio.gather(
            *[frontend.submit("a", "tiny", _image(i)) for i in range(3)])
        stats = frontend.stats()
        await frontend.close()
        return stats

    tenant = asyncio.run(main())["tenants"]["a"]
    assert tenant["sessions_compiled"] == 2
    alpha = 4
    assert tenant["prepared_filters"] == dict(
        hits=1, misses=1, entries=1,
        bytes=4 * PROB.k * PROB.c * 9 + 4 * alpha**2 * PROB.c * PROB.k,
    )
