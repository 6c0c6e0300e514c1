"""InferenceSession: compilation, execution, arena coupling, e2e paper run."""

import numpy as np
import pytest

from repro.common import ConvProblem
from repro.common.errors import ConvConfigError
from repro.common.rng import make_rng, random_activation, random_filter
from repro.convolution import conv2d
from repro.runtime import ExecutionContext, InferenceSession

TINY = [
    ConvProblem(n=1, c=4, h=8, w=8, k=4),
    ConvProblem(n=1, c=8, h=8, w=8, k=8),
]


def _tensors(problems, seed=0):
    rng = make_rng(seed)
    return ([random_activation(p, rng) for p in problems],
            [random_filter(p, rng) for p in problems])


def test_compile_produces_plan_per_layer():
    session = InferenceSession(TINY, context=ExecutionContext())
    plans = session.compile()
    assert len(plans) == len(TINY)
    for plan, prob in zip(plans, TINY):
        assert plan.prob is prob
        assert plan.algo
        assert plan.workspace_bytes >= 0
    assert session.compile() is plans  # memoized


def test_run_matches_per_layer_conv2d():
    ctx = ExecutionContext()
    session = InferenceSession(TINY, context=ctx)
    inputs, filters = _tensors(TINY)
    result = session.run(inputs, filters)
    assert len(result.outputs) == len(TINY)
    for plan, x, f, y in zip(session.plans, inputs, filters, result.outputs):
        expect = conv2d(x, f, pad=plan.prob.pad, algo=plan.algo)
        np.testing.assert_array_equal(y, expect)


def test_forced_algorithm_mode():
    ctx = ExecutionContext()
    session = InferenceSession(TINY, mode="DIRECT", context=ctx)
    inputs, filters = _tensors(TINY)
    result = session.run(inputs, filters)
    assert all(run.algo == "DIRECT" for run in result.layers)
    assert result.arena.peak_bytes == 0  # DIRECT needs no workspace


@pytest.mark.parametrize("mode, tile", [
    ("WINOGRAD", "f22"),
    ("WINOGRAD_F44", "f44"),
    ("WINOGRAD_NONFUSED", "f44"),  # runs F(4×4,3×3) on 6×6 tiles
    ("DIRECT", None),
])
def test_plan_tile_is_the_family_the_algorithm_runs(mode, tile):
    from repro.models import resnet_layer

    session = InferenceSession([resnet_layer("Conv3", 4)], mode=mode,
                               context=ExecutionContext())
    assert session.compile()[0].tile == tile


def test_auto_mode_compiles_from_trials():
    ctx = ExecutionContext()
    session = InferenceSession(TINY[:1], mode="AUTO", context=ctx)
    inputs, filters = _tensors(TINY[:1])
    result = session.run(inputs, filters)
    from repro.convolution.api import ALGORITHMS

    assert session.plans[0].algo in ALGORITHMS
    assert ctx.dispatch_stats.trials_run > 0
    assert len(result.layers) == 1


def test_auto_mode_requires_calibration_for_bare_compile():
    session = InferenceSession(TINY, mode="AUTO", context=ExecutionContext())
    with pytest.raises(ConvConfigError):
        session.compile()


def test_shape_mismatch_rejected():
    session = InferenceSession(TINY, context=ExecutionContext())
    inputs, filters = _tensors(TINY)
    with pytest.raises(ConvConfigError):
        session.run(inputs[::-1], filters)


def test_layer_count_mismatch_rejected():
    session = InferenceSession(TINY, context=ExecutionContext())
    inputs, filters = _tensors(TINY)
    with pytest.raises(ConvConfigError):
        session.run(inputs[:1], filters[:1])


def test_unknown_mode_rejected():
    with pytest.raises(ConvConfigError):
        InferenceSession(TINY, mode="FASTEST", context=ExecutionContext())


def test_mode_outside_the_dispatch_candidates_rejected_at_construction():
    # WINOGRAD_REFERENCE is a conv2d algorithm the dispatcher cannot
    # plan (no workspace or time model): a typed error naming the
    # accepted modes, raised before any planning.
    from repro.perfmodel.selection import DISPATCH_CANDIDATES

    with pytest.raises(ConvConfigError, match="AUTO_HEURISTIC") as err:
        InferenceSession(TINY, mode="WINOGRAD_REFERENCE", context=ExecutionContext())
    assert all(algo in str(err.value) for algo in DISPATCH_CANDIDATES)


@pytest.mark.parametrize("mode", ["AUTO_HEURISTIC", "GEMM", "WINOGRAD_F44"])
def test_plans_take_predictions_from_the_dispatcher_selection(mode):
    from repro.convolution.autotune import _select_candidates

    session = InferenceSession(TINY, mode=mode, context=ExecutionContext())
    for plan in session.compile():
        ranked, excluded, predictions = _select_candidates(
            plan.prob, session.device, None
        )
        assert plan.predicted_seconds == predictions[plan.algo]
        assert plan.excluded == excluded
        if mode == "AUTO_HEURISTIC":
            assert [plan.algo, *plan.fallbacks] == ranked


def test_empty_layer_list_rejected():
    with pytest.raises(ConvConfigError):
        InferenceSession([], context=ExecutionContext())


def test_workspace_limit_excludes_algorithms():
    # A zero workspace budget forbids WINOGRAD's 16KC bytes; the session
    # must fall back to a workspace-free algorithm, not blow the arena.
    ctx = ExecutionContext()
    session = InferenceSession(
        TINY, workspace_limit_bytes=0, context=ctx
    )
    inputs, filters = _tensors(TINY)
    result = session.run(inputs, filters)
    assert all(run.workspace_bytes == 0 for run in result.layers)
    assert result.arena.peak_bytes == 0


def test_result_to_dict_is_json_ready():
    import json

    session = InferenceSession(TINY, context=ExecutionContext())
    inputs, filters = _tensors(TINY)
    result = session.run(inputs, filters)
    payload = json.loads(json.dumps(result.to_dict()))
    assert len(payload["layers"]) == len(TINY)
    assert payload["arena"]["reserves"] == len(TINY)


def test_paper_resnet_layers_end_to_end():
    """Satellite: the four Table-1 ResNet 3x3 layers at N=32.

    Asserts the per-layer algorithm choices, the arena's high-water
    mark and reuse accounting, bit-identical outputs vs per-layer
    conv2d, and determinism across two runs.
    """
    from repro.models import resnet_layer
    from repro.perfmodel.workspace import dispatch_workspace_bytes

    problems = [
        resnet_layer(name, 32) for name in ("Conv2", "Conv3", "Conv4", "Conv5")
    ]
    inputs, filters = _tensors(problems)

    ctx = ExecutionContext()
    session = InferenceSession(problems, context=ctx)
    result = session.run(inputs, filters)

    # The heuristic picks a fused Winograd kernel for every 3x3 ResNet
    # layer (that is the point of the paper) — the F(4x4,3x3) family,
    # whose projected time beats F(2x2,3x3) at these shapes (§8.1).
    assert [run.algo for run in result.layers] == ["WINOGRAD_F44"] * 4
    assert [plan.tile for plan in session.plans] == ["f44"] * 4

    # One arena buffer sized at the largest single layer's closed-form
    # workspace (Conv5: 36*512*512*4 = 36 MiB — the 6x6 transform holds
    # 36 elements per tile vs f22's 16), reused by every layer.
    per_layer = [
        dispatch_workspace_bytes(p, plan.algo)
        for p, plan in zip(problems, session.plans)
    ]
    assert result.arena.peak_bytes == max(per_layer) == 36 << 20
    assert result.arena.reuses >= len(problems) - 1
    assert result.arena.grows == 0  # pre-sized from the compiled plan

    # Bit-identical to running each layer through conv2d directly.
    for plan, x, f, y in zip(session.plans, inputs, filters, result.outputs):
        np.testing.assert_array_equal(
            y, conv2d(x, f, pad=plan.prob.pad, algo=plan.algo)
        )

    # Deterministic across a second run in a fresh context.
    again = InferenceSession(problems, context=ExecutionContext()).run(
        inputs, filters
    )
    for a, b in zip(result.outputs, again.outputs):
        np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# Prepared fused-Winograd filters: transformed once per weight set
# ---------------------------------------------------------------------------
FUSED = [
    ConvProblem(n=2, c=8, h=10, w=10, k=16),
    ConvProblem(n=2, c=16, h=6, w=6, k=8),
]


def _prepared_bytes(problems, alpha):
    """Kept KCRS copies plus CR'S'K transforms, float32."""
    return sum(4 * p.k * p.c * p.r * p.s + 4 * alpha**2 * p.c * p.k for p in problems)


@pytest.mark.parametrize("mode, alpha", [("WINOGRAD", 4), ("WINOGRAD_F44", 6)])
def test_second_run_reuses_prepared_filters(mode, alpha):
    session = InferenceSession(FUSED, mode=mode, context=ExecutionContext())
    inputs, filters = _tensors(FUSED)
    session.run(inputs, filters)
    result = session.run(inputs, filters)
    stats = session.context.prepared_filters.stats()
    assert (stats.hits, stats.misses, stats.entries) == (2, 2, 2)
    assert stats.bytes == _prepared_bytes(FUSED, alpha)
    for x, f, y in zip(inputs, filters, result.outputs):
        assert y.tobytes() == conv2d(x, f, algo=mode).tobytes()


@pytest.mark.parametrize("before, after", [(-0.0, 0.0), (0.5, 0.75)])
def test_in_place_filter_edit_is_transformed_again(before, after):
    session = InferenceSession(FUSED, mode="WINOGRAD_F44", context=ExecutionContext())
    inputs, filters = _tensors(FUSED)
    filters[0][0, 0, 0, 0] = before
    session.run(inputs, filters)
    filters[0][0, 0, 0, 0] = after
    result = session.run(inputs, filters)
    stats = session.context.prepared_filters.stats()
    assert (stats.hits, stats.misses, stats.entries) == (1, 3, 2)
    expect = conv2d(inputs[0], filters[0], algo="WINOGRAD_F44")
    assert result.outputs[0].tobytes() == expect.tobytes()


def test_sessions_of_two_batch_sizes_share_one_entry_per_filter():
    ctx = ExecutionContext()
    _, filters = _tensors(FUSED)
    for n in (1, 2):
        problems = [p.with_batch(n) for p in FUSED]
        inputs, _ = _tensors(problems, seed=n)
        InferenceSession(problems, mode="WINOGRAD", context=ctx).run(inputs, filters)
    stats = ctx.prepared_filters.stats()
    assert (stats.hits, stats.misses, stats.entries) == (2, 2, 2)


def test_prepared_entry_dies_with_the_filter_array():
    ctx = ExecutionContext()
    session = InferenceSession(FUSED, mode="WINOGRAD", context=ctx)
    inputs, filters = _tensors(FUSED)
    session.run(inputs, filters)
    assert ctx.prepared_filters.stats().entries == 2
    del filters[0]
    stats = ctx.prepared_filters.stats()
    assert stats.entries == 1
    assert stats.bytes == _prepared_bytes(FUSED[1:], 4)


def test_new_filter_arrays_every_run_keep_resident_bytes_flat():
    ctx = ExecutionContext()
    session = InferenceSession(FUSED, mode="WINOGRAD_F44", context=ctx)
    inputs, filters = _tensors(FUSED)
    resident = []
    for _ in range(4):
        fresh = [f.copy() for f in filters]
        session.run(inputs, fresh)
        resident.append(ctx.prepared_filters.stats().bytes)
    assert resident == [_prepared_bytes(FUSED, 6)] * 4
    stats = ctx.prepared_filters.stats()
    assert (stats.hits, stats.misses, stats.entries) == (0, 8, 2)
