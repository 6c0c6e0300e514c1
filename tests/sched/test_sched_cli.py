"""``python -m repro sched`` CLI and the plan-layer schedule wiring.

All tests patch the simulator with an instant synthetic cost model (the
paper schedule is the optimum) so the CLI plumbing, the plan cache and
the session integration run in milliseconds.
"""

import json
import types

import pytest

from repro.common import ConvConfigError, make_rng, random_activation, random_filter
from repro.gpusim import RTX2070
from repro.models import resnet_layer
from repro.runtime import ExecutionContext, InferenceSession
from repro.sched import PAPER_SCHEDULE, ScheduleSearchConfig, ScheduleSpace, SearchBudget
from repro.sched.cli import main as sched_main

SMALL_SPACE = ScheduleSpace(
    yield_strategies=("natural", "nvcc8"),
    ldg_interleaves=(2, 8),
    sts_interleaves=(6,),
    double_buffers=(2,),
)
SMALL_CONFIG = ScheduleSearchConfig(
    space=SMALL_SPACE, budget=SearchBudget(max_rungs=1)
)

YIELD_PENALTY = {"natural": 0, "nvcc8": 60, "cudnn7": 100}


@pytest.fixture
def fake_simulator(monkeypatch):
    calls = []

    def fake_measure(prob, device, tunables, iters=3, num_blocks=None, context=None, tile=None):
        calls.append((tunables, iters))
        cycles = (
            5000.0
            - 60 * tunables.ldg_interleave
            - 10 * tunables.sts_interleave
            + YIELD_PENALTY[tunables.yield_strategy]
            + (40 if tunables.double_buffer == 1 else 0)
        )
        return types.SimpleNamespace(
            cycles_per_iter=cycles, tflops=1e6 / cycles, sol=0.9
        )

    monkeypatch.setattr("repro.sched.search.measure_main_loop", fake_measure)
    monkeypatch.setattr(
        "repro.sched.search.lint_gate_candidate", lambda *a, **k: None
    )
    return calls


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
def test_cli_space_lists_candidates(capsys):
    assert sched_main(["space", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "12 candidates" in out
    assert PAPER_SCHEDULE.label() in out


def test_cli_search_no_layers(fake_simulator, capsys):
    rc = sched_main([
        "search", "--quick", "--device", "RTX2070", "--no-layers",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert f"winner: {PAPER_SCHEDULE.label()}" in out
    assert "ldg8_over_ldg2" in out


def test_cli_search_plans_layers_and_writes_json(fake_simulator, tmp_path, capsys,
                                                monkeypatch):
    def no_convolution(*args, **kwargs):
        raise AssertionError("AUTO_HEURISTIC planning ran a convolution")

    monkeypatch.setattr("repro.convolution.autotune._execute", no_convolution)
    json_path = tmp_path / "search.json"
    trace_path = tmp_path / "trace.json"
    rc = sched_main([
        "search", "--quick", "--device", "RTX2070",
        "--layers", "Conv3", "--batch", "1", "--seed", "0",
        "--json", str(json_path), "--trace", str(trace_path),
    ])
    assert rc == 0
    payload = json.loads(json_path.read_text())
    assert payload["search"]["best"]["label"] == PAPER_SCHEDULE.label()
    assert payload["paper_ordering"]["ldg8_over_ldg2"] > 1.0
    [layer] = payload["layers"]
    assert layer["layer"].startswith("Conv3")
    # the heuristic ranks the F(4x4,3x3) variant first on Conv3
    assert layer["algo"] == "WINOGRAD_F44"
    assert layer["tile"] == "f44"
    assert layer["schedule_label"] == PAPER_SCHEDULE.label()
    # the trace records the search and the per-candidate measurements
    spans = json.loads(trace_path.read_text())
    kinds = {s["kind"] for s in spans}
    assert "sched_search" in kinds and "sched" in kinds
    out = capsys.readouterr().out
    assert "WINOGRAD" in out


def test_cli_search_rejects_empty_layers(fake_simulator):
    with pytest.raises(SystemExit):
        sched_main(["search", "--quick", "--layers", " , "])


# ---------------------------------------------------------------------------
# conv2d / plan-cache integration
# ---------------------------------------------------------------------------
def _layer_data(name="Conv3", n=1, seed=0):
    prob = resnet_layer(name, n)
    rng = make_rng(seed)
    return prob, random_activation(prob, rng), random_filter(prob, rng)


def test_conv2d_attaches_schedule_to_cached_plan(fake_simulator):
    from repro.convolution import conv2d

    calls = fake_simulator
    ctx = ExecutionContext(device=RTX2070, schedule_search=SMALL_CONFIG)
    prob, x, f = _layer_data()
    conv2d(x, f, pad=prob.pad, algo="AUTO_HEURISTIC", device=RTX2070,
           context=ctx, tune_schedule=True)
    [(_, plan)] = ctx.plans.items()
    assert plan.algo == "WINOGRAD_F44"
    assert plan.schedule == PAPER_SCHEDULE
    # the second call hits the plan cache and the schedules memo:
    # no fresh simulator measurements.
    count = len(calls)
    conv2d(x, f, pad=prob.pad, algo="AUTO_HEURISTIC", device=RTX2070,
           context=ctx, tune_schedule=True)
    assert len(calls) == count
    assert len(ctx.schedules) == 1


def test_conv2d_tune_schedule_defaults_to_context_config(fake_simulator):
    from repro.convolution import conv2d

    ctx = ExecutionContext(device=RTX2070, schedule_search=SMALL_CONFIG)
    prob, x, f = _layer_data()
    # no tune_schedule kwarg: the context's schedule_search opts in
    conv2d(x, f, pad=prob.pad, algo="AUTO_HEURISTIC", device=RTX2070,
           context=ctx)
    [(_, plan)] = ctx.plans.items()
    assert plan.schedule == PAPER_SCHEDULE


def test_conv2d_without_tuning_leaves_schedule_unset(fake_simulator):
    from repro.convolution import conv2d

    ctx = ExecutionContext(device=RTX2070)
    prob, x, f = _layer_data()
    conv2d(x, f, pad=prob.pad, algo="AUTO_HEURISTIC", device=RTX2070,
           context=ctx)
    [(_, plan)] = ctx.plans.items()
    assert plan.schedule is None
    assert not fake_simulator  # the simulator was never invoked


def test_conv2d_rejects_tune_schedule_for_concrete_algo():
    from repro.convolution import conv2d

    prob, x, f = _layer_data()
    with pytest.raises(ConvConfigError):
        conv2d(x, f, pad=prob.pad, algo="WINOGRAD", tune_schedule=True)


# ---------------------------------------------------------------------------
# InferenceSession integration
# ---------------------------------------------------------------------------
def test_session_compile_records_schedule(fake_simulator):
    ctx = ExecutionContext(device=RTX2070, schedule_search=SMALL_CONFIG)
    session = InferenceSession(
        [resnet_layer("Conv2", 1), resnet_layer("Conv3", 1)],
        mode="AUTO_HEURISTIC", context=ctx,
    )
    assert session.tune_schedule  # defaults on: the context has a config
    plans = session.compile()
    for plan in plans:
        assert plan.algo == "WINOGRAD_F44"
        assert plan.tile == "f44"
        assert plan.schedule == PAPER_SCHEDULE
        assert plan.to_dict()["schedule"] == PAPER_SCHEDULE.to_dict()
    # one search serves every layer
    assert len(ctx.schedules) == 1
    spans = [s for s in ctx.export_trace() if s["kind"] == "plan"]
    assert len(spans) == 2
    assert all(
        s["attrs"]["schedule"] == PAPER_SCHEDULE.label() for s in spans
    )


def test_session_tune_schedule_off_by_default(fake_simulator):
    ctx = ExecutionContext(device=RTX2070)
    session = InferenceSession(
        [resnet_layer("Conv3", 1)], mode="AUTO_HEURISTIC", context=ctx
    )
    assert not session.tune_schedule
    [plan] = session.compile()
    assert plan.schedule is None
    assert plan.to_dict()["schedule"] is None
    assert not fake_simulator
