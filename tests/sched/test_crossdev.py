"""Cross-device schedule validation: penalty semantics and round-trips.

Driven by a synthetic, *device-sensitive* cost model patched in place of
``measure_main_loop`` — the two devices genuinely prefer different
ldg interleaves, so cross-validation must surface a positive penalty
while home-device validation reports zero.
"""

import types

import pytest

from repro.common.errors import ConvConfigError
from repro.gpusim import RTX2070, V100
from repro.runtime import ExecutionContext
from repro.sched import (
    CrossDeviceReport,
    Schedule,
    ScheduleSearchConfig,
    ScheduleSpace,
    cross_validate,
    ensure_schedule,
    validate_plan_on,
)

SMALL_SPACE = ScheduleSpace(
    yield_strategies=("natural",),
    ldg_interleaves=(2, 8),
    sts_interleaves=(6,),
    double_buffers=(2,),
)

CONFIG = ScheduleSearchConfig(space=SMALL_SPACE)


def divergent_cycles(tunables, device) -> float:
    """V100 wants ldg8; RTX2070's shallower LSU queue wants ldg2."""
    if device.arch == "volta":
        return 5000.0 - 50 * tunables.ldg_interleave
    return 5000.0 + 50 * tunables.ldg_interleave


@pytest.fixture
def fake_simulator(monkeypatch):
    def fake_measure(prob, device, tunables, iters=3, num_blocks=None,
                     context=None, tile=None):
        cycles = divergent_cycles(tunables, device)
        return types.SimpleNamespace(
            cycles_per_iter=cycles, tflops=1e6 / cycles, sol=0.9
        )

    monkeypatch.setattr("repro.sched.search.measure_main_loop", fake_measure)
    monkeypatch.setattr(
        "repro.sched.search.lint_gate_candidate", lambda *a, **k: None
    )


def _search(device):
    ctx = ExecutionContext(device=device)
    result = ensure_schedule(device=device, config=CONFIG, context=ctx)
    return ctx, result


def test_home_device_validation_has_zero_penalty(fake_simulator):
    ctx, result = _search(V100)
    report = validate_plan_on(result, V100, config=CONFIG, context=ctx)
    assert isinstance(report, CrossDeviceReport)
    assert report.tuned_on == "V100" and report.validated_on == "V100"
    assert report.penalty_pct == pytest.approx(0.0)
    assert report.foreign_cycles == report.foreign_best_cycles


def test_cross_device_penalty_is_positive_when_orderings_diverge(fake_simulator):
    ctx_v, result_v = _search(V100)
    ctx_r = ExecutionContext(device=RTX2070)
    report = validate_plan_on(result_v, "RTX2070", config=CONFIG, context=ctx_r)
    # V100's winner (ldg8: 4600) costs 5400 on RTX2070, whose own floor
    # is ldg2 at 5100 → +300/5100.
    assert result_v.best.schedule.ldg_interleave == 8
    assert report.validated_on == "RTX2070"
    assert report.foreign_cycles == pytest.approx(5400.0)
    assert report.foreign_best_cycles == pytest.approx(5100.0)
    assert report.penalty_pct == pytest.approx(300 / 5100 * 100)
    # ...and symmetrically, the RTX winner pays on V100.
    back = validate_plan_on(
        ensure_schedule(device=RTX2070, config=CONFIG, context=ctx_r),
        V100, config=CONFIG, context=ctx_v,
    )
    assert back.penalty_pct > 0


def test_validate_on_method_and_report_serialization(fake_simulator):
    ctx_v, result_v = _search(V100)
    ctx_r = ExecutionContext(device=RTX2070)
    report = validate_plan_on(result_v, "turing", config=CONFIG, context=ctx_r)
    payload = report.to_dict()
    assert payload["tuned_on"] == "V100"
    assert payload["validated_on"] == "RTX2070"
    assert payload["tile"] == "f22"
    assert payload["schedule"] == result_v.best.schedule.label()
    assert payload["penalty_pct"] == pytest.approx(report.penalty_pct)
    assert payload["iters"] == result_v.budget.base_iters


def test_validate_bare_schedule_needs_tuned_on(fake_simulator):
    ctx_r = ExecutionContext(device=RTX2070)
    schedule = Schedule(yield_strategy="natural", ldg_interleave=8,
                        sts_interleave=6, double_buffer=2)
    report = validate_plan_on(
        schedule, RTX2070, tuned_on="V100", config=CONFIG, context=ctx_r,
    )
    assert report.tuned_on == "V100"
    assert report.penalty_pct > 0


def test_validate_rejects_planless_objects(fake_simulator):
    ctx = ExecutionContext(device=V100)
    with pytest.raises(ConvConfigError, match="validate_plan_on"):
        validate_plan_on(object(), V100, config=CONFIG, context=ctx)


def test_off_grid_schedule_cheaper_than_floor_clamps_penalty(fake_simulator):
    """A validated schedule outside the searched grid can beat the grid
    floor; the penalty is then 0, never negative."""
    narrow = ScheduleSearchConfig(space=ScheduleSpace(
        yield_strategies=("natural",),
        ldg_interleaves=(2, 4),  # grid floor on V100 is ldg4 = 4800
        sts_interleaves=(6,),
        double_buffers=(2,),
    ))
    ctx = ExecutionContext(device=V100)
    off_grid = Schedule(yield_strategy="natural", ldg_interleave=8,
                        sts_interleave=6, double_buffer=2)  # 4600 on V100
    report = validate_plan_on(
        off_grid, V100, tuned_on=V100, config=narrow, context=ctx,
    )
    assert report.foreign_best_cycles == pytest.approx(4600.0)
    assert report.penalty_pct == pytest.approx(0.0)


def test_cross_validate_covers_every_ordered_pair(fake_simulator):
    ctx_v, result_v = _search(V100)
    ctx_r, result_r = _search(RTX2070)
    reports = cross_validate(
        {"V100": result_v, "RTX2070": result_r},
        config=CONFIG,
        contexts={"V100": ctx_v, "RTX2070": ctx_r},
    )
    pairs = {(r.tuned_on, r.validated_on) for r in reports}
    assert pairs == {("V100", "RTX2070"), ("RTX2070", "V100")}
    assert all(r.penalty_pct > 0 for r in reports)


@pytest.mark.slow
def test_real_simulator_cross_validation_round_trip():
    """gpusim in the loop: the RTX2070 f44 winner pays a real penalty on
    V100 (measured against V100's own rung-0 floor), and validating any
    winner on its home device never reports a negative penalty."""
    from repro.sched import QUICK_SPACE

    config = ScheduleSearchConfig(space=QUICK_SPACE)
    ctx_r = ExecutionContext(device=RTX2070)
    ctx_v = ExecutionContext(device=V100)
    result_r = ensure_schedule(device=RTX2070, config=config, context=ctx_r,
                               tile="f44")
    report = validate_plan_on(result_r, V100, config=config, context=ctx_v)
    assert report.tile == "f44"
    assert report.penalty_pct >= 0.0
    home = validate_plan_on(result_r, RTX2070, config=config, context=ctx_r)
    assert home.penalty_pct >= 0.0
