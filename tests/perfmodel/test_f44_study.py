"""The fused F(4×4, 3×3) design study (§8.1 future work)."""

import pytest

from repro.gpusim import RTX2070, V100
from repro.models import resnet_layer
from repro.perfmodel.f44_study import (
    ALPHA2,
    attainable_sol,
    best_feasible,
    enumerate_blockings,
    f22_reference_blocking_infeasible,
    feasible,
    projected_fused_f44_time,
    projected_speedup_over_f22,
    registers,
)
from repro.perfmodel.roofline import Blocking
from repro.winograd import TILE_F44


def test_f22_blocking_does_not_transplant():
    b = f22_reference_blocking_infeasible()
    assert registers(b) > 253
    assert b.smem_bytes > 64 * 1024
    assert not feasible(b)


def test_accumulator_formula():
    # 36·64·32/256 = 288 accumulators per thread at the F(2×2) blocking.
    assert Blocking(64, 32, 8, elements=ALPHA2).accumulators == 288


def test_some_blocking_is_feasible():
    best = best_feasible()
    assert best is not None
    assert registers(best) <= 253 and best.smem_bytes <= 64 * 1024
    # the shipped F(4×4) tile runs the study's best feasible blocking
    assert (best.bk, best.bn, best.bc, best.elements) == (
        TILE_F44.bk, TILE_F44.bn, TILE_F44.bc, TILE_F44.elements
    )
    assert registers(best) == 187


def test_all_feasible_blockings_memory_bound():
    """The study's punchline: no feasible F(4×4) blocking reaches the
    F(2×2) kernel's 10.67 flops/B."""
    for b in enumerate_blockings():
        if feasible(b):
            assert b.arithmetic_intensity < 10.67


def test_attainable_sol_below_compute_bound():
    best = best_feasible()
    assert 0.3 < attainable_sol(best, V100) < 0.92


def test_projection_beats_f22_but_below_16_over_9():
    """4/2.25 = 1.78× is the ceiling; overcompute and SOL eat into it."""
    p = resnet_layer("Conv3", 64)
    for dev in (V100, RTX2070):
        s = projected_speedup_over_f22(p, dev)
        assert 1.0 < s < 16 / 9 + 1e-9


def test_conv5_projection_hurt_by_overcompute():
    """7×7 outputs pay (8/7)² under F(2×2) but (8/7)² under F(4×4) too —
    the F(4×4) tiles overshoot 7 to 8 as well, so the gain narrows."""
    gain_conv3 = projected_speedup_over_f22(resnet_layer("Conv3", 64), V100)
    gain_conv5 = projected_speedup_over_f22(resnet_layer("Conv5", 64), V100)
    assert gain_conv5 <= gain_conv3 + 1e-9


def test_projected_time_positive_and_scales():
    a = projected_fused_f44_time(resnet_layer("Conv3", 32), V100)
    b = projected_fused_f44_time(resnet_layer("Conv3", 128), V100)
    assert 0 < a < b
    assert b == pytest.approx(4 * a, rel=0.01)
