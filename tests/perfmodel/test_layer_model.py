"""The simulator-driven whole-layer model."""

import pytest

from repro.gpusim import RTX2070, V100
from repro.models import resnet_layer
from repro.perfmodel import our_layer_performance

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def conv3_n32():
    return our_layer_performance(resnet_layer("Conv3", 32), V100)


def test_basic_sanity(conv3_n32):
    r = conv3_n32
    assert r.time_s > 0
    assert 0 < r.sol_main_loop <= 1
    assert 0 < r.sol_total <= r.sol_main_loop + 1e-9
    assert r.iters == 128 // 8
    assert r.occupancy == 1  # 253 registers


def test_blocks_and_waves(conv3_n32):
    r = conv3_n32
    # Conv3N32: 14×14 tiles × 32 / 32 per block × (128/64) k-blocks.
    assert r.blocks == 14 * 14 * 32 // 32 * 2
    assert r.waves == -(-r.blocks // (80 * r.occupancy))


def test_time_scales_with_batch():
    a = our_layer_performance(resnet_layer("Conv3", 32), V100)
    b = our_layer_performance(resnet_layer("Conv3", 128), V100)
    assert 3.5 < b.time_s / a.time_s < 4.5


def test_time_scales_with_channels():
    """More channels → more main-loop iterations, sublinearly more time
    (the per-block overhead amortizes)."""
    a = our_layer_performance(resnet_layer("Conv2", 32), V100)  # C=64
    b = our_layer_performance(resnet_layer("Conv3", 32), V100)  # C=128
    assert b.iters == 2 * a.iters
    per_iter_a = a.time_s / a.blocks / a.iters
    per_iter_b = b.time_s / b.blocks / b.iters
    assert per_iter_b < per_iter_a  # overhead amortized


def test_devices_rank_by_peak():
    v = our_layer_performance(resnet_layer("Conv3", 64), V100)
    t = our_layer_performance(resnet_layer("Conv3", 64), RTX2070)
    assert v.time_s < t.time_s
    assert v.tflops_effective > t.tflops_effective


def test_small_grid_dilutes_sol():
    """Conv5N32's 128 blocks on 80 SMs: the tail wave drops SOL (§7.2)."""
    small = our_layer_performance(resnet_layer("Conv5", 32), V100)
    big = our_layer_performance(resnet_layer("Conv5", 128), V100)
    assert small.sol_main_loop < big.sol_main_loop


def test_measurement_cache_reused(monkeypatch):
    """The measurements live in the context's simulation cache: shared by
    every layer on one (device, tunables), and gone after ``ctx.reset()``."""
    from repro.kernels import get_sim_cache_stats
    from repro.runtime import ExecutionContext, activate

    monkeypatch.delenv("REPRO_SIM_CACHE", raising=False)
    monkeypatch.delenv("REPRO_SIM_CACHE_DIR", raising=False)  # no disk hits
    ctx = ExecutionContext(device=V100)
    with activate(ctx):
        our_layer_performance(resnet_layer("Conv2", 32), V100)
        cold = get_sim_cache_stats().misses
        assert cold > 0
        our_layer_performance(resnet_layer("Conv5", 128), V100)
        assert get_sim_cache_stats().misses == cold  # same (device, tunables)
        ctx.reset()
        our_layer_performance(resnet_layer("Conv3", 32), V100)
        assert get_sim_cache_stats().misses == cold  # re-simulated, not memoized


def test_full_kernel_passes_the_lint_gate(monkeypatch):
    """The overhead run's full kernel (the one whose OTF epilogue stores
    with ``STG.E``) goes through the context's lint gate, like the
    main-loop kernels do."""
    from repro.kernels import runner
    from repro.runtime import ExecutionContext, activate

    monkeypatch.delenv("REPRO_SIM_CACHE", raising=False)
    monkeypatch.delenv("REPRO_SIM_CACHE_DIR", raising=False)  # no disk hits
    ctx = ExecutionContext(device=V100)
    gated = []
    real_ensure = runner.ensure_lint_clean

    def recording_ensure(kernel, context=None, family=None):
        gated.append(kernel)
        real_ensure(kernel, context=context, family=family)

    monkeypatch.setattr(runner, "ensure_lint_clean", recording_ensure)
    with activate(ctx):
        our_layer_performance(resnet_layer("Conv2", 32), V100)
    # Every gated kernel is proven clean in the context's gate.
    assert all(ctx.lint_gate.get((k.meta.name, hash(k.text))) for k in gated)

    def stores_output(kernel):
        return any(i.name == "STG" and "E" in i.flags for i in kernel.instructions)

    assert any(stores_output(k) for k in gated)
    assert not all(stores_output(k) for k in gated)  # main-loop kernels too
