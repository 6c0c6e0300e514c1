"""Whole-layer performance of the generated kernel, from the simulator.

A full ResNet layer runs billions of lane-FFMAs — far too many to
simulate instruction by instruction in Python — so the layer model does
what one does on real hardware with a single-SM microbenchmark:

1. measure the **steady-state main-loop cycles per bc-iteration** on one
   simulated SM (differential measurement, see ``kernels.runner``);
2. measure the **per-block overhead** (prologue + first staging +
   output transform) by simulating the *full* kernel on a surrogate
   problem and subtracting the main-loop portion — through the same
   cached, lint-gated runner path as the main-loop runs;
3. extrapolate: ``time = waves × block_cycles / clock`` with
   ``waves = ⌈blocks / (SMs · occupancy)⌉`` (:meth:`DeviceSpec.waves`)
   — which also captures the small-batch tail effect behind the
   Conv4N32/Conv5N32 SOL dips in Figs. 10-11.

Per-block work is layer-independent at fixed (bk, bn, bc) — layers only
change the iteration count (C/8), the grid size and the tail — so the
two measurements depend on the (device, tunables) pair alone; the
current context's simulation cache memoizes them across all 16 layers.
"""

from __future__ import annotations

import dataclasses

from ..common.problem import ConvProblem
from ..gpusim.arch import DeviceSpec
from ..kernels.runner import (
    MainLoopMeasurement,
    _simulate_fused_kernel,
    measure_main_loop,
)
from ..kernels.winograd_fused import BC, Tunables, WinogradF22Kernel

_SURROGATE = ConvProblem(n=32, c=32, h=16, w=16, k=64, name="surrogate")


@dataclasses.dataclass
class LayerPerformance:
    """Predicted whole-layer execution of the fused kernel."""

    prob: ConvProblem
    device_name: str
    blocks: int
    occupancy: int
    waves: int
    iters: int
    cycles_per_iter: float
    overhead_cycles: float
    time_s: float
    tflops_effective: float  # direct-conv flops / time (Fig. 12-13 basis)
    sol_main_loop: float
    sol_total: float


def _measurements(
    device: DeviceSpec, tunables: Tunables
) -> tuple[MainLoopMeasurement, float, float]:
    """(main-loop measurement, overhead cycles, overhead fma-busy).

    All three simulations behind it take the runner's one path (build
    cache, lint gate, the current context's simulation cache), so
    repeated calls replay them instead of re-simulating.
    """
    surrogate = _SURROGATE
    if tunables.bk != 64:
        surrogate = dataclasses.replace(surrogate, k=tunables.bk)
    main = measure_main_loop(surrogate, device, tunables, iters=3)
    # Full kernel (with OTF epilogue) at the same iteration count → the
    # difference is prologue + staging + epilogue ("overhead").
    full = _simulate_fused_kernel(
        surrogate, device, tunables, 3, None, main_loop_only=False
    )
    main_only = _simulate_fused_kernel(surrogate, device, tunables, 3, None)
    overhead = max(
        0.0, full.counters.cycles - main_only.counters.cycles
    ) + (main_only.counters.cycles - 3 * main.cycles_per_iter)
    overhead_fma_busy = max(
        0, full.counters.fma_pipe_busy - main_only.counters.fma_pipe_busy
    )
    return main, overhead, float(overhead_fma_busy)


def our_layer_performance(
    prob: ConvProblem,
    device: DeviceSpec,
    tunables: Tunables | None = None,
) -> LayerPerformance:
    """Predict the fused kernel's full-layer execution on *device*."""
    tunables = tunables or Tunables()
    main, overhead, overhead_fma = _measurements(device, tunables)
    gen = WinogradF22Kernel(prob, tunables)
    blocks = gen.grid[0] * gen.grid[1]
    # The header metadata (registers, smem) is layer-independent and
    # known without assembling — identical to kernel.meta by
    # construction, so the per-layer build the seed did here was waste.
    occupancy = device.occupancy(256, gen.num_regs, gen.launch_smem_bytes)
    iters = prob.c // BC
    block_cycles = overhead + iters * main.cycles_per_iter
    waves = device.waves(blocks, occupancy)
    time_s = waves * block_cycles / (device.clock_ghz * 1e9)
    tflops = prob.direct_flops / time_s / 1e12

    # SOL: fma-busy over issue capacity; the tail wave dilutes it by the
    # grid utilization (empty SMs issue nothing but the clock runs).
    util = blocks / (waves * device.num_sms * occupancy)
    main_busy = main.sol * device.schedulers_per_sm * main.cycles_per_iter * iters
    total_busy = main_busy + overhead_fma
    sol_total = total_busy / (block_cycles * device.schedulers_per_sm) * util
    return LayerPerformance(
        prob=prob,
        device_name=device.name,
        blocks=blocks,
        occupancy=occupancy,
        waves=waves,
        iters=iters,
        cycles_per_iter=main.cycles_per_iter,
        overhead_cycles=overhead,
        time_s=time_s,
        tflops_effective=tflops,
        sol_main_loop=main.sol * util,
        sol_total=sol_total,
    )
