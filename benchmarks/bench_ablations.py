"""Ablations of the design choices DESIGN.md calls out (A1-A3).

A1 — cache-block size: bk=64 vs bk=32 main-loop throughput plus the
     §3.3 arithmetic-intensity argument.
A2 — predicate packing: P2R/R2P-packed masks vs per-iteration
     recomputation; also shows that *holding* 16 mask booleans in
     registers is impossible inside the 253-register budget (the paper's
     register-spilling observation).
A3 — shared-memory layout: the Table-4 transposed buffers vs the naive
     tile-major layout (why the kernel transposes through smem at all).
"""

from harness import emit

from repro.common import ConvProblem, format_table
from repro.gpusim import RTX2070
from repro.kernels import Tunables, WinogradF22Kernel, measure_main_loop
from repro.perfmodel import gemm_step_intensity
from repro.perfmodel.layer_model import _SURROGATE

PROB = ConvProblem(n=32, c=64, h=28, w=28, k=64)


def blocking_rows():
    b64 = measure_main_loop(_SURROGATE, RTX2070, Tunables(bk=64))
    b32 = measure_main_loop(_SURROGATE, RTX2070, Tunables(bk=32))
    return [
        ("main-loop TFLOPS", b32.tflops, b64.tflops),
        ("cycles / bc-iteration", b32.cycles_per_iter, b64.cycles_per_iter),
        ("FFMAs / thread / iteration", 512.0, 1024.0),
        ("arithmetic intensity (flops/B)", gemm_step_intensity(32),
         gemm_step_intensity(64)),
        ("input loads per flop (rel.)", 2.0, 1.0),
    ]


def p2r_rows():
    packed = measure_main_loop(_SURROGATE, RTX2070, Tunables(use_p2r=True))
    recompute = measure_main_loop(_SURROGATE, RTX2070, Tunables(use_p2r=False))
    gen = WinogradF22Kernel(PROB, Tunables())
    no_pack_registers = gen.num_regs + 16 - 1  # 16 bools, minus the mask reg
    return [
        ("cycles / iteration", recompute.cycles_per_iter, packed.cycles_per_iter),
        ("extra ALU ops / iteration", 40, 8),
        ("registers if bools held in regs", no_pack_registers,
         gen.num_regs),
    ]


def layout_rows():
    good = measure_main_loop(_SURROGATE, RTX2070, Tunables(smem_layout="transposed"))
    bad = measure_main_loop(_SURROGATE, RTX2070, Tunables(smem_layout="tile_major"))
    return [
        ("cycles / iteration", bad.cycles_per_iter, good.cycles_per_iter),
        ("smem conflict cycles (run)", bad.counters.smem_conflict_cycles,
         good.counters.smem_conflict_cycles),
        ("main-loop TFLOPS", bad.tflops, good.tflops),
    ]


def test_ablation_blocking(benchmark):
    rows = benchmark.pedantic(blocking_rows, rounds=1, iterations=1)
    emit("ablation_a1_blocking", format_table(
        ["metric", "bk=32", "bk=64"], rows,
        title="Ablation A1: cache block size (RTX2070 main loop)",
    ))
    assert rows[0][2] > rows[0][1]  # bk=64 faster


def test_ablation_p2r(benchmark):
    rows = benchmark.pedantic(p2r_rows, rounds=1, iterations=1)
    emit("ablation_a2_p2r", format_table(
        ["metric", "no P2R (recompute)", "P2R packed"], rows,
        title="Ablation A2: zero-padding mask handling (§3.5)",
    ))
    # Holding the 16 booleans in registers would blow the 253 budget.
    assert rows[2][1] > 255
    assert rows[0][2] <= rows[0][1] * 1.02


def test_ablation_smem_layout(benchmark):
    rows = benchmark.pedantic(layout_rows, rounds=1, iterations=1)
    emit("ablation_a3_layout", format_table(
        ["metric", "tile-major", "transposed (Table 4)"], rows,
        title="Ablation A3: shared-memory fragment layout (§4.3)",
    ))
    assert rows[1][2] == 0  # the paper layout is conflict-free
    assert rows[1][1] > 0
    assert rows[0][1] > 1.4 * rows[0][2]


if __name__ == "__main__":
    print(blocking_rows())
    print(p2r_rows())
    print(layout_rows())
