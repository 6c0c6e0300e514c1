"""§2.3/§4.2: batched GEMM as the Winograd subproblem.

Two measurements on the simulated RTX 2070:

1. the batched-GEMM kernel (the Winograd machinery minus transforms)
   against the Winograd main loop — quantifying the ITF's "3.1% more
   pressure on the float pipe" (§4.2) plus the mask bookkeeping;
2. the batched-GEMM kernel's own FFMA throughput as a fraction of peak,
   showing the §4.3 techniques carry over to plain batched GEMM.
"""

from harness import DEVICES, emit

from repro.common import format_table
from repro.gpusim import GlobalMemory, simulate_resident_blocks
from repro.kernels import BatchedGemmKernel, Tunables, measure_main_loop
from repro.perfmodel.layer_model import _SURROGATE


def gemm_steady_state(iters: int = 3):
    device = DEVICES["RTX2070"]

    def run(n_iters):
        gen = BatchedGemmKernel(16, 64, 32, 8 * n_iters)
        kernel = gen.build(main_loop_only=True, iters=n_iters)
        gmem = GlobalMemory()
        # Mirror the Winograd measurement: the A ("filter") operand is
        # re-read by every N-tile block and lives in the L2 working set.
        a_ptr = gmem.alloc(4 * (8 * n_iters + 8) * 16 * 64, l2_resident=True)
        b_ptr = gmem.alloc(4 * (8 * n_iters + 8) * 16 * 32)
        c_ptr = gmem.alloc(4 * 16 * 64 * 32)
        return simulate_resident_blocks(
            kernel, device,
            params={"a_ptr": a_ptr, "b_ptr": b_ptr, "c_ptr": c_ptr},
            gmem=gmem, threads_per_block=256,
        ).counters

    long_run, short_run = run(iters), run(iters - 2)
    d_cycles = long_run.cycles - short_run.cycles
    d_ffma = long_run.ffma_instrs - short_run.ffma_instrs
    d_busy = long_run.fma_pipe_busy - short_run.fma_pipe_busy
    tflops = (
        d_ffma * 32 * 2 / (d_cycles / (device.clock_ghz * 1e9)) / 1e12
        * device.num_sms
    )
    return {
        "cycles_per_iter": d_cycles / 2.0,
        "tflops": tflops,
        "sol": d_busy / (d_cycles * device.schedulers_per_sm),
    }


def _run():
    gemm = gemm_steady_state()
    wino = measure_main_loop(_SURROGATE, DEVICES["RTX2070"], Tunables())
    rows = [
        ("cycles / bc-iteration", gemm["cycles_per_iter"], wino.cycles_per_iter),
        ("device TFLOPS", gemm["tflops"], wino.tflops),
        ("FP32-pipe SOL", gemm["sol"], wino.sol),
        ("Winograd overhead", "-",
         wino.cycles_per_iter / gemm["cycles_per_iter"] - 1.0),
    ]
    text = format_table(
        ["metric", "batched GEMM", "Winograd main loop"], rows,
        title="Batched GEMM vs Winograd main loop (RTX2070, simulated)",
        float_fmt="{:.3f}",
    )
    emit("gemm_subproblem", text)
    return gemm, wino


def test_gemm_subproblem(benchmark):
    gemm, wino = benchmark.pedantic(_run, rounds=1, iterations=1)
    # The GEMM loop must be at least as fast; the Winograd overhead (ITF
    # FADDs + mask unpack) should be a few percent (§4.2: ~3.1% on the
    # float pipe alone).
    assert gemm["cycles_per_iter"] <= wino.cycles_per_iter
    overhead = wino.cycles_per_iter / gemm["cycles_per_iter"] - 1.0
    assert 0.0 <= overhead < 0.15
    assert gemm["sol"] > 0.85


if __name__ == "__main__":
    _run()
