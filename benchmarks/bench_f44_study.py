"""§8.1's future work, quantified: the fused F(4×4, 3×3) design space.

Enumerates candidate blockings under the Volta/Turing register and
shared-memory limits, shows that the F(2×2) kernel's (64, 32, 8)
blocking cannot be transplanted (the 36-batched EWMM blows the
253-register budget), picks the best feasible configuration, and
projects its layer-level speedup over our fused F(2×2) kernel.
"""

from harness import emit

from repro.common import format_table
from repro.gpusim import RTX2070, V100
from repro.models import resnet_layer
from repro.perfmodel.f44_study import (
    attainable_sol,
    best_feasible,
    enumerate_blockings,
    f22_reference_blocking_infeasible,
    feasible,
    projected_speedup_over_f22,
    registers,
)


def _run():
    rows = []
    for b in enumerate_blockings():
        rows.append((
            f"({b.bk},{b.bn},{b.bc})",
            registers(b),
            f"{b.smem_bytes // 1024}K",
            f"{b.arithmetic_intensity:.1f}",
            "yes" if feasible(b) else "no",
        ))
    table = format_table(
        ["(bk,bn,bc)", "regs/thread", "smem", "flops/B", "feasible"],
        rows,
        title="Fused F(4x4,3x3) blocking candidates (256 threads)",
    )
    transplant = f22_reference_blocking_infeasible()
    best = best_feasible()
    lines = [table, ""]
    lines.append(
        f"F(2x2)'s (64,32,8) transplanted: {registers(transplant)} registers "
        f"(> {253}) and {transplant.smem_bytes // 1024} KB smem — infeasible, "
        "which is why the paper defers the fused F(4x4)."
    )
    lines.append(
        f"best feasible: ({best.bk},{best.bn},{best.bc}) at "
        f"{best.arithmetic_intensity:.1f} flops/B, {registers(best)} regs — "
        "every feasible blocking is MEMORY-bound (F(2x2)'s is 10.67 flops/B)"
    )
    for dev in (V100, RTX2070):
        p = resnet_layer("Conv3", 64)
        s = projected_speedup_over_f22(p, dev)
        lines.append(
            f"projected fused-F(4x4) on {dev.name} Conv3N64: attainable "
            f"SOL {100 * attainable_sol(best, dev):.0f}% -> {s:.2f}x over our F(2x2)"
        )
    text = "\n".join(lines)
    emit("f44_study", text)
    return transplant, best


def test_f44_design_study(benchmark):
    transplant, best = benchmark.pedantic(_run, rounds=1, iterations=1)
    assert not feasible(transplant)  # the §8.1 obstacle, made concrete
    assert best is not None and feasible(best)
    # Every feasible blocking is memory-bound — below F(2×2)'s 10.67.
    assert best.arithmetic_intensity < 10.67
    p = resnet_layer("Conv3", 64)
    s = projected_speedup_over_f22(p, V100)
    assert 1.0 < s < 1.9  # ≈ 4/2.25 discounted by overcompute and SOL cap


if __name__ == "__main__":
    _run()
