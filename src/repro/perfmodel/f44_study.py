"""Design study: a fused F(4×4, 3×3) kernel (paper §8.1's future work).

"We expect greater speedup in the future if the fused F(4×4, 3×3) is
well optimized."  This module makes that expectation quantitative — and
shows why the paper did not just build it: the transformed tile is 6×6,
so the EWMM becomes a *36*-batched GEMM, and the register accounting
that fit F(2×2) exactly into 253 registers (Table 5) no longer closes
at the same block size.

A candidate is a :class:`~repro.perfmodel.roofline.Blocking` (bk, bn,
bc) of 36-element tiles, whose intensity, staging shared memory and
accumulator count are the fp32 model's.  With 256 threads the
per-thread register budget is (mirroring Table 5, :func:`registers`):

* accumulators:      36·bk·bn / 256
* double-buffered smem fragments: 2 · 36·(bk + bn)·bc / 256 / warps'
  share … modelled as 2·(bk + bn)·bc·36/256/8-per-k-step fragments =
  2·(frag_in + frag_fil) with frag sizes bk·bc·36/256-style terms;
* global prefetch:   (bk + bn)·bc·36 / 256
* ~13 scalars.

The study enumerates feasible blockings, reports their register/smem
pressure and arithmetic intensity, and projects the layer-level speedup
of the best feasible configuration using the §8.1 time model with the
4× multiplication reduction.
"""

from __future__ import annotations

from ..common.problem import ConvProblem
from ..gpusim.arch import DeviceSpec
from ..sass.hw import TURING_LIMITS
from .cudnn_model import tile_overcompute
from .roofline import THREADS, Blocking

ALPHA2 = 36  # 6×6 transformed tiles for F(4×4, 3×3)
MAX_REGS = 253


def registers(b: Blocking) -> int:
    """Per-thread registers of a fused kernel at blocking *b* (Table 5's
    accounting): accumulators, the global prefetch of (bk + bn)·bc
    transformed tiles (filters arrive pre-transformed), double-buffered
    fragments and ~13 scalars."""
    prefetch = (b.bk + b.bn) * b.bc * b.elements // THREADS
    # Per k-step each thread consumes bk·bn·alpha²/256 outputs from
    # (bk + bn)-proportional fragments; double buffered.
    per_step = (b.bk + b.bn) * b.elements // THREADS * 4
    return b.accumulators + prefetch + 2 * max(per_step, 8) + 13


def feasible(b: Blocking) -> bool:
    """Blocking *b* fits the 253-register and Turing per-block
    shared-memory budgets, with its accumulators spread evenly over the
    threads."""
    return (
        registers(b) <= MAX_REGS
        and b.smem_bytes <= TURING_LIMITS.smem_per_block
        and b.accumulators * THREADS == b.elements * b.bk * b.bn
    )


def enumerate_blockings() -> list[Blocking]:
    """All F(4×4) (bk, bn, bc) candidates on the paper's natural grid."""
    out = []
    for bk in (16, 32, 64):
        for bn in (8, 16, 32):
            for bc in (4, 8):
                out.append(Blocking(bk, bn, bc, elements=ALPHA2))
    return out


def best_feasible() -> Blocking | None:
    candidates = [b for b in enumerate_blockings() if feasible(b)]
    if not candidates:
        return None
    # Intensity is bc-independent (it cancels), so break ties toward the
    # deeper channel step: fewer main-loop iterations, barriers and
    # prologue overheads per accumulated channel.
    return max(candidates, key=lambda b: (b.arithmetic_intensity, b.bc))


def f22_reference_blocking_infeasible() -> Blocking:
    """The paper's F(2×2) blocking transplanted to F(4×4): over budget."""
    return Blocking(64, 32, 8, elements=ALPHA2)


def attainable_sol(blocking: Blocking, device: DeviceSpec) -> float:
    """FP32-pipe utilization ceiling the blocking's intensity permits.

    Raw-FFMA intensity is the blocking's effective-flops intensity ÷ 4
    (the multiplication reduction); even served from L2, the feasible
    F(4×4) blockings sit below the balance point — the quantitative
    version of the §8.1 obstacle (F(2×2)'s 10.67 flops/B does not).
    """
    l2_attainable = blocking.arithmetic_intensity * device.l2_gbps / 1e3
    return min(0.92, l2_attainable / device.peak_fp32_tflops)


def projected_fused_f44_time(
    prob: ConvProblem, device: DeviceSpec, blocking: Blocking | None = None
) -> float:
    """Projected fused F(4×4) layer time for a feasible blocking.

    4× multiplication reduction with F(4×4)'s tile overcompute, capped
    by the blocking's attainable (memory-limited) SOL.
    """
    blocking = blocking or best_feasible()
    sol = attainable_sol(blocking, device)
    over = tile_overcompute(prob, m=4)
    flops = over * 2 * prob.n * prob.c * prob.out_h * prob.out_w * prob.k * 9
    return flops / (4.0 * sol * device.peak_fp32_tflops * 1e12)


def projected_speedup_over_f22(
    prob: ConvProblem,
    device: DeviceSpec,
    blocking: Blocking | None = None,
    sol_f22: float = 0.91,
) -> float:
    """Projected fused-F(4×4) speedup over our fused F(2×2) kernel."""
    over2 = tile_overcompute(prob, m=2)
    f22 = over2 * 2 * prob.n * prob.c * prob.out_h * prob.out_w * prob.k * 9 / (
        2.25 * sol_f22 * device.peak_fp32_tflops * 1e12
    )
    return f22 / projected_fused_f44_time(prob, device, blocking)
