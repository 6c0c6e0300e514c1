"""Static occupancy / pressure report (§7.1's occupancy argument).

Summarizes what a kernel *statically* costs before any simulation: the
issue-slot mix per pipe, the serialized issue cycles implied by the
control codes (every instruction issues for ``max(stall, 1)`` cycles
from its warp's perspective, plus one for each yield, which forces a
warp switch), register pressure (live-range peak and the ``.registers``
declaration) and shared-memory footprint, folded into a blocks-per-SM
occupancy figure.

The schedule autotuner (:mod:`repro.sched.search`) uses
``static_issue_cycles`` as a pre-simulation cost: two candidates with
identical instruction streams but different control codes (yield
strategies, interleaves, buffering depths) differ statically in exactly
the quantity the simulator will charge per warp, so candidates whose
static cost is far above the best candidate's can be pruned before
paying for simulation.

The occupancy rule and the per-architecture limits are
:func:`repro.sass.hw.blocks_per_sm` and :class:`~repro.sass.hw.ArchLimits`,
which ``DeviceSpec.occupancy`` also applies when the simulator launches
a kernel: on a device's limits, a kernel gets OCC003 exactly when the
simulator refuses to launch it there.

Rules:

* ``OCC001`` (info)  — the static issue profile (slots, cycles, mix);
* ``OCC002`` (info)  — blocks per SM and which resource limits them;
* ``OCC003`` (error) — the kernel cannot be launched at all: zero
  blocks fit on an SM (registers, shared memory or warp count).
"""

from __future__ import annotations

import dataclasses
from typing import Any

from ..hw import TURING_LIMITS, ArchLimits, blocks_per_sm
from ..isa import MAX_USABLE_REGISTERS
from .base import AnalysisContext, AnalysisPass
from .diagnostics import Diagnostic, Severity
from .liveness import peak_live


@dataclasses.dataclass(frozen=True)
class StaticReport:
    """Everything the pruner (and OCC001/OCC002) reports about a kernel."""

    num_instructions: int
    issue_slots: dict[str, int]
    static_issue_cycles: int
    yields: int
    peak_live_regs: int
    declared_regs: int | None
    smem_bytes: int
    num_warps: int
    occupancy_blocks: int
    occupancy_limiter: str
    limits_name: str

    def to_json(self) -> dict[str, Any]:
        return dataclasses.asdict(self)


def static_report(
    ctx: AnalysisContext, limits: ArchLimits | None = None
) -> StaticReport:
    """Compute the report; pure function of the context (memoized on it)."""
    if limits is None:
        limits = TURING_LIMITS
    cached = ctx.__dict__.get("_static_report_cache")
    if cached is not None and cached[0] == limits:
        report: StaticReport = cached[1]
        return report

    issue_slots: dict[str, int] = {}
    cycles = 0
    yields = 0
    for instr in ctx.instructions:
        pipe = instr.spec.pipe
        issue_slots[pipe] = issue_slots.get(pipe, 0) + 1
        cycles += max(instr.control.stall, 1)
        if instr.control.yield_flag:
            # A cleared hardware bit asks the scheduler to switch warps,
            # which costs one extra issue cycle (§6.1).
            yields += 1
    cycles += yields

    peak, _ = peak_live(ctx)
    declared = ctx.meta.registers if ctx.meta is not None else None
    smem_bytes = ctx.smem_bytes or 0
    regs = declared if declared else peak
    blocks, limiter = blocks_per_sm(limits, ctx.num_warps, regs, smem_bytes)

    report = StaticReport(
        num_instructions=len(ctx.instructions),
        issue_slots=issue_slots,
        static_issue_cycles=cycles,
        yields=yields,
        peak_live_regs=peak,
        declared_regs=declared,
        smem_bytes=smem_bytes,
        num_warps=ctx.num_warps,
        occupancy_blocks=blocks,
        occupancy_limiter=limiter,
        limits_name=limits.name,
    )
    ctx.__dict__["_static_report_cache"] = (limits, report)
    return report


class OccupancyPass(AnalysisPass):
    name = "occupancy"
    rules = ("OCC001", "OCC002", "OCC003")

    def __init__(self, limits: ArchLimits | None = None):
        self.limits = limits if limits is not None else TURING_LIMITS

    def run(self, ctx: AnalysisContext) -> list[Diagnostic]:
        if not ctx.instructions:
            return []
        report = static_report(ctx, self.limits)
        mix = ", ".join(
            f"{pipe}={count}"
            for pipe, count in sorted(
                report.issue_slots.items(), key=lambda kv: (-kv[1], kv[0])
            )
        )
        diags = [
            Diagnostic(
                rule="OCC001",
                severity=Severity.INFO,
                pos=-1,
                instruction="",
                message=(
                    f"static issue profile: {report.num_instructions} "
                    f"instructions, {report.static_issue_cycles} issue "
                    f"cycles ({report.yields} yields); pipes: {mix}"
                ),
            ),
            Diagnostic(
                rule="OCC002",
                severity=Severity.INFO,
                pos=-1,
                instruction="",
                message=(
                    f"occupancy: {report.occupancy_blocks} block(s)/SM on "
                    f"{report.limits_name} (limited by "
                    f"{report.occupancy_limiter}); "
                    f"{report.declared_regs or report.peak_live_regs} "
                    f"regs/thread, {report.smem_bytes} B smem, "
                    f"{report.num_warps} warps/block"
                ),
            ),
        ]
        if report.occupancy_blocks == 0:
            diags.append(Diagnostic(
                rule="OCC003",
                severity=Severity.ERROR,
                pos=-1,
                instruction="",
                message=(
                    "kernel cannot launch: zero blocks fit on an SM "
                    f"({report.occupancy_limiter}; "
                    f"{report.declared_regs or report.peak_live_regs} "
                    f"regs/thread of budget {MAX_USABLE_REGISTERS}, "
                    f"{report.smem_bytes} B smem of "
                    f"{self.limits.smem_per_block})"
                ),
                hint="shrink register pressure or the shared-memory "
                     "footprint until at least one block fits",
            ))
        return diags
