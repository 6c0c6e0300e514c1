"""Liveness / register-pressure pass (§5.2.1, Table 5).

The paper's main loop is budgeted against the 253 usable general-purpose
registers per thread (256 minus RZ and the two-register slack the
hardware reserves — footnote 7); Table 5 accounts for 128 accumulators,
64+16 double-buffered operands and the addressing scaffolding.  This
pass computes the same number statically: a backward may-live dataflow
over the control-flow graph, with registers killed only by unpredicated
writes (a ``@P0`` write may not execute, so the old value can survive).

Rules:

* ``LV001`` (info)  — the peak live-register count and where it occurs,
  so codegen changes that quietly grow pressure are visible in reports;
* ``LV002`` (error) — peak pressure exceeds the 253-register budget: the
  kernel cannot be allocated without spills, which the paper's design
  rules out.

The solve is :func:`~repro.sass.analysis.dataflow.solve_backward` over
the context's shared CFG (:func:`~repro.sass.analysis.cfg.get_cfg`), and
its result is memoized on the context (:func:`peak_live`), so this pass
and the occupancy report share one solve.
"""

from __future__ import annotations

import functools
import operator

from ..instruction import Instruction
from ..isa import MAX_USABLE_REGISTERS
from .base import AnalysisContext, AnalysisPass
from .cfg import BasicBlock, ControlFlowGraph, build_cfg, get_cfg
from .dataflow import solve_backward
from .diagnostics import Diagnostic, Severity


def compute_live_in(
    instructions: list[Instruction], cfg: ControlFlowGraph | None = None
) -> list[int]:
    """Per-instruction live-in register sets as 256-bit masks.

    *cfg* defaults to a graph built from *instructions*.  Instructions
    in blocks unreachable from the entry are left at 0.
    """
    uses = []
    defs = []
    for instr in instructions:
        use_mask = 0
        for reg in instr.reads_registers():
            use_mask |= 1 << reg
        def_mask = 0
        # Predicated writes may not retire; only unpredicated writes kill.
        if instr.guard.is_pt and not instr.guard.negated:
            for reg in instr.writes_registers():
                def_mask |= 1 << reg
        uses.append(use_mask)
        defs.append(def_mask)

    live_in = [0] * len(instructions)

    def transfer(block: BasicBlock, live: int) -> int:
        # Records every position's live-in; a block's last transfer runs
        # on its final live-out, so the records end at the fixpoint.
        for pos in reversed(block.positions()):
            live = uses[pos] | (live & ~defs[pos])
            live_in[pos] = live
        return live

    solve_backward(
        cfg if cfg is not None else build_cfg(instructions),
        0, transfer, lambda states: functools.reduce(operator.or_, states),
    )
    return live_in


def peak_live(ctx: AnalysisContext) -> tuple[int, int]:
    """(peak live-register count, first position holding it), memoized
    on the context like its CFG."""
    cached: tuple[int, int] | None = ctx.__dict__.get("_peak_live_cache")
    if cached is None:
        live_in = compute_live_in(ctx.instructions, get_cfg(ctx))
        counts = [bin(mask).count("1") for mask in live_in]
        peak = max(counts, default=0)
        cached = (peak, counts.index(peak) if counts else 0)
        ctx.__dict__["_peak_live_cache"] = cached
    return cached


class LivenessPass(AnalysisPass):
    name = "liveness"
    rules = ("LV001", "LV002", "LV003")

    def run(self, ctx: AnalysisContext) -> list[Diagnostic]:
        if not ctx.instructions:
            return []
        peak, peak_pos = peak_live(ctx)
        diags = [Diagnostic(
            rule="LV001",
            severity=Severity.INFO,
            pos=peak_pos,
            instruction=ctx.instructions[peak_pos].name,
            message=(
                f"peak register pressure: {peak} live registers "
                f"(budget {MAX_USABLE_REGISTERS}, Table 5)"
            ),
        )]
        if peak > MAX_USABLE_REGISTERS:
            diags.append(Diagnostic(
                rule="LV002",
                severity=Severity.ERROR,
                pos=peak_pos,
                instruction=ctx.instructions[peak_pos].name,
                message=(
                    f"{peak} registers live at once exceeds the "
                    f"{MAX_USABLE_REGISTERS}-register budget (footnote 7): "
                    "the kernel cannot be allocated without spills"
                ),
                hint="shrink the double-buffering window or re-derive "
                     "addresses instead of keeping them live (Table 5)",
            ))
        declared = ctx.meta.registers if ctx.meta is not None else None
        if declared is not None and peak > declared:
            diags.append(Diagnostic(
                rule="LV003",
                severity=Severity.ERROR,
                pos=peak_pos,
                instruction=ctx.instructions[peak_pos].name,
                message=(
                    f"{peak} registers live at once exceeds the "
                    f".registers {declared} declaration"
                ),
                hint="raise the .registers directive to cover the peak",
            ))
        return diags
