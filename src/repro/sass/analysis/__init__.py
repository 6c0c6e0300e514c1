"""Static analysis over assembled SASS instruction streams (``sasslint``).

The analyses share one whole-program foundation — a control-flow graph
(:mod:`.cfg`) and a generic worklist dataflow solver (:mod:`.dataflow`)
— and report through a shared :class:`Diagnostic` vocabulary:

* :class:`CfgPass`              — graph-construction findings:
  unreachable blocks, bad branch targets (CFG001–CFG002);
* :class:`ControlCodePass`      — path-sensitive stall/scoreboard
  hazard freedom over every CFG path (CTRL001–CTRL003);
* :class:`UninitRegisterPass`   — reaching-definitions check for reads
  of never/partially-defined registers and predicates (UR001–UR002);
* :class:`BarrierDivergencePass` — BAR.SYNC under (or behind a branch
  on) a lane-divergent predicate (BD001–BD002);
* :class:`RegisterBankPass`     — even/odd operand-bank conflicts and
  ``.reuse``-cache validity (RB001–RB004);
* :class:`SharedMemoryPass`     — per-warp shared-memory bank
  conflicts, vector alignment and bounds (SM001–SM004);
* :class:`SharedRacePass`       — cross-warp shared-memory races
  between barrier epochs (RACE001–RACE002);
* :class:`LivenessPass`         — peak live registers vs. the 253
  budget (LV001–LV003);
* :class:`OccupancyPass`        — static issue/pressure/occupancy
  report (OCC001–OCC003); :func:`static_report` feeds the schedule
  autotuner's pre-simulation pruner.

Entry points: :func:`lint_kernel` / :func:`lint_instructions` for code,
``python -m repro.sass lint`` for the shell, and the launch gate in
:mod:`repro.kernels.runner` which refuses to run kernels with
error-severity findings.  ``docs/sass_lint.md`` is the rule catalogue.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Sequence

from ..hw import TURING_LIMITS, VOLTA_LIMITS, ArchLimits
from ..instruction import Instruction
from ..preprocess import KernelMeta
from .barrier import BarrierDivergencePass
from .base import DEFAULT_NUM_WARPS, AnalysisContext, AnalysisPass, run_passes
from .cfg import (
    BasicBlock,
    CfgPass,
    ControlFlowGraph,
    Edge,
    EdgeCondition,
    build_cfg,
    get_cfg,
)
from .ctrlcodes import ControlCodePass
from .dataflow import solve_backward, solve_forward
from .diagnostics import (
    Diagnostic,
    Severity,
    count_by_severity,
    errors,
    max_severity,
)
from .liveness import LivenessPass
from .occupancy import OccupancyPass, StaticReport, static_report
from .race import SharedRacePass
from .regbank import RegisterBankPass
from .smem import SharedMemoryPass, shared_access_table
from .uninit import UninitRegisterPass

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (assembler imports us)
    from ..assembler import AssembledKernel

__all__ = [
    "AnalysisContext",
    "AnalysisPass",
    "ArchLimits",
    "BarrierDivergencePass",
    "BasicBlock",
    "CfgPass",
    "ControlCodePass",
    "ControlFlowGraph",
    "DEFAULT_NUM_WARPS",
    "Diagnostic",
    "Edge",
    "EdgeCondition",
    "LivenessPass",
    "OccupancyPass",
    "RegisterBankPass",
    "Severity",
    "SharedMemoryPass",
    "SharedRacePass",
    "StaticReport",
    "TURING_LIMITS",
    "UninitRegisterPass",
    "VOLTA_LIMITS",
    "build_cfg",
    "count_by_severity",
    "default_passes",
    "errors",
    "get_cfg",
    "lint_instructions",
    "lint_kernel",
    "max_severity",
    "render_json",
    "render_text",
    "run_passes",
    "shared_access_table",
    "solve_backward",
    "solve_forward",
    "static_report",
]


def default_passes() -> list[AnalysisPass]:
    """The pass list ``python -m repro.sass lint`` runs, in order."""
    return [
        CfgPass(),
        ControlCodePass(),
        UninitRegisterPass(),
        BarrierDivergencePass(),
        RegisterBankPass(),
        SharedMemoryPass(),
        SharedRacePass(),
        LivenessPass(),
        OccupancyPass(),
    ]


def lint_instructions(
    instructions: list[Instruction],
    meta: KernelMeta | None = None,
    *,
    num_warps: int = DEFAULT_NUM_WARPS,
    passes: Sequence[AnalysisPass] | None = None,
) -> list[Diagnostic]:
    """Run the analyzer over a raw instruction list."""
    ctx = AnalysisContext(
        instructions=instructions, meta=meta, num_warps=num_warps
    )
    return run_passes(ctx, default_passes() if passes is None else passes)


def lint_kernel(
    kernel: "AssembledKernel",
    *,
    num_warps: int = DEFAULT_NUM_WARPS,
    passes: Sequence[AnalysisPass] | None = None,
) -> list[Diagnostic]:
    """Run the analyzer over an assembled kernel (uses its metadata)."""
    return lint_instructions(
        kernel.instructions,
        meta=kernel.meta,
        num_warps=num_warps,
        passes=passes,
    )


def render_text(
    diagnostics: Sequence[Diagnostic], *, kernel_name: str = ""
) -> str:
    """Human-readable report: one line per finding plus a summary."""
    lines = [d.text() for d in diagnostics]
    counts = count_by_severity(diagnostics)
    label = f"{kernel_name}: " if kernel_name else ""
    lines.append(
        f"{label}{counts['error']} error(s), {counts['warning']} warning(s), "
        f"{counts['info']} info"
    )
    return "\n".join(lines)


def render_json(
    diagnostics: Sequence[Diagnostic], *, kernel_name: str = ""
) -> str:
    """Machine-readable report (stable schema, used by the CI artifact).

    Schema (version 1): ``kernel`` (name), ``summary`` (count per
    severity) and ``diagnostics`` — each with ``rule``, ``severity``,
    ``pos``, ``instruction``, ``message``, ``hint``, plus the pass name
    (``pass``), CFG basic-block id (``block``, -1 for program-level
    findings) and source ``line`` annotated by :func:`run_passes`.
    New fields may be added; existing fields never change meaning.
    """
    payload: dict[str, Any] = {
        "version": 1,
        "kernel": kernel_name,
        "summary": count_by_severity(diagnostics),
        "diagnostics": [d.to_json() for d in diagnostics],
    }
    return json.dumps(payload, indent=2)
