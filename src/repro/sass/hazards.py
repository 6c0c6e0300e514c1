"""Automatic control-code generation and hazard validation (§5.1.4).

On Volta/Turing "it is the programmer's/compiler's responsibility to
prevent data hazards": fixed-latency producers are covered by stalling
the issuing warp, variable-latency producers by the six scoreboard wait
barriers.  The paper's kernels set these by hand; this module provides

* :func:`schedule` — a compiler-like pass that fills in stall counts and
  allocates barriers for a straight-line (or single-loop) program whose
  control codes were left at the defaults, and
* :func:`validate_control` — a checker the tests use to prove that
  generated kernels (including the hand-scheduled Winograd main loop)
  are hazard-free under the latency model.

The scheduling pass is linear over the instruction list; a backward
branch is handled by re-running the pass over the loop body with the
body's own end-state as the loop-carried input until the control codes
stop changing (a fixpoint: stalls only rise and waits only accumulate,
so it terminates).  Validation is fully path-sensitive — it runs the
analyzer's CFG-based :class:`ControlCodePass` fixpoint, see
:mod:`repro.sass.analysis.ctrlcodes`.
"""

from __future__ import annotations

import dataclasses

from .control import NO_BARRIER
from .instruction import Instruction
from .isa import NUM_WAIT_BARRIERS

# Issue-to-read latency assumed for fixed-latency pipes when the producer
# stalls are computed (cycles).  Matches the OpSpec table.
DUAL_ISSUE_SAFE_STALL = 1


@dataclasses.dataclass
class _PendingBarrier:
    kind: str  # "write" or "read"
    regs: set[int]
    preds: set[int]
    space: str = ""  # memory space of the producing op ("shared", "global", ...)


#: Backstop on the loop-carried scheduling fixpoint.  Stalls are capped
#: at 15 and waits only accumulate, so each reg can force at most a few
#: rounds; real kernels converge in 2.
_MAX_SCHEDULE_ROUNDS = 16


def schedule(instructions: list[Instruction], loop_start: int | None = None) -> None:
    """Fill stall counts and scoreboard barriers in place.

    Only instructions whose control is still the default get modified;
    hand-written control codes are preserved (and later validated).
    When ``loop_start`` is None, a single-loop body is discovered from
    the program's backward branches; pass it explicitly to override.
    """
    _schedule_pass(instructions, {}, {})
    if loop_start is None:
        loop_start = _find_loop_start(instructions)
    if loop_start is not None:
        # Iterate with loop-carried latencies — the state at the end of
        # the body feeds its beginning — until the control codes reach a
        # fixed point.  Raising a stall shifts every later issue time,
        # which can surface a new deficit, hence the loop.
        for _ in range(_MAX_SCHEDULE_ROUNDS):
            ready_reg, ready_pred = _collect_end_state(instructions, loop_start)
            changed = _schedule_pass(
                instructions[loop_start:], ready_reg, ready_pred
            )
            if not changed:
                break


def _find_loop_start(instructions: list[Instruction]) -> int | None:
    """Earliest backward-branch target: the loop head, if the program
    has one (the generated kernels are straight-line or single-loop)."""
    loop_start: int | None = None
    for pos, instr in enumerate(instructions):
        if instr.name == "BRA" and isinstance(instr.target, int):
            target = pos + 1 + instr.target
            if 0 <= target <= pos and (loop_start is None or target < loop_start):
                loop_start = target
    return loop_start


def _collect_end_state(
    instructions: list[Instruction], loop_start: int
) -> tuple[dict[int, int], dict[int, int]]:
    ready_reg: dict[int, int] = {}
    ready_pred: dict[int, int] = {}
    t = 0
    for instr in instructions[loop_start:]:
        spec = instr.spec
        if spec.latency is not None:
            for reg in instr.writes_registers():
                ready_reg[reg] = t + spec.latency
            for p in instr.writes_predicates():
                ready_pred[p] = t + spec.latency
        t += max(instr.control.stall, 1)
    # Shift to be relative to the loop start (time 0 = next iteration begin).
    return (
        {r: v - t for r, v in ready_reg.items() if v > t},
        {p: v - t for p, v in ready_pred.items() if v > t},
    )


def _schedule_pass(
    instructions: list[Instruction],
    ready_reg: dict[int, int],
    ready_pred: dict[int, int],
) -> bool:
    """One linear scheduling sweep; returns True if any control changed."""
    ready_reg = dict(ready_reg)
    ready_pred = dict(ready_pred)
    barriers: dict[int, _PendingBarrier] = {}
    t = 0
    prev: Instruction | None = None
    changed = False

    for instr in instructions:
        spec = instr.spec
        reads = set(instr.reads_registers())
        writes = set(instr.writes_registers())
        pred_reads = set(instr.reads_predicates())
        pred_writes = set(instr.writes_predicates())

        # ---- wait on scoreboard barriers ---------------------------------
        need_wait = 0
        for idx, pending in barriers.items():
            # Note: BAR.SYNC needs no scoreboard waits for shared-memory
            # ordering — the MIO pipe processes LDS/STS in issue order, so
            # a barrier separating the issues is sufficient.  Register
            # dependencies are awaited by their consumers as usual.
            touched = (
                (pending.kind == "write" and (pending.regs & (reads | writes) or pending.preds & (pred_reads | pred_writes)))
                or (pending.kind == "read" and pending.regs & writes)
            )
            if touched and not instr.control.waits_on(idx):
                need_wait |= 1 << idx
        if need_wait:
            instr.control = dataclasses.replace(
                instr.control, wait_mask=instr.control.wait_mask | need_wait
            )
            changed = True
        for idx in list(barriers):
            if instr.control.waits_on(idx):
                del barriers[idx]

        # ---- stall for fixed-latency hazards ------------------------------
        deficit = 0
        for reg in reads | writes:
            if reg in ready_reg:
                deficit = max(deficit, ready_reg[reg] - t)
        for p in pred_reads | pred_writes:
            if p in ready_pred:
                deficit = max(deficit, ready_pred[p] - t)
        if deficit > 0 and prev is not None:
            extra = deficit
            new_stall = min(15, prev.control.stall + extra)
            if new_stall != prev.control.stall:
                t += new_stall - prev.control.stall
                prev.control = prev.control.with_stall(new_stall)
                changed = True

        # ---- allocate barriers for variable-latency results ---------------
        if spec.latency is None and instr.name not in ("BRA", "EXIT", "BAR", "NOP"):
            if spec.is_store:
                if instr.control.read_bar == NO_BARRIER:
                    idx = _free_barrier(barriers, instr)
                    instr.control = dataclasses.replace(instr.control, read_bar=idx)
                    changed = True
                _merge_barrier(
                    barriers, instr.control.read_bar, "read", reads, set(),
                    spec.mem_space,
                )
            else:
                if instr.control.write_bar == NO_BARRIER:
                    idx = _free_barrier(barriers, instr)
                    instr.control = dataclasses.replace(instr.control, write_bar=idx)
                    changed = True
                _merge_barrier(
                    barriers, instr.control.write_bar, "write", writes, pred_writes,
                    spec.mem_space,
                )

        # ---- publish fixed-latency results --------------------------------
        if spec.latency is not None:
            for reg in writes:
                ready_reg[reg] = t + spec.latency
            for p in pred_writes:
                ready_pred[p] = t + spec.latency

        t += max(instr.control.stall, 1)
        prev = instr
    return changed


def _merge_barrier(
    barriers: dict[int, _PendingBarrier],
    idx: int,
    kind: str,
    regs: set[int],
    preds: set[int],
    space: str = "",
) -> None:
    """Several in-flight ops may share one barrier; track the reg union."""
    pending = barriers.get(idx)
    if pending is not None and pending.kind == kind:
        pending.regs |= regs
        pending.preds |= preds
        pending.space = pending.space or space
    else:
        barriers[idx] = _PendingBarrier(kind, set(regs), set(preds), space)


def _free_barrier(barriers: dict[int, _PendingBarrier], instr: Instruction) -> int:
    for idx in range(NUM_WAIT_BARRIERS):
        if idx not in barriers:
            return idx
    # All busy: force a wait on barrier 0 at this instruction and reuse it.
    instr.control = instr.control.with_wait(0)
    del barriers[0]
    return 0


def validate_control(instructions: list[Instruction]) -> list[str]:
    """Return a list of hazard violations (empty = provably hazard-free).

    Thin wrapper over the analyzer's
    :class:`~repro.sass.analysis.ctrlcodes.ControlCodePass` — a CFG
    fixpoint: fixed-latency results must be covered by accumulated
    stalls and variable-latency results (registers *and* predicates) by
    a scoreboard barrier some instruction waits on before consuming,
    joined over every control-flow path including loop back edges —
    rendered in this function's historical string format.
    """
    from .analysis.base import AnalysisContext
    from .analysis.ctrlcodes import ControlCodePass

    ctx = AnalysisContext(instructions=instructions)
    return [
        f"instr {d.pos} ({d.instruction}) {d.message}"
        for d in ControlCodePass().run(ctx)
    ]
