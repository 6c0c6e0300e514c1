"""Control codes (§5.1.4): one hazard model, checked and repaired.

On Volta/Turing the hardware does not interlock: fixed-latency results
must be covered by the issuing warp's stall counts, variable-latency
results (memory, MUFU, S2R) by one of the six scoreboard barriers that
some later instruction waits on.  This module is the only model of
those rules — one state (:class:`_State`) and one per-instruction rule
(:func:`_sweep`) — run in two modes over the **control-flow graph**,
with the worklist fixpoint of
:func:`~repro.sass.analysis.dataflow.solve_forward` joining
pessimistically at merge points (a wait missing on one arm of a
branch, or a latency carried around a loop back edge, is a hazard like
a straight-line one):

* **check** — :class:`ControlCodePass` (and :func:`validate_control`)
  reports each hazard;
* **repair** — :func:`schedule`, the assembler's ``auto_schedule``
  pass, fixes each hazard where the check would report it.

The state per program point: cycles until each fixed-latency register
or predicate result is ready (countdowns, so joins take the max;
inside a block the rule keeps absolute issue times), what each armed
scoreboard barrier guards (joins take the union), and variable-latency
results with no barrier (joins keep the earliest producer).

Rules (errors — a hazard means wrong results on hardware) and repairs:

* ``CTRL001`` — touching a register/predicate guarded by an armed
  barrier without waiting on it; the repair adds the wait;
* ``CTRL002`` — touching the result of a variable-latency producer
  with no barrier; the repair gives every such producer the lowest
  free barrier (with all six armed, it waits on barrier 0 and reuses
  it), so the case never arises;
* ``CTRL003`` — reading or writing a fixed-latency register or
  predicate result before its latency has elapsed; the repair raises
  the preceding stall (capped at 15) — at a block's first instruction,
  the last stall of each predecessor block by the deficit it carries.

:func:`schedule` sweeps the program once in program order from an
empty state, then repeats over the fixpoint's in-states until no
control code changes, sweeping a block again only when its in-state
differs from the one it was last repaired from.  It adds waits and
raises stalls on hand-written control codes too; only a hand-set
barrier index is kept as written.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Iterable, NamedTuple, Sequence

from ..control import NO_BARRIER
from ..instruction import Instruction
from ..isa import NUM_WAIT_BARRIERS
from .base import AnalysisContext, AnalysisPass
from .cfg import BasicBlock, build_cfg, get_cfg
from .dataflow import solve_forward
from .diagnostics import Diagnostic, Severity

_Emit = Callable[[Diagnostic], None]

_GuardedMap = dict[tuple[int, str], tuple[frozenset[int], frozenset[int]]]

_NOTHING: frozenset[int] = frozenset()

#: Backstop on :func:`schedule`'s repair rounds.  Stalls only rise and
#: waits only accumulate, so the rounds terminate; real kernels need
#: at most one round after the linear sweep.
_MAX_SCHEDULE_ROUNDS = 16

#: Variable-latency opcodes that neither produce nor consume a result
#: a barrier could guard.
_UNTRACKED = ("BRA", "EXIT", "BAR")


@dataclasses.dataclass
class _State:
    """Hazard facts at one program point (see module docstring)."""

    rem_reg: dict[int, int] = dataclasses.field(default_factory=dict)
    rem_pred: dict[int, int] = dataclasses.field(default_factory=dict)
    guarded: _GuardedMap = dataclasses.field(default_factory=dict)
    unguarded_reg: dict[int, int] = dataclasses.field(default_factory=dict)
    unguarded_pred: dict[int, int] = dataclasses.field(default_factory=dict)

    def copy(self) -> "_State":
        return _State(
            rem_reg=dict(self.rem_reg),
            rem_pred=dict(self.rem_pred),
            guarded=dict(self.guarded),
            unguarded_reg=dict(self.unguarded_reg),
            unguarded_pred=dict(self.unguarded_pred),
        )


def _join(states: Sequence[_State]) -> _State:
    """Pessimistic merge: a hazard on any incoming path is a hazard."""
    merged = states[0].copy()
    for state in states[1:]:
        for rem, other in (
            (merged.rem_reg, state.rem_reg),
            (merged.rem_pred, state.rem_pred),
        ):
            for key, value in other.items():
                if value > rem.get(key, 0):
                    rem[key] = value
        for key, (regs, preds) in state.guarded.items():
            have = merged.guarded.get(key)
            if have is None:
                merged.guarded[key] = (regs, preds)
            else:
                merged.guarded[key] = (have[0] | regs, have[1] | preds)
        for ung, other_ung in (
            (merged.unguarded_reg, state.unguarded_reg),
            (merged.unguarded_pred, state.unguarded_pred),
        ):
            for key, pos in other_ung.items():
                if key not in ung or pos < ung[key]:
                    ung[key] = pos
    return merged


class _Facts(NamedTuple):
    """What the rule reads of one instruction besides its control code:
    the registers and predicates it touches (reads or writes) and
    writes, its fixed latency, and the barrier kind its variable-latency
    result arms (``"read"`` for stores, ``"write"`` otherwise, ``""``
    for fixed-latency and untracked opcodes) with what that barrier
    guards."""

    touch: frozenset[int]
    writes: list[int]
    ptouch: frozenset[int]
    preads: list[int]
    pwrites: list[int]
    latency: int | None
    barrier: str
    tracked_regs: frozenset[int]
    tracked_preds: frozenset[int]


def _facts(instr: Instruction) -> _Facts:
    spec = instr.spec
    reads = instr.reads_registers()
    writes = instr.writes_registers()
    preads = instr.reads_predicates()
    pwrites = instr.writes_predicates()
    barrier = ""
    tracked_regs = tracked_preds = _NOTHING
    if spec.latency is None and instr.name not in _UNTRACKED:
        if spec.is_store:
            barrier, tracked_regs = "read", frozenset(reads)
        else:
            barrier = "write"
            tracked_regs, tracked_preds = frozenset(writes), frozenset(pwrites)
    return _Facts(
        frozenset(reads + writes), writes,
        frozenset(preads + pwrites) if preads or pwrites else _NOTHING,
        preads, pwrites, spec.latency, barrier, tracked_regs, tracked_preds,
    )


def _deficit(
    ready_reg: dict[int, int], ready_pred: dict[int, int], facts: _Facts,
    t: int,
) -> int:
    """Cycles the instruction issuing at ``t`` comes too early."""
    latest = t
    for reg in facts.touch:
        ready = ready_reg.get(reg, t)
        if ready > latest:
            latest = ready
    for p in facts.ptouch:
        ready = ready_pred.get(p, t)
        if ready > latest:
            latest = ready
    return latest - t


def _countdowns(ready: dict[int, int], t: int) -> dict[int, int]:
    """Absolute ready times as cycles left after ``t`` (ready ones drop)."""
    return {key: at - t for key, at in ready.items() if at > t}


def _raise_stall(instr: Instruction, cycles: int) -> int:
    """Delay the next issue after ``instr`` by ``cycles`` (stalls cap at
    15); return the cycles actually added."""
    old = instr.control.stall
    new = min(15, max(old, 1) + cycles)
    if new == old:
        return 0
    instr.control = instr.control.with_stall(new)
    return max(new, 1) - max(old, 1)


def _report(
    emit: _Emit, pos: int, instr: Instruction, facts: _Facts,
    hazard_keys: list[tuple[int, str]], state: _State,
) -> None:
    """Emit the findings of the instruction at ``pos`` against the state
    it issues in, in rule order per operand."""

    def add(rule: str, message: str, hint: str) -> None:
        emit(Diagnostic(rule, Severity.ERROR, pos, instr.name, message, hint))

    touch = sorted(facts.touch)
    ptouch = sorted(facts.ptouch)
    for key in sorted(hazard_keys):
        idx, kind = key
        regs, preds = state.guarded[key]
        if kind == "write":
            reg_hazard = regs.intersection(touch)
            pred_hazard = preds.intersection(ptouch)
        else:
            reg_hazard = regs.intersection(facts.writes)
            pred_hazard = preds.intersection(facts.pwrites)
        for letter, hit in (("R", reg_hazard), ("P", pred_hazard)):
            if hit:
                add("CTRL001",
                    f"touches {letter}{min(hit)} guarded by barrier {idx} "
                    "without waiting on it",
                    f"add barrier {idx} to this instruction's wait mask")
    unawaited = "give the producer a write barrier and wait on it here"
    too_early = "raise the producer's stall count to cover its latency"
    for reg in touch:
        if reg in state.unguarded_reg:
            add("CTRL002",
                f"touches R{reg} whose variable-latency producer at "
                f"{state.unguarded_reg[reg]} was not awaited", unawaited)
        left = state.rem_reg.get(reg, 0)
        if left > 0:
            add("CTRL003", f"reads/writes R{reg} {left} cycles too early",
                too_early)
    for p in ptouch:
        if p in state.unguarded_pred:
            add("CTRL002",
                f"touches P{p} whose variable-latency producer at "
                f"{state.unguarded_pred[p]} was not awaited", unawaited)
    for p in ptouch:
        left = state.rem_pred.get(p, 0)
        if left > 0:
            verb = "reads" if p in facts.preads else "writes"
            add("CTRL003", f"{verb} P{p} {left} cycles too early", too_early)


def _sweep(
    instructions: list[Instruction],
    program_facts: list[_Facts],
    positions: range,
    state: _State,
    *,
    emit: _Emit | None = None,
    repair: bool = False,
    entry: Iterable[tuple[int, _State]] = (),
) -> tuple[_State, _State, bool]:
    """Run the rule over ``positions`` from ``state`` (not mutated);
    ``program_facts`` holds :func:`_facts` of every instruction.

    Without ``emit`` or ``repair`` this is the dataflow transfer.  With
    ``emit`` each hazard is reported; with ``repair`` it is fixed
    instead, ``entry`` naming the ``(position, out-state)`` of each
    instruction that flows into ``positions[0]``, whose stall covers a
    deficit there.  Returns the in-state the sweep actually started
    from (``state`` minus the cycles a raised entry stall added), the
    out-state, and whether any control code changed.
    """
    check = repair or emit is not None
    ready_reg = dict(state.rem_reg)
    ready_pred = dict(state.rem_pred)
    guarded = dict(state.guarded)
    ung_reg = dict(state.unguarded_reg)
    ung_pred = dict(state.unguarded_pred)
    t = 0
    shift = 0
    changed = False
    first = positions.start
    # What any armed barrier guards, rebuilt after guarded changes: an
    # instruction touching none of it cannot hit CTRL001.
    hot_regs: set[int] = set()
    hot_preds: set[int] = set()
    hot_stale = True

    def retire(mask: int) -> None:
        nonlocal hot_stale
        for key in [key for key in guarded if mask >> key[0] & 1]:
            regs, preds = guarded.pop(key)
            hot_stale = True
            for reg in regs:
                ung_reg.pop(reg, None)
            for p in preds:
                ung_pred.pop(p, None)

    for pos in positions:
        instr = instructions[pos]
        facts = program_facts[pos]
        control = instr.control
        if control.wait_mask and guarded:
            retire(control.wait_mask)

        if check:
            # ---- CTRL001: an armed barrier guards what this touches ----
            hazard_keys: list[tuple[int, str]] = []
            if guarded and hot_stale:
                hot_regs = {r for regs, _ in guarded.values() for r in regs}
                hot_preds = {p for _, ps in guarded.values() for p in ps}
                hot_stale = False
            if guarded and not (hot_regs.isdisjoint(facts.touch)
                                and hot_preds.isdisjoint(facts.ptouch)):
                for key, (regs, preds) in guarded.items():
                    if key[1] == "write":
                        hit = not (regs.isdisjoint(facts.touch)
                                   and preds.isdisjoint(facts.ptouch))
                    else:
                        hit = not (regs.isdisjoint(facts.writes)
                                   and preds.isdisjoint(facts.pwrites))
                    if hit:
                        hazard_keys.append(key)
            # ---- CTRL003: a fixed-latency result is not ready yet ------
            deficit = _deficit(ready_reg, ready_pred, facts, t)
            if emit is not None:
                unawaited = (ung_reg or ung_pred) and not (
                    ung_reg.keys().isdisjoint(facts.touch)
                    and ung_pred.keys().isdisjoint(facts.ptouch))
                if hazard_keys or deficit or unawaited:
                    now = _State(
                        _countdowns(ready_reg, t), _countdowns(ready_pred, t),
                        guarded, ung_reg, ung_pred,
                    )
                    _report(emit, pos, instr, facts, hazard_keys, now)
            else:
                if hazard_keys:
                    need = 0
                    for idx, _ in hazard_keys:
                        need |= 1 << idx
                    control = dataclasses.replace(
                        control, wait_mask=control.wait_mask | need)
                    instr.control = control
                    retire(need)
                    changed = True
                if deficit > 0:
                    if pos > first:
                        added = _raise_stall(instructions[pos - 1], deficit)
                    else:
                        added = 0
                        for last, out in entry:
                            added = max(added, _raise_stall(
                                instructions[last],
                                _deficit(out.rem_reg, out.rem_pred, facts, 0),
                            ))
                        shift = added
                    if added:
                        t += added
                        changed = True

        # ---- publish this instruction's results -------------------------
        if facts.latency is not None:
            ready = t + facts.latency
            for reg in facts.writes:
                ready_reg[reg] = ready
            for p in facts.pwrites:
                ready_pred[p] = ready
        elif facts.barrier:
            kind = facts.barrier
            bar = getattr(control, f"{kind}_bar")
            if bar == NO_BARRIER and repair:
                armed = {idx for idx, _ in guarded}
                bar = next(
                    (i for i in range(NUM_WAIT_BARRIERS) if i not in armed), 0
                )
                if bar in armed:  # all six armed: wait on 0 and reuse it
                    control = control.with_wait(0)
                    retire(1)
                control = dataclasses.replace(control, **{f"{kind}_bar": bar})
                instr.control = control
                changed = True
            if bar == NO_BARRIER:
                if kind == "write":
                    for reg in facts.tracked_regs:
                        ung_reg[reg] = pos
                    for p in facts.tracked_preds:
                        ung_pred[p] = pos
            else:
                # Re-arming a barrier with the opposite kind replaces it;
                # the same kind accumulates.
                hot_stale = True
                guarded.pop((bar, "write" if kind == "read" else "read"), None)
                regs, preds = guarded.get((bar, kind), (_NOTHING, _NOTHING))
                guarded[(bar, kind)] = (
                    regs | facts.tracked_regs, preds | facts.tracked_preds
                )

        t += control.stall or 1

    start = state
    if shift:
        start = dataclasses.replace(
            state, rem_reg=_countdowns(state.rem_reg, shift),
            rem_pred=_countdowns(state.rem_pred, shift),
        )
    out = _State(_countdowns(ready_reg, t), _countdowns(ready_pred, t),
                 guarded, ung_reg, ung_pred)
    return start, out, changed


class ControlCodePass(AnalysisPass):
    name = "control-codes"
    rules = ("CTRL001", "CTRL002", "CTRL003")

    def run(self, ctx: AnalysisContext) -> list[Diagnostic]:
        if not ctx.instructions:
            return []
        cfg = get_cfg(ctx)
        instructions = ctx.instructions
        facts = [_facts(instr) for instr in instructions]

        def transfer(block: BasicBlock, state: _State) -> _State:
            return _sweep(instructions, facts, block.positions(), state)[1]

        in_states, _ = solve_forward(cfg, _State(), transfer, _join)

        diags: list[Diagnostic] = []
        # Reporting sweep: replay each reachable block from its fixpoint
        # in-state.  Unreachable blocks carry no state (CFG001 flags
        # them); they cannot hazard because they never execute.
        for block in cfg.blocks:
            state = in_states[block.id]
            if state is not None:
                _sweep(instructions, facts, block.positions(), state,
                       emit=diags.append)
        return diags


def schedule(instructions: list[Instruction]) -> None:
    """Fill stall counts, waits and scoreboard barriers in place.

    The repair mode of :class:`ControlCodePass`: afterwards the pass
    reports nothing, except where a stall would have to exceed 15.
    Loops come from the CFG's back edges, so branch targets must be
    resolved (as :func:`~repro.sass.assembler.assemble` does first).
    """
    if not instructions:
        return
    cfg = build_cfg(instructions)
    blocks = cfg.blocks
    facts = [_facts(instr) for instr in instructions]

    # The linear sweep: program order from an empty state, a deficit at
    # a block's first instruction raising the stall just before it.
    starts: list[_State] = []
    state = _State()
    for block in blocks:
        entry = [(block.start - 1, state)] if block.start else []
        start, state, _ = _sweep(
            instructions, facts, block.positions(), state, repair=True,
            entry=entry,
        )
        starts.append(start)
    # clean[b]: an in-state block b has no hazard from; memo[b]: an
    # (in-state, out-state) pair of block b under its current controls.
    # Program order chains the blocks, so each one's out-state is the
    # next one's start.
    clean: list[_State | None] = list(starts)
    memo: list[tuple[_State, _State] | None] = list(
        zip(starts, starts[1:] + [state])
    )

    def transfer(block: BasicBlock, block_in: _State) -> _State:
        known = memo[block.id]
        if known is not None and known[0] == block_in:
            return known[1]
        out = _sweep(instructions, facts, block.positions(), block_in)[1]
        memo[block.id] = (block_in, out)
        return out

    for _ in range(_MAX_SCHEDULE_ROUNDS):
        in_states, out_states = solve_forward(cfg, _State(), transfer, _join)
        changed = False
        for block in blocks:
            state_in = in_states[block.id]
            if state_in is None or state_in == clean[block.id]:
                continue
            preds = {
                blocks[edge.src].end - 1: pred_out
                for edge in cfg.predecessors[block.id]
                if (pred_out := out_states[edge.src]) is not None
            }
            start, out, block_changed = _sweep(
                instructions, facts, block.positions(), state_in,
                repair=True, entry=preds.items(),
            )
            clean[block.id] = start
            memo[block.id] = (start, out)
            if block_changed:
                changed = True
                for edge in cfg.predecessors[block.id]:
                    memo[edge.src] = None
        if not changed:
            return


def validate_control(instructions: list[Instruction]) -> list[str]:
    """Return a list of hazard violations (empty = provably hazard-free).

    :class:`ControlCodePass`'s findings, rendered as
    ``instr <pos> (<opcode>) <message>``.
    """
    ctx = AnalysisContext(instructions=instructions)
    return [
        f"instr {d.pos} ({d.instruction}) {d.message}"
        for d in ControlCodePass().run(ctx)
    ]
