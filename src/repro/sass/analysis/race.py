"""Cross-warp shared-memory race detector.

The paper's producer/consumer structure (§4: LDG→STS input/filter
stages feeding the FFMA tile) is only correct because ``BAR.SYNC``
separates one warp's stores from another warp's loads of the same
words.  Control codes cannot express this — scoreboards are per-warp —
so it is a distinct class of bug from everything CTRL checks.

The analysis reasons about **barrier epochs** over the CFG: a forward
dataflow tracks the set of shared accesses issued since the last
``BAR`` on each path (``BAR`` terminates a basic block, so epochs align
with block boundaries; the join is set-union).  Two accesses pending in
the same epoch race when different warps touch a common 32-bit word and
at least one access is a store.  Lane addresses come from the same
symbolic warp evaluation the bank-conflict pass uses
(:func:`~repro.sass.analysis.smem.shared_access_table`).

Predicate-aware edges kill pending accesses the path contradicts: a
``@P5 LDS`` is dropped along the ``P5 == False`` edge of the loop
branch, so the tail loads of the last iteration do not falsely race
with the epilogue's stores.  The kill is only sound while the guard
still holds its value, so it is disabled for an access once any
instruction rewrites its guard predicate.

Rules:

* ``RACE001`` (error) — two warps touch the same shared-memory word
  with no ``BAR.SYNC`` between the accesses, at least one a store;
* ``RACE002`` (info)  — shared accesses whose addresses could not be
  resolved statically were excluded from race checking (count).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..hw import BANK_BYTES
from .base import AnalysisContext, AnalysisPass
from .cfg import BasicBlock, Edge, get_cfg
from .dataflow import solve_forward
from .diagnostics import Diagnostic, Severity
from .smem import shared_access_table

#: Sentinel predicate for "unguarded or guard no longer trustworthy".
_NO_GUARD = (-1, False)


@dataclasses.dataclass
class _AccessInfo:
    """Precomputed word footprint of one resolved shared access."""

    pos: int
    name: str
    is_store: bool
    guard: tuple[int, bool]  # (pred index, active value) or _NO_GUARD
    per_warp: list[frozenset[int]]  # 32-bit word indices per warp
    union: frozenset[int]
    cross_warp_write_overlap: bool  # the access races with itself


def _access_info(ctx: AnalysisContext) -> dict[int, _AccessInfo]:
    infos: dict[int, _AccessInfo] = {}
    for access in shared_access_table(ctx):
        if access.addrs is None or access.active is None:
            continue
        words_per_lane = max(1, access.width // BANK_BYTES)
        offsets = np.arange(words_per_lane, dtype=np.int64)
        per_warp: list[frozenset[int]] = []
        total = 0
        for warp in range(access.addrs.shape[0]):
            active = access.addrs[warp][access.active[warp]]
            if active.size == 0:
                per_warp.append(frozenset())
                continue
            words = np.unique(
                (active[:, None] // BANK_BYTES + offsets[None, :]).ravel()
            )
            per_warp.append(frozenset(int(w) for w in words))
            total += words.size
        union = frozenset().union(*per_warp) if per_warp else frozenset()
        guard = _NO_GUARD
        g = access.instr.guard
        if not g.is_pt:
            guard = (g.index, not g.negated)
        infos[access.pos] = _AccessInfo(
            pos=access.pos,
            name=access.instr.name,
            is_store=access.is_store,
            guard=guard,
            per_warp=per_warp,
            union=union,
            # Distinct warps sharing a word on one store instruction is
            # itself a race (per-warp sets are deduplicated, so any
            # shrink in the union is cross-warp).
            cross_warp_write_overlap=access.is_store and total > len(union),
        )
    return infos


# State: frozenset of (pos, (guard_pred, guard_value)) pending entries.
_StateT = frozenset


class SharedRacePass(AnalysisPass):
    name = "smem-race"
    rules = ("RACE001", "RACE002")

    def run(self, ctx: AnalysisContext) -> list[Diagnostic]:
        if not ctx.instructions:
            return []
        infos = _access_info(ctx)
        unresolved = [
            a.pos for a in shared_access_table(ctx) if a.addrs is None
        ]
        cfg = get_cfg(ctx)
        instructions = ctx.instructions

        def step(state: set, pos: int) -> None:
            instr = instructions[pos]
            if instr.name == "BAR":
                state.clear()
                return
            written = instr.writes_predicates()
            if written:
                # The guard value of a pending access is only known
                # while nothing rewrites that predicate.
                stale = {
                    entry for entry in state
                    if entry[1][0] in written
                }
                for entry in stale:
                    state.discard(entry)
                    state.add((entry[0], _NO_GUARD))
            if pos in infos:
                state.add((pos, infos[pos].guard))

        def transfer(block: BasicBlock, state: _StateT) -> _StateT:
            out = set(state)
            for pos in block.positions():
                step(out, pos)
            return frozenset(out)

        def join(states: list) -> _StateT:
            merged: frozenset = frozenset()
            for state in states:
                merged |= state
            return merged

        def edge_transfer(edge: Edge, state: _StateT) -> _StateT:
            if edge.cond is None:
                return state
            pred, value = edge.cond.pred, edge.cond.value
            # _NO_GUARD's pred of -1 never matches, so those survive.
            return frozenset(
                entry for entry in state
                if entry[1][0] != pred or entry[1][1] == value
            )

        in_states, _ = solve_forward(
            cfg, frozenset(), transfer, join, edge_transfer=edge_transfer
        )

        # Reporting sweep over the fixpoint; each (earlier, later) pair
        # is judged once, globally.
        findings: dict[tuple[int, int], Diagnostic] = {}
        checked: set[tuple[int, int]] = set()
        for block in cfg.blocks:
            state_in = in_states[block.id]
            if state_in is None:
                continue
            state = set(state_in)
            for pos in block.positions():
                info = infos.get(pos)
                if info is not None:
                    self._check(info, state, infos, checked, findings)
                step(state, pos)

        diags = [findings[key] for key in sorted(findings)]
        if unresolved:
            shown = sorted(unresolved)[:8]
            suffix = "..." if len(unresolved) > 8 else ""
            diags.append(Diagnostic(
                rule="RACE002",
                severity=Severity.INFO,
                pos=-1,
                instruction="",
                message=(
                    f"{len(unresolved)} shared-memory access(es) have "
                    "statically unknown addresses and were excluded from "
                    f"race checking (instructions {shown}{suffix})"
                ),
                hint="shared addressing should be a pure function of "
                     "threadIdx; data-dependent addresses cannot be "
                     "audited",
            ))
        return diags

    # ------------------------------------------------------------------
    def _check(
        self,
        info: _AccessInfo,
        pending: set,
        infos: dict[int, _AccessInfo],
        checked: set[tuple[int, int]],
        findings: dict[tuple[int, int], Diagnostic],
    ) -> None:
        if info.cross_warp_write_overlap:
            key = (info.pos, info.pos)
            if key not in findings:
                findings[key] = self._diag(
                    info.pos, info.name,
                    f"warps write overlapping shared-memory words at "
                    f"instruction {info.pos} with no intervening BAR.SYNC",
                )
        for other_pos, _guard in pending:
            if other_pos == info.pos:
                continue
            key = (min(info.pos, other_pos), max(info.pos, other_pos))
            if key in checked:
                continue
            checked.add(key)
            other = infos.get(other_pos)
            if other is None:
                continue
            if not (info.is_store or other.is_store):
                continue  # read/read never races
            if not (info.union & other.union):
                continue
            if self._cross_warp_overlap(info, other):
                a, b = sorted((info, other), key=lambda i: i.pos)
                findings[key] = self._diag(
                    b.pos, b.name,
                    f"races with the {'store' if a.is_store else 'load'} "
                    f"at instruction {a.pos}: different warps touch the "
                    "same shared-memory word with no BAR.SYNC between "
                    "them and at least one is a store",
                )

    @staticmethod
    def _cross_warp_overlap(a: _AccessInfo, b: _AccessInfo) -> bool:
        for w, words_a in enumerate(a.per_warp):
            if not words_a:
                continue
            for v, words_b in enumerate(b.per_warp):
                if v == w or not words_b:
                    continue
                if words_a & words_b:
                    return True
        return False

    @staticmethod
    def _diag(pos: int, name: str, message: str) -> Diagnostic:
        return Diagnostic(
            rule="RACE001",
            severity=Severity.ERROR,
            pos=pos,
            instruction=name,
            message=message,
            hint="insert a BAR.SYNC between the producing store and the "
                 "consuming access (or separate the buffers; §3.4 "
                 "double buffering)",
        )
