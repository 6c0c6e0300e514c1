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
(:func:`~repro.sass.analysis.smem.shared_access_table`); each access
keeps one word bitmap per warp, so comparing two accesses takes a few
integer ANDs.

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
    """Precomputed word footprint of one resolved shared access.

    Footprints are word bitmaps: Python ints whose bit *i* is 32-bit
    word *i* of the kernel's word numbering (see :func:`_access_info`),
    so set intersection is ``&``.
    """

    pos: int
    name: str
    is_store: bool
    guard: tuple[int, bool]  # (pred index, active value) or _NO_GUARD
    per_warp: list[int]  # the words each warp touches
    union: int  # the words any warp touches
    multi: int  # the words two or more warps touch

    @property
    def cross_warp_write_overlap(self) -> bool:
        """Distinct warps sharing a word on one store: a race with itself."""
        return self.is_store and self.multi != 0


#: Word spans up to this many 32-bit words (256 KiB, more shared memory
#: than any device gives a block) number words by address.  A wider span
#: comes only from addresses far outside the window (SM003 reports
#: them); words are then numbered by rank, so no bitmap grows with an
#: address value.
_DENSE_SPAN_WORDS = 1 << 16


def _lane_words(
    addrs: np.ndarray, active: np.ndarray, width: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(warps, 32 * words per lane)`` word indices and their validity."""
    words_per_lane = max(1, width // BANK_BYTES)
    offsets = np.arange(words_per_lane, dtype=np.int64)
    words = (addrs[:, :, None] // BANK_BYTES + offsets).reshape(addrs.shape[0], -1)
    return words, np.repeat(active, words_per_lane, axis=1)


def _bitmaps(bits: np.ndarray, valid: np.ndarray) -> list[int]:
    """One bitmap per row of *bits* (bit numbers) holding its valid bits."""
    if not valid.any():
        return [0] * bits.shape[0]
    hit = bits[valid]
    base = int(hit.min())
    matrix = np.zeros((bits.shape[0], int(hit.max()) - base + 1), dtype=bool)
    matrix[np.nonzero(valid)[0], hit - base] = True
    packed = np.packbits(matrix, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") << base for row in packed]


def _access_info(ctx: AnalysisContext) -> dict[int, _AccessInfo]:
    resolved = []
    lane_words = []
    for access in shared_access_table(ctx):
        if access.addrs is not None and access.active is not None:
            resolved.append(access)
            lane_words.append(
                _lane_words(access.addrs, access.active, access.width)
            )
    touched = [words[valid] for words, valid in lane_words]
    flat = np.concatenate(touched) if touched else np.zeros(0, dtype=np.int64)
    lo = int(flat.min()) if flat.size else 0
    hi = int(flat.max()) if flat.size else 0
    universe = np.unique(flat) if hi - lo >= _DENSE_SPAN_WORDS else None

    infos: dict[int, _AccessInfo] = {}
    for access, (words, valid) in zip(resolved, lane_words):
        bits = words - lo if universe is None else np.searchsorted(universe, words)
        per_warp = _bitmaps(bits, valid)
        union = multi = 0
        for warp_words in per_warp:
            multi |= union & warp_words
            union |= warp_words
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
            multi=multi,
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
        # is judged once, globally.  Only the pending positions matter
        # here, and within a block they change only as its accesses join
        # (a BAR, which clears them, ends its block), so they are built
        # once per block.  A load is compared with pending stores only:
        # read/read never races.
        stores = {pos for pos, info in infos.items() if info.is_store}
        findings: dict[tuple[int, int], Diagnostic] = {}
        judged: set[tuple[int, int]] = set()
        for block in cfg.blocks:
            state_in = in_states[block.id]
            if state_in is None:
                continue
            pending = {pos for pos, _guard in state_in}
            for pos in block.positions():
                info = infos.get(pos)
                if info is not None:
                    self._check(
                        info, pending if info.is_store else pending & stores,
                        infos, judged, findings,
                    )
                    pending.add(pos)
                elif instructions[pos].name == "BAR":
                    pending.clear()

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
        candidates: set[int],
        infos: dict[int, _AccessInfo],
        judged: set[tuple[int, int]],
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
        for other_pos in candidates:
            if other_pos == info.pos:
                continue
            key = (min(info.pos, other_pos), max(info.pos, other_pos))
            if key in judged:
                continue
            judged.add(key)
            other = infos[other_pos]
            if info.union & other.union and self._cross_warp_overlap(info, other):
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
        """Whether a word of *a* and *b* is touched by two different warps.

        A common word touched by two warps of either access qualifies.
        Otherwise each common word has one warp in each access, and they
        differ exactly when some warp's common words differ.
        """
        common = a.union & b.union
        if common & (a.multi | b.multi):
            return True
        return any(
            (words_a ^ words_b) & common
            for words_a, words_b in zip(a.per_warp, b.per_warp)
        )

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
