"""RACE001 on word bitmaps against the frozenset sweep it replaced.

``SharedRacePass`` keeps each access's per-warp footprint as a word
bitmap and compares a load only with pending stores.  The oracle below
is the earlier implementation, kept here verbatim in substance: one
``frozenset`` of word indices per warp, and a reporting sweep that
visits every pending entry.  Both must report the same diagnostics —
rule, position, message and order — on racy programs, including every
kernel obtained by dropping one ``BAR.SYNC`` from the default f22/f44
kernels.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.common.problem import ConvProblem
from repro.kernels.winograd_fused import default_tunables, kernel_for_tile
from repro.sass import assemble, parse_program
from repro.sass.analysis import SharedRacePass
from repro.sass.analysis.base import AnalysisContext
from repro.sass.analysis.cfg import get_cfg
from repro.sass.analysis.dataflow import solve_forward
from repro.sass.analysis.race import _NO_GUARD
from repro.sass.analysis.smem import shared_access_table
from repro.sass.hw import BANK_BYTES


# ---------------------------------------------------------------------------
# The oracle: per-warp frozensets and a sweep over every pending entry.
# ---------------------------------------------------------------------------
@dataclasses.dataclass
class _SetInfo:
    pos: int
    name: str
    is_store: bool
    guard: tuple[int, bool]
    per_warp: list[frozenset[int]]
    union: frozenset[int]
    cross_warp_write_overlap: bool


def _set_infos(ctx: AnalysisContext) -> dict[int, _SetInfo]:
    infos = {}
    for access in shared_access_table(ctx):
        if access.addrs is None or access.active is None:
            continue
        offsets = np.arange(max(1, access.width // BANK_BYTES), dtype=np.int64)
        per_warp = []
        total = 0
        for warp in range(access.addrs.shape[0]):
            active = access.addrs[warp][access.active[warp]]
            words = np.unique((active[:, None] // BANK_BYTES + offsets).ravel())
            per_warp.append(frozenset(int(w) for w in words))
            total += words.size
        union = frozenset().union(*per_warp)
        g = access.instr.guard
        infos[access.pos] = _SetInfo(
            pos=access.pos,
            name=access.instr.name,
            is_store=access.is_store,
            guard=_NO_GUARD if g.is_pt else (g.index, not g.negated),
            per_warp=per_warp,
            union=union,
            cross_warp_write_overlap=access.is_store and total > len(union),
        )
    return infos


def _oracle_race001(ctx: AnalysisContext) -> list[tuple[str, int, str, str]]:
    """(rule, pos, instruction, message) of every RACE001, in order."""
    infos = _set_infos(ctx)
    cfg = get_cfg(ctx)
    instructions = ctx.instructions

    def step(state, pos):
        instr = instructions[pos]
        if instr.name == "BAR":
            state.clear()
            return
        written = instr.writes_predicates()
        if written:
            for entry in {e for e in state if e[1][0] in written}:
                state.discard(entry)
                state.add((entry[0], _NO_GUARD))
        if pos in infos:
            state.add((pos, infos[pos].guard))

    def transfer(block, state):
        out = set(state)
        for pos in block.positions():
            step(out, pos)
        return frozenset(out)

    def join(states):
        merged = frozenset()
        for state in states:
            merged |= state
        return merged

    def edge_transfer(edge, state):
        if edge.cond is None:
            return state
        pred, value = edge.cond.pred, edge.cond.value
        return frozenset(e for e in state if e[1][0] != pred or e[1][1] == value)

    in_states, _ = solve_forward(
        cfg, frozenset(), transfer, join, edge_transfer=edge_transfer
    )

    def cross(a, b):
        return any(
            words_a & words_b
            for w, words_a in enumerate(a.per_warp)
            for v, words_b in enumerate(b.per_warp)
            if v != w
        )

    findings = {}
    checked = set()
    for block in cfg.blocks:
        if in_states[block.id] is None:
            continue
        state = set(in_states[block.id])
        for pos in block.positions():
            info = infos.get(pos)
            if info is not None:
                if info.cross_warp_write_overlap:
                    findings.setdefault((pos, pos), (pos, info.name, (
                        f"warps write overlapping shared-memory words at "
                        f"instruction {pos} with no intervening BAR.SYNC"
                    )))
                for other_pos, _guard in state:
                    if other_pos == pos:
                        continue
                    key = (min(pos, other_pos), max(pos, other_pos))
                    if key in checked:
                        continue
                    checked.add(key)
                    other = infos[other_pos]
                    if not (info.is_store or other.is_store):
                        continue
                    if info.union & other.union and cross(info, other):
                        a, b = sorted((info, other), key=lambda i: i.pos)
                        findings[key] = (b.pos, b.name, (
                            f"races with the {'store' if a.is_store else 'load'} "
                            f"at instruction {a.pos}: different warps touch the "
                            "same shared-memory word with no BAR.SYNC between "
                            "them and at least one is a store"
                        ))
            step(state, pos)
    return [("RACE001", *findings[key]) for key in sorted(findings)]


def _assert_matches_oracle(ctx: AnalysisContext) -> int:
    got = [
        (d.rule, d.pos, d.instruction, d.message)
        for d in SharedRacePass().run(ctx) if d.rule == "RACE001"
    ]
    assert got == _oracle_race001(ctx)
    return len(got)


# ---------------------------------------------------------------------------
# Small racy programs (the RACE001 mutation tests' kernels)
# ---------------------------------------------------------------------------
#: name -> (source, RACE001 count).
_PROGRAMS = {
    "dropped-bar": (
        "S2R R0, SR_TID.X;\nSHF.L R1, R0, 0x2, RZ;\nSTS [R1], R0;\n"
        "LDS R3, [RZ];\nEXIT;\n", 1,
    ),
    "bar-separates": (
        "S2R R0, SR_TID.X;\nSHF.L R1, R0, 0x2, RZ;\nSTS [R1], R0;\n"
        "BAR.SYNC;\nLDS R3, [RZ];\nEXIT;\n", 0,
    ),
    "store-overlap": ("S2R R0, SR_TID.X;\nSTS [RZ], R0;\nEXIT;\n", 1),
    "every-warp-one-word": (
        # Both accesses touch word 0 from every warp: the same warps on
        # each side, so only the words two warps touch reveal the race.
        "S2R R0, SR_TID.X;\nSTS [RZ], R0;\nLDS R3, [RZ];\nEXIT;\n", 2,
    ),
    "same-warp-words": (
        # Each thread stores and reloads its own word: the two share
        # words within warps only, so they do not race.  The STS.64
        # spills into the next warp's first word: it races with both
        # and with itself.
        "S2R R0, SR_TID.X;\nSHF.L R1, R0, 0x2, RZ;\nSTS [R1], R0;\n"
        "LDS R3, [R1];\nSTS.64 [R1], R2;\nEXIT;\n", 3,
    ),
    "out-of-window": (
        # Far-apart words (some lanes near 4 GiB) take the rank numbering.
        "S2R R0, SR_TID.X;\nSHF.L R1, R0, 0x2, RZ;\n"
        "IADD3 R2, R1, -0x100, RZ;\nSTS [R1], R0;\nLDS R3, [R2];\nEXIT;\n", 1,
    ),
    "guard-kill": (
        # The @P0 store is killed along the !P0 edge only.
        "S2R R0, SR_TID.X;\nISETP.EQ.AND P0, PT, R0, RZ, PT;\n"
        "@!P0 BRA skip;\n@P0 STS [RZ], R0;\nLDS R4, [RZ];\nskip:\n"
        "LDS R3, [RZ];\nEXIT;\n", 2,
    ),
    "guard-kill-bar": (
        "S2R R0, SR_TID.X;\nISETP.EQ.AND P0, PT, R0, RZ, PT;\n"
        "@!P0 BRA skip;\n@P0 STS [RZ], R0;\nBAR.SYNC;\nskip:\n"
        "LDS R3, [RZ];\nEXIT;\n", 0,
    ),
}


@pytest.mark.parametrize("name", sorted(_PROGRAMS))
def test_race001_matches_oracle_on_small_programs(name):
    src, count = _PROGRAMS[name]
    parsed = parse_program(src)
    instrs = parsed.instructions
    for pos, instr in enumerate(instrs):
        if instr.name == "BRA" and isinstance(instr.target, str):
            instrs[pos].target = parsed.labels[instr.target] - (pos + 1)
    assert _assert_matches_oracle(AnalysisContext(instructions=instrs)) == count


# ---------------------------------------------------------------------------
# Every default f22/f44 kernel with one BAR.SYNC dropped
# ---------------------------------------------------------------------------
_PROB = ConvProblem(n=32, c=64, h=28, w=28, k=64)


def test_race001_matches_oracle_on_bar_dropped_kernels():
    mutants = 0
    total = 0
    for tile in ("f22", "f44"):
        gen = kernel_for_tile(_PROB, tile, default_tunables(tile))
        for main_loop_only in (False, True):
            lines = gen.source(main_loop_only=main_loop_only).split("\n")
            for i, line in enumerate(lines):
                if "BAR" not in line.split(";")[0]:
                    continue
                kernel = assemble(
                    "\n".join(lines[:i] + lines[i + 1:]), auto_schedule=True
                )
                total += _assert_matches_oracle(AnalysisContext(
                    instructions=kernel.instructions, meta=kernel.meta,
                ))
                mutants += 1
    assert (mutants, total) == (19, 14151)
