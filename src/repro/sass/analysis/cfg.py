"""Control-flow graph over a SASS instruction stream.

Every whole-program analysis in this package (path-sensitive control
codes, reaching definitions, barrier divergence, the shared-memory race
detector, liveness) runs over the same block decomposition:

* **Leaders** are instruction 0, every resolved ``BRA`` target, and the
  instruction after any ``BRA``, ``EXIT`` or ``BAR``.
* ``BAR`` terminates its block even though it falls straight through —
  this aligns block boundaries with barrier *epochs*, which is what the
  race detector reasons about.
* Edges are **predicate-aware**: a ``@P5 BRA`` contributes a taken edge
  conditioned on ``P5 == True`` and a fall-through edge conditioned on
  ``P5 == False`` (inverted for ``@!P5``).  Passes that can prove a
  guarded access did not execute along an edge use these conditions
  (:class:`EdgeCondition`) to kill facts.

Unresolved (string-label) branch targets fall through conservatively,
so programs straight out of ``parse_program`` remain analyzable.

Rules emitted by :class:`CfgPass`:

* ``CFG001`` (warning) — a block is unreachable from the entry;
  downstream dataflow passes skip it, so dead code is not vetted.
* ``CFG002`` (error) — a resolved branch target lies outside the
  program; the instruction stream cannot have been assembled correctly.
"""

from __future__ import annotations

import dataclasses

from ..instruction import Instruction
from .base import AnalysisContext, AnalysisPass
from .diagnostics import Diagnostic, Severity

#: Block terminator opcodes.  BAR terminates so blocks align with
#: barrier epochs; BRA/EXIT terminate because control transfers.
TERMINATORS = ("BRA", "EXIT", "BAR")


@dataclasses.dataclass(frozen=True)
class EdgeCondition:
    """``pred == value`` must hold for the edge to be taken."""

    pred: int
    value: bool

    def text(self) -> str:
        return f"{'' if self.value else '!'}P{self.pred}"


@dataclasses.dataclass(frozen=True)
class Edge:
    """A CFG edge; ``cond`` is None for unconditional edges.

    ``kind`` is ``"taken"`` (branch taken), ``"fall"`` (branch not
    taken / conservative fall-through past an unresolved target) or
    ``"seq"`` (plain sequential flow, including past a BAR).
    """

    src: int
    dst: int
    kind: str
    cond: EdgeCondition | None = None


@dataclasses.dataclass(frozen=True)
class BasicBlock:
    """Half-open instruction range ``[start, end)``."""

    id: int
    start: int
    end: int

    def positions(self) -> range:
        return range(self.start, self.end)


class ControlFlowGraph:
    """Blocks, edges and reachability for one instruction stream."""

    def __init__(
        self,
        instructions: list[Instruction],
        blocks: list[BasicBlock],
        edges: list[Edge],
        diagnostics: list[Diagnostic],
    ):
        self.instructions = instructions
        self.blocks = blocks
        self.edges = edges
        self.diagnostics = diagnostics
        #: instruction position -> owning block id
        self.block_of: list[int] = [0] * len(instructions)
        for block in blocks:
            for pos in block.positions():
                self.block_of[pos] = block.id
        self.successors: list[list[Edge]] = [[] for _ in blocks]
        self.predecessors: list[list[Edge]] = [[] for _ in blocks]
        for edge in edges:
            self.successors[edge.src].append(edge)
            self.predecessors[edge.dst].append(edge)
        self.reachable = self._reachable_from(0) if blocks else set()

    # ------------------------------------------------------------------
    def _reachable_from(self, entry: int) -> set[int]:
        seen = {entry}
        stack = [entry]
        while stack:
            for edge in self.successors[stack.pop()]:
                if edge.dst not in seen:
                    seen.add(edge.dst)
                    stack.append(edge.dst)
        return seen

    def reachable_from(self, entry: int) -> set[int]:
        """Block ids reachable from ``entry`` (inclusive)."""
        if not self.blocks:
            return set()
        return self._reachable_from(entry)

    def rpo(self) -> list[int]:
        """Reverse postorder over the blocks reachable from the entry."""
        if not self.blocks:
            return []
        order: list[int] = []
        seen: set[int] = set()

        def visit(block_id: int) -> None:
            # Iterative DFS: kernels can have long block chains.
            stack: list[tuple[int, int]] = [(block_id, 0)]
            seen.add(block_id)
            while stack:
                current, edge_idx = stack[-1]
                succs = self.successors[current]
                if edge_idx < len(succs):
                    stack[-1] = (current, edge_idx + 1)
                    nxt = succs[edge_idx].dst
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append((nxt, 0))
                else:
                    order.append(current)
                    stack.pop()

        visit(0)
        order.reverse()
        return order


def _branch_conditions(
    instr: Instruction,
) -> tuple[EdgeCondition | None, EdgeCondition | None]:
    """(taken, fall) conditions for a control transfer's guard."""
    if instr.guard.is_pt and not instr.guard.negated:
        return None, None
    pred = instr.guard.index
    return (
        EdgeCondition(pred, not instr.guard.negated),
        EdgeCondition(pred, instr.guard.negated),
    )


def build_cfg(instructions: list[Instruction]) -> ControlFlowGraph:
    """Decompose ``instructions`` into basic blocks with typed edges."""
    n = len(instructions)
    if n == 0:
        return ControlFlowGraph(instructions, [], [], [])

    diagnostics: list[Diagnostic] = []
    bad_targets: set[int] = set()
    leaders = {0}
    for pos, instr in enumerate(instructions):
        if instr.name == "BRA" and isinstance(instr.target, int):
            target = pos + 1 + instr.target
            if 0 <= target < n:
                leaders.add(target)
            else:
                bad_targets.add(pos)
                diagnostics.append(Diagnostic(
                    rule="CFG002",
                    severity=Severity.ERROR,
                    pos=pos,
                    instruction=instr.name,
                    message=(
                        f"branch target {target} lies outside the "
                        f"{n}-instruction program"
                    ),
                    hint="fix the branch offset; analyses treat this "
                         "branch as falling through",
                ))
        if instr.name in TERMINATORS and pos + 1 < n:
            leaders.add(pos + 1)

    starts = sorted(leaders)
    blocks = [
        BasicBlock(id=i, start=start, end=end)
        for i, (start, end) in enumerate(zip(starts, starts[1:] + [n]))
    ]
    block_at = {block.start: block.id for block in blocks}

    edges: list[Edge] = []
    for block in blocks:
        last_pos = block.end - 1
        last = instructions[last_pos]
        fall_id = block_at.get(block.end)

        def fall(kind: str, cond: EdgeCondition | None = None) -> None:
            if fall_id is not None:
                edges.append(Edge(block.id, fall_id, kind, cond))

        if last.name == "BRA":
            taken_cond, fall_cond = _branch_conditions(last)
            resolved = (
                isinstance(last.target, int) and last_pos not in bad_targets
            )
            if resolved:
                assert isinstance(last.target, int)
                target = last_pos + 1 + last.target
                edges.append(
                    Edge(block.id, block_at[target], "taken", taken_cond)
                )
                if fall_cond is not None:  # predicated: both ways possible
                    fall("fall", fall_cond)
            else:
                # Unresolved label or out-of-range target: conservative
                # fall-through.
                fall("fall")
        elif last.name == "EXIT":
            _, fall_cond = _branch_conditions(last)
            if not (last.guard.is_pt and not last.guard.negated):
                fall("fall", fall_cond)
        else:
            # Plain block end (next pos is a leader) or a BAR.
            fall("seq")

    cfg = ControlFlowGraph(instructions, blocks, edges, diagnostics)
    _flag_unreachable(cfg, diagnostics)
    return cfg


def _flag_unreachable(
    cfg: ControlFlowGraph, diagnostics: list[Diagnostic]
) -> None:
    instructions = cfg.instructions
    for block in cfg.blocks:
        if block.id not in cfg.reachable:
            diagnostics.append(Diagnostic(
                rule="CFG001",
                severity=Severity.WARNING,
                pos=block.start,
                instruction=instructions[block.start].name,
                message=(
                    f"block {block.id} (instructions {block.start}.."
                    f"{block.end - 1}) is unreachable from the entry"
                ),
                hint="dead code is skipped by the dataflow passes; "
                     "delete it or fix the branch that should reach it",
            ))


def get_cfg(ctx: AnalysisContext) -> ControlFlowGraph:
    """Build (or reuse) the context's CFG.

    Every dataflow pass in a ``run_passes`` invocation analyzes the same
    instruction list, so the graph is memoized on the context object.
    """
    cached = ctx.__dict__.get("_cfg_cache")
    if cached is None:
        cached = build_cfg(ctx.instructions)
        ctx.__dict__["_cfg_cache"] = cached
    return cached


class CfgPass(AnalysisPass):
    """Surfaces the graph builder's own findings (CFG001/CFG002)."""

    name = "cfg"
    rules = ("CFG001", "CFG002")

    def run(self, ctx: AnalysisContext) -> list[Diagnostic]:
        return list(get_cfg(ctx).diagnostics)

