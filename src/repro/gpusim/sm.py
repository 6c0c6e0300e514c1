"""Cycle-level SM simulation: the one warp scheduler of both engines.

The model (per the Volta/Turing references the paper builds on):

* one SM = 4 scheduler partitions; each issues ≤1 instruction/cycle from
  its resident warps (warp *w* lives on partition ``w % 4``);
* each partition owns a 16-lane FP32 pipe and an INT pipe — a 32-thread
  warp instruction occupies its pipe for 2 cycles (+1 on an FP32-pipe
  register-bank conflict, §5.2.2);
* the LSU (global) and MIO (shared/S2R/MUFU) pipes are shared per SM; a
  conflict-free ``LDS.128`` costs 4 MIO cycles (4 phases, §4.3), an
  n-way bank conflict adds n−1 cycles per phase;
* DRAM and L2 bandwidth are per-SM fair shares consumed in 32-byte
  sectors;
* the **yield flag** steers warp selection exactly as §5.1.4/§6.1
  describe: while the last-issued instruction's flag says "stay", the
  scheduler keeps issuing from the same warp; a switch the flag requests
  costs one extra issue cycle and forfeits the reuse cache, while a
  switch forced by a stall is free;
* the six scoreboard barriers gate variable-latency results; stall
  counts delay the issuing warp.

Multiple thread blocks can be resident at once (the §7.1 occupancy
argument: V100 fits two 48 KB-smem blocks per SM, Turing only one) —
their warps interleave on the same schedulers but own separate shared
memory and CTA barriers.

:func:`schedule` is the only implementation of these rules.  It issues
per-warp traces of instruction instances
(:func:`repro.gpusim.decode.static_instances` gives the tuple layout).
The two engines differ only in where an instance's dynamic footprint
comes from; ``REPRO_SIM_ENGINE`` picks one:

* ``fast`` (the default): :func:`repro.gpusim.fastsim.replay_traces`
  executes the whole program first and hands over complete traces, and
  each scheduler is looked at only in cycles where it might issue: it
  sleeps until a lower bound on its next issue, and the loop jumps to
  the earliest wake;
* ``reference`` (the differential oracle): a per-issue hook runs
  :func:`repro.gpusim.engine.execute` on the warp's :class:`WarpState`
  the moment its instruction issues, takes the footprint from the
  :class:`~repro.gpusim.engine.ExecResult` and appends the warp's next
  instance; no scheduler sleeps, so every cycle is stepped.
"""

from __future__ import annotations

import dataclasses
import gc
import heapq
import os
from typing import Callable

import numpy as np

from ..common.errors import SimDeadlock, SimulatorError
from ..sass.control import NO_BARRIER
from ..sass.instruction import Instruction
from .arch import DeviceSpec
from .counters import Counters
from .decode import (
    CC_FFMA,
    CC_HALF2,
    CC_HFMA2,
    PIPE_ALU,
    PIPE_FMA,
    PIPE_IDS,
    PIPE_LSU,
    PIPE_MIO,
    DecodedProgram,
    decode_program,
    static_instances,
)
from .engine import ExecutionContext, execute
from .memory import SECTOR_BYTES, GlobalMemory, SharedMemory
from .warp import WarpState

MAX_CYCLES = 100_000_000
#: A wake or eligibility time later than any simulated cycle.
_NEVER = 1 << 62


@dataclasses.dataclass
class BlockSpec:
    """One thread block to make resident on the simulated SM."""

    block_idx: int  # blockIdx.x
    num_warps: int
    const_bank: np.ndarray  # uint8, constant bank 0 image (params at 0x160)
    smem_bytes: int
    block_idx_y: int = 0
    block_idx_z: int = 0


class SMSimulator:
    """Runs a program's warps to completion and collects counters."""

    def __init__(
        self,
        device: DeviceSpec,
        program: list[Instruction],
        gmem: GlobalMemory,
    ):
        self.device = device
        self.program = program
        self.gmem = gmem
        self.counters = Counters()

    def run(self, blocks: list[BlockSpec]) -> Counters:
        engine = os.environ.get("REPRO_SIM_ENGINE") or "fast"
        if engine not in ("fast", "reference"):
            raise SimulatorError(
                f"unknown REPRO_SIM_ENGINE {engine!r}: use 'fast' or 'reference'"
            )
        # Both engines allocate millions of short-lived containers (trace
        # tuples, numpy views); cyclic-GC passes over them cost more than
        # the garbage they could ever reclaim here, so pause collection
        # for the duration.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            dp = decode_program(self.program)
            if engine == "fast":
                # Imported on first use: the replay is gpusim's largest
                # module, and callers that never simulate (inference,
                # serving) should not pay to load it.
                from .fastsim import replay_traces

                traces = replay_traces(dp, self.device, self.gmem, blocks, MAX_CYCLES)
                on_issue = None
            else:
                traces, on_issue = _executing_traces(dp, self.device, self.gmem, blocks)
            self.counters = schedule(self.device, dp, traces, blocks, on_issue)
        finally:
            if gc_was_enabled:
                gc.enable()
        return self.counters


def _executing_traces(
    dp: DecodedProgram, device: DeviceSpec, gmem: GlobalMemory,
    blocks: list[BlockSpec],
) -> tuple[list[list[tuple]], Callable[[int, tuple], tuple]]:
    """The reference engine: traces that grow by one instance per issue.

    Each warp starts at pc 0.  The hook executes the issuing instance
    with ``engine.execute`` on the warp's own :class:`WarpState`, so a
    value is written the cycle its instruction issues.  The footprint
    fields (pipe, pipe cycles, latency, sectors, conflict cycles) come
    from the :class:`ExecResult`, which keeps decode's static values
    cross-checked against the engine.
    """
    program = dp.program
    static = static_instances(dp, device)
    warps: list[tuple[WarpState, ExecutionContext]] = []
    for b_pos, block in enumerate(blocks):
        ctx = ExecutionContext(
            gmem, SharedMemory(max(block.smem_bytes, 16)), block.const_bank,
            block.block_idx, device,
            block_idx_y=block.block_idx_y, block_idx_z=block.block_idx_z,
        )
        warps.extend(
            (WarpState(w, block=b_pos), ctx) for w in range(block.num_warps)
        )
    traces = [[static[0]] for _ in warps]

    def on_issue(widx: int, inst: tuple) -> tuple:
        warp, ctx = warps[widx]
        r = execute(program[warp.pc], warp, ctx)
        if not r.exited:
            warp.pc = warp.pc + 1 if r.branch_target is None else r.branch_target
            traces[widx].append(static[warp.pc])
        sconf = 0 if r.smem_report is None else r.smem_report.conflicts
        return inst[:2] + (
            PIPE_IDS[r.pipe], r.pipe_cycles, r.variable_latency,
            r.dram_sectors, r.l2_sectors, sconf,
        ) + inst[8:]

    return traces, on_issue


def schedule(
    device: DeviceSpec,
    dp: DecodedProgram,
    traces: list[list[tuple]],
    blocks: list[BlockSpec],
    on_issue: Callable[[int, tuple], tuple] | None = None,
) -> Counters:
    """Issue every warp's trace to completion; return the counters.

    *traces* holds one list of instance tuples per resident warp,
    numbered block-major as *blocks* lists them.  Without *on_issue*
    each trace is complete and ends at the warp's ``EXIT``.  With it,
    ``on_issue(warp, instance)`` runs as each instance issues and
    returns the instance to time; it appends the warp's next instance
    unless the warp exited.

    A scheduler is looked at only in cycles where it might issue.  After
    each look it sleeps until a lower bound on its next issue, at least
    one cycle: over its warps that are live and not at a CTA barrier,
    the earliest of the later of the warp's eligibility time (stall
    count and the scoreboard barriers its next instance waits on) and
    the free time of the pipe that instance needs; an LSU instance
    behind a full MSHR queue also waits for the earliest pending
    completion.  Issues from other schedulers only make the shared
    pipes, the MSHR queue and DRAM/L2 busier, so the bound holds; the
    one event that makes a warp eligible sooner, a ``BAR`` arrival or
    ``EXIT`` releasing its block, wakes every scheduler (later ones in
    scan order still in this cycle).  With *on_issue* no scheduler
    sleeps: every cycle is stepped, which the differential tests hold
    the sleeping path to.  Each scheduler-cycle is an issue, a
    yield-switch bubble or an idle look, so the idle count follows from
    the other two.
    """
    nw = len(traces)
    max_cycles = MAX_CYCLES
    stepping = on_issue is not None
    block_of = [b for b, block in enumerate(blocks) for _ in range(block.num_warps)]
    block_warps: list[list[int]] = [[] for _ in blocks]
    for w, b in enumerate(block_of):
        block_warps[b].append(w)
    bar_needed = [block.num_warps for block in blocks]
    conflict_cached = dp.conflict_cached
    conflict_memo = dp._conflict_memo
    # Hot-loop local bindings: the issue loop touches these once or more
    # per issued instruction, and LOAD_FAST beats LOAD_GLOBAL.
    heappush = heapq.heappush
    heappop = heapq.heappop
    never = _NEVER
    pipe_fma = PIPE_FMA
    pipe_alu = PIPE_ALU
    pipe_lsu = PIPE_LSU
    pipe_mio = PIPE_MIO
    cc_ffma = CC_FFMA
    cc_hfma2 = CC_HFMA2
    cc_half2 = CC_HALF2
    no_barrier = NO_BARRIER

    # Warp state (plain lists — scalar access dominates).
    ptr = [0] * nw
    seq_len = [len(t) for t in traces]
    # Current instance per warp (a trace is never empty): one list
    # index in the eligibility scan instead of two.
    cur = [t[0] for t in traces]
    ready_at = [0] * nw
    # The first cycle the warp's stall count and the scoreboard barriers
    # its current instance waits on let it issue; ``never`` after its
    # EXIT and while it waits at a CTA barrier, when ``parked`` keeps
    # the value its release restores (None when not waiting).
    elig = [0] * nw
    parked: list[int | None] = [None] * nw
    # Scoreboard: per warp and barrier, the latest completion of the
    # accesses that set it; pending at cycle t exactly while later than t.
    release = [[0] * 6 for _ in range(nw)]
    reuse_valid = [False] * nw
    last_part = [-1] * nw

    n_sched = device.schedulers_per_sm
    sched_warps: list[list[int]] = [[] for _ in range(n_sched)]
    for w in range(nw):
        sched_warps[w % n_sched].append(w)
    # Round-robin order: after warp w issues, its scheduler next scans
    # the warps that follow w, wrapping around.
    after: list[list[int]] = [[] for _ in range(nw)]
    for warps_s in sched_warps:
        for pos, w in enumerate(warps_s):
            after[w] = warps_s[pos + 1:] + warps_s[:pos + 1]
    scan = [after[ws[0]] if ws else [] for ws in sched_warps]
    preferred: list[int | None] = [None] * n_sched
    last_issued: list[int | None] = [None] * n_sched
    charged = [False] * n_sched
    wake = [0] * n_sched
    # Free time of each pipe, by pipe id, as each scheduler sees it: the
    # FP32 and INT pipes are the partition's own, the LSU and MIO
    # entries are shared and written for every scheduler at once.
    pipe_free = [[0] * len(PIPE_IDS) for _ in range(n_sched)]

    dram_free = 0.0
    l2_free = 0.0
    sector_cost = SECTOR_BYTES / device.dram_bytes_per_cycle_per_sm
    l2_sector_cost = SECTOR_BYTES / (
        device.l2_gbps / device.clock_ghz / device.num_sms
    )

    mshr: list[int] = []
    mshr_depth = device.lsu_queue_depth
    bar_count = [0] * len(blocks)
    now = 0
    live = nw

    c = Counters()
    c_ffma = 0
    c_fp32 = 0
    c_hfma2 = 0
    c_half2 = 0
    c_fma_busy = 0
    c_alu_busy = 0
    c_lsu_busy = 0
    c_mio_busy = 0
    c_dram = 0
    c_l2 = 0
    c_sconf = 0
    c_rbc = 0
    c_switch = 0
    c_switch_pen = 0
    c_barwait = 0

    def release_block(b: int, s_idx: int, now: int) -> None:
        """Release block *b*'s CTA barrier during scheduler *s_idx*'s issue."""
        bar_count[b] = 0
        for w in block_warps[b]:
            e = parked[w]
            if e is not None:
                elig[w] = e
                parked[w] = None
        # The released warps may issue at once: schedulers later in scan
        # order look again in this cycle, the others in the next.
        for s in range(n_sched):
            soonest = now if s > s_idx else now + 1
            if wake[s] > soonest:
                wake[s] = soonest

    while live > 0:
        if now > max_cycles:
            raise SimDeadlock(f"no completion after {max_cycles} cycles")
        while mshr and mshr[0] <= now:
            heappop(mshr)

        issued_any = False
        mshr_full = len(mshr) >= mshr_depth
        for s_idx in range(n_sched):
            if wake[s_idx] > now:
                continue
            pf = pipe_free[s_idx]
            choice = -1
            switched = False
            pref = preferred[s_idx]
            # "Stay" preference: while the last instruction's yield bit
            # said stay, keep issuing from the same warp.
            if pref is not None and elig[pref] <= now:
                p = cur[pref][2]
                if pf[p] <= now and (p != pipe_lsu or not mshr_full):
                    choice = pref
            if choice < 0:
                for w in scan[s_idx]:
                    if elig[w] > now:
                        continue
                    p = cur[w][2]
                    if pf[p] > now or (p == pipe_lsu and mshr_full):
                        continue
                    choice = w
                    # A yield-flagged instruction makes the next issue
                    # from this scheduler pay one extra cycle (§5.1.4); a
                    # switch forced by a stall or scoreboard wait is free
                    # (preferred stays set in that case).
                    switched = pref is None and last_issued[s_idx] is not None
                    break
            if choice >= 0:
                if switched and not charged[s_idx]:
                    # The yield-requested switch "takes one more clock
                    # cycle" (§5.1.4): a real bubble before the issue.
                    charged[s_idx] = True
                    wake[s_idx] = now + 1
                    c_switch += 1
                    c_switch_pen += 1
                    continue
                charged[s_idx] = False

                widx = choice
                k = ptr[widx]
                if switched:
                    reuse_valid[last_issued[s_idx]] = False

                t = cur[widx]
                if stepping:
                    t = on_issue(widx, t)
                    seq_len[widx] = len(traces[widx])
                (
                    i, _wbits, p, pipe_cycles, delay, dram_sec, l2_sec, sconf,
                    st, yflag, wb, rb, part, confl0, cc, is_bar,
                ) = t

                # ---- register banks (§5.2.2) ---------------------------
                # A participating instruction reads the reuse cache its
                # warp's previous participating instruction left, unless
                # a yield or a yield-requested switch cleared it; decode
                # resolves the bank rule for each (instruction,
                # predecessor).
                conflict = False
                if part:
                    prev = last_part[widx]
                    if reuse_valid[widx] and prev >= 0:
                        conflict = conflict_memo.get((i, prev))
                        if conflict is None:
                            conflict = conflict_cached(i, prev)
                    else:
                        conflict = confl0
                    last_part[widx] = i
                    reuse_valid[widx] = True

                # ---- timing bookkeeping --------------------------------
                if p == pipe_fma:
                    if conflict:
                        pipe_cycles += 1
                        c_rbc += 1
                    pf[pipe_fma] = now + pipe_cycles
                    c_fma_busy += pipe_cycles
                    c_fp32 += 1
                    if cc == cc_ffma:
                        c_ffma += 1
                    elif cc == cc_hfma2:
                        c_hfma2 += 1
                    elif cc == cc_half2:
                        c_half2 += 1
                elif p == pipe_alu:
                    pf[pipe_alu] = now + pipe_cycles
                    c_alu_busy += pipe_cycles
                elif p == pipe_lsu:
                    for row in pipe_free:
                        row[pipe_lsu] = now + pipe_cycles
                    c_lsu_busy += pipe_cycles
                elif p == pipe_mio:
                    for row in pipe_free:
                        row[pipe_mio] = now + pipe_cycles
                    c_mio_busy += pipe_cycles
                    c_sconf += sconf
                c_dram += dram_sec
                c_l2 += l2_sec

                # ---- scoreboard barriers -------------------------------
                if delay:
                    # An access can charge both buckets (a warp
                    # straddling the L2-resident boundary); it completes
                    # when its slowest bucket drains.
                    ready = float(now + delay)
                    if dram_sec:
                        ready = max(ready, dram_free + dram_sec * sector_cost)
                        dram_free = (
                            max(dram_free, float(now)) + dram_sec * sector_cost
                        )
                    if l2_sec:
                        ready = max(ready, l2_free + l2_sec * l2_sector_cost)
                        l2_free = (
                            max(l2_free, float(now)) + l2_sec * l2_sector_cost
                        )
                    done_at = int(ready)
                    if p == pipe_lsu:
                        heappush(mshr, done_at)
                    rel = release[widx]
                    if wb != no_barrier and rel[wb] < done_at:
                        rel[wb] = done_at
                    if rb != no_barrier and rel[rb] < done_at:
                        rel[rb] = done_at

                # ---- control flow --------------------------------------
                ready = now + (st if st > 1 else 1)
                ready_at[widx] = ready
                if k + 1 < seq_len[widx]:
                    ptr[widx] = k + 1
                    t = cur[widx] = traces[widx][k + 1]
                    rel = release[widx]
                    for bar in t[1]:
                        if rel[bar] > ready:
                            ready = rel[bar]
                    if is_bar:
                        b = block_of[widx]
                        bar_count[b] += 1
                        parked[widx] = ready
                        elig[widx] = never
                        if bar_count[b] >= bar_needed[b]:
                            release_block(b, s_idx, now)
                    else:
                        elig[widx] = ready
                else:
                    # The trace ends at the warp's EXIT.  Volta arrival
                    # semantics: an exited warp no longer counts toward
                    # its block's barrier; if it was the last straggler,
                    # release the warps already waiting.
                    elig[widx] = never
                    live -= 1
                    b = block_of[widx]
                    bar_needed[b] -= 1
                    if bar_count[b] and bar_count[b] >= bar_needed[b]:
                        release_block(b, s_idx, now)

                scan[s_idx] = after[widx]
                last_issued[s_idx] = widx
                if yflag:
                    # Yield: prefer other warps next and forfeit the
                    # reuse cache (§6.1's two costs of the flag).
                    preferred[s_idx] = None
                    reuse_valid[widx] = False
                else:
                    preferred[s_idx] = widx
                issued_any = True

            # ---- sleep until this scheduler might issue ----------------
            if stepping:
                wake[s_idx] = now + 1
                continue
            soonest = never
            for w in sched_warps[s_idx]:
                e = elig[w]
                if e < soonest:
                    p = cur[w][2]
                    x = pf[p]
                    if x > e:
                        e = x
                    if p == pipe_lsu and len(mshr) >= mshr_depth and mshr[0] > e:
                        e = mshr[0]
                    if e < soonest:
                        soonest = e
            wake[s_idx] = soonest if soonest > now else now + 1

        # Move to the earliest wake.  No warp issues in the cycles
        # skipped, nor in this one unless ``issued_any``: each warp
        # that is live and not at a CTA barrier counts a barrier-wait
        # cycle for every such cycle at or after its stall-ready cycle.
        nxt = min(wake) if live else now + 1
        a = now + 1 if issued_any else now
        if nxt > a:
            for w in range(nw):
                if elig[w] != never:
                    r = ready_at[w]
                    if r < nxt:
                        c_barwait += nxt - (r if r > a else a)
        now = nxt

    # Every instance of every trace issued exactly once.
    c_instr = sum(seq_len)
    c.cycles = now
    c.instructions = c_instr
    c.ffma_instrs = c_ffma
    c.fp32_instrs = c_fp32
    c.hfma2_instrs = c_hfma2
    c.half2_instrs = c_half2
    c.fma_pipe_busy = c_fma_busy
    c.alu_pipe_busy = c_alu_busy
    c.lsu_pipe_busy = c_lsu_busy
    c.mio_pipe_busy = c_mio_busy
    c.dram_sectors = c_dram
    c.l2_sectors = c_l2
    c.smem_conflict_cycles = c_sconf
    c.reg_bank_conflicts = c_rbc
    c.warp_switches = c_switch
    c.switch_penalty_cycles = c_switch_pen
    c.issue_idle_cycles = n_sched * now - c_instr - c_switch_pen
    c.barrier_wait_cycles = c_barwait
    return c
