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
  the scheduler skips idle stretches in closed form;
* ``reference`` (the differential oracle): a per-issue hook runs
  :func:`repro.gpusim.engine.execute` on the warp's :class:`WarpState`
  the moment its instruction issues, takes the footprint from the
  :class:`~repro.gpusim.engine.ExecResult` and appends the warp's next
  instance; the scheduler then steps every cycle.
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
    each trace is complete and ends at the warp's ``EXIT``; stretches in
    which no scheduler can issue are skipped, and the idle and
    barrier-wait counters are integrated in closed form over them.  With
    it, ``on_issue(warp, instance)`` runs as each instance issues and
    returns the instance to time; it appends the warp's next instance
    unless the warp exited, and idle cycles are stepped one at a time.
    Both paths produce the same counters.
    """
    nw = len(traces)
    max_cycles = MAX_CYCLES
    block_of = [b for b, block in enumerate(blocks) for _ in range(block.num_warps)]
    bar_needed = [block.num_warps for block in blocks]
    conflict_cached = dp.conflict_cached
    conflict_memo = dp._conflict_memo
    # Hot-loop local bindings: the issue loop touches these once or more
    # per issued instruction, and LOAD_FAST beats LOAD_GLOBAL.
    heappush = heapq.heappush
    heappop = heapq.heappop
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
    done = [False] * nw
    at_bar = [False] * nw
    bar_cnt = [[0] * 6 for _ in range(nw)]
    reuse_valid = [False] * nw
    last_part = [-1] * nw

    n_sched = device.schedulers_per_sm
    sched_warps: list[list[int]] = [[] for _ in range(n_sched)]
    pos_in_sched = [0] * nw
    for w in range(nw):
        s = w % n_sched
        pos_in_sched[w] = len(sched_warps[s])
        sched_warps[s].append(w)
    preferred: list[int | None] = [None] * n_sched
    last_issued: list[int | None] = [None] * n_sched
    next_free = [0] * n_sched
    rr = [0] * n_sched
    charged = [False] * n_sched

    fma_busy = [0] * n_sched
    alu_busy = [0] * n_sched
    lsu_busy = 0
    mio_busy = 0
    dram_free = 0.0
    l2_free = 0.0
    sector_cost = SECTOR_BYTES / device.dram_bytes_per_cycle_per_sm
    l2_sector_cost = SECTOR_BYTES / (
        device.l2_gbps / device.clock_ghz / device.num_sms
    )

    events: list[tuple[int, int, int]] = []
    mshr: list[int] = []
    mshr_depth = device.lsu_queue_depth
    bar_count = [0] * len(blocks)
    now = 0
    live = nw

    c = Counters()
    c_instr = 0
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
    c_idle = 0
    c_barwait = 0

    while live > 0:
        if now > max_cycles:
            raise SimDeadlock(f"no completion after {max_cycles} cycles")
        while events and events[0][0] <= now:
            _, widx, barrier = heappop(events)
            bar_cnt[widx][barrier] -= 1
        while mshr and mshr[0] <= now:
            heappop(mshr)

        issued_any = False
        mshr_full = len(mshr) >= mshr_depth
        for s_idx in range(n_sched):
            if next_free[s_idx] > now:
                continue
            choice = -1
            switched = False
            pref = preferred[s_idx]
            # "Stay" preference: while the last instruction's yield bit
            # said stay, keep issuing from the same warp.
            if pref is not None:
                w = pref
                if not done[w] and not at_bar[w] and ready_at[w] <= now:
                    t = cur[w]
                    ok = True
                    wbits = t[1]
                    if wbits:
                        bc = bar_cnt[w]
                        for b in wbits:
                            if bc[b] > 0:
                                ok = False
                                break
                    if ok:
                        p = t[2]
                        if p == pipe_fma:
                            ok = fma_busy[s_idx] <= now
                        elif p == pipe_alu:
                            ok = alu_busy[s_idx] <= now
                        elif p == pipe_lsu:
                            ok = lsu_busy <= now and not mshr_full
                        elif p == pipe_mio:
                            ok = mio_busy <= now
                        if ok:
                            choice = w
            if choice < 0:
                warps_s = sched_warps[s_idx]
                n = len(warps_s)
                base = rr[s_idx] + 1
                for step in range(n):
                    w = warps_s[(base + step) % n]
                    if done[w] or at_bar[w] or ready_at[w] > now:
                        continue
                    t = cur[w]
                    wbits = t[1]
                    if wbits:
                        bc = bar_cnt[w]
                        blocked = False
                        for b in wbits:
                            if bc[b] > 0:
                                blocked = True
                                break
                        if blocked:
                            continue
                    p = t[2]
                    if p == pipe_fma:
                        if fma_busy[s_idx] > now:
                            continue
                    elif p == pipe_alu:
                        if alu_busy[s_idx] > now:
                            continue
                    elif p == pipe_lsu:
                        if lsu_busy > now or mshr_full:
                            continue
                    elif p == pipe_mio:
                        if mio_busy > now:
                            continue
                    choice = w
                    # A yield-flagged instruction makes the next issue
                    # from this scheduler pay one extra cycle (§5.1.4); a
                    # switch forced by a stall or scoreboard wait is free
                    # (preferred stays set in that case).
                    switched = (
                        preferred[s_idx] is None
                        and last_issued[s_idx] is not None
                    )
                    break
            if choice < 0:
                c_idle += 1
                continue
            if switched and not charged[s_idx]:
                # The yield-requested switch "takes one more clock cycle"
                # (§5.1.4): a real bubble before the issue.
                charged[s_idx] = True
                next_free[s_idx] = now + 1
                c_switch += 1
                c_switch_pen += 1
                continue
            charged[s_idx] = False

            widx = choice
            k = ptr[widx]
            if switched:
                reuse_valid[last_issued[s_idx]] = False

            t = cur[widx]
            if on_issue is not None:
                t = on_issue(widx, t)
                seq_len[widx] = len(traces[widx])
            (
                i, _wbits, p, pipe_cycles, delay, dram_sec, l2_sec, sconf,
                st, yflag, wb, rb, part, confl0, cc, is_bar,
            ) = t

            # ---- register banks (§5.2.2) -------------------------------
            # A participating instruction reads the reuse cache its
            # warp's previous participating instruction left, unless a
            # yield or a yield-requested switch cleared it; decode
            # resolves the bank rule for each (instruction, predecessor).
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

            # ---- timing bookkeeping ------------------------------------
            c_instr += 1
            if p == pipe_fma:
                if conflict:
                    pipe_cycles += 1
                    c_rbc += 1
                fma_busy[s_idx] = now + pipe_cycles
                c_fma_busy += pipe_cycles
                c_fp32 += 1
                if cc == cc_ffma:
                    c_ffma += 1
                elif cc == cc_hfma2:
                    c_hfma2 += 1
                elif cc == cc_half2:
                    c_half2 += 1
            elif p == pipe_alu:
                alu_busy[s_idx] = now + pipe_cycles
                c_alu_busy += pipe_cycles
            elif p == pipe_lsu:
                lsu_busy = now + pipe_cycles
                c_lsu_busy += pipe_cycles
            elif p == pipe_mio:
                mio_busy = now + pipe_cycles
                c_mio_busy += pipe_cycles
                c_sconf += sconf
            c_dram += dram_sec
            c_l2 += l2_sec

            # ---- scoreboard barriers -----------------------------------
            if delay:
                # An access can charge both buckets (a warp straddling
                # the L2-resident boundary); it completes when its
                # slowest bucket drains.
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
                delay = int(ready) - now
                if p == pipe_lsu:
                    heappush(mshr, now + delay)
                if wb != no_barrier:
                    bar_cnt[widx][wb] += 1
                    heappush(events, (now + delay, widx, wb))
                if rb != no_barrier:
                    bar_cnt[widx][rb] += 1
                    heappush(events, (now + delay, widx, rb))

            # ---- control flow ------------------------------------------
            if k + 1 >= seq_len[widx]:
                # The trace ends at the warp's EXIT.  Volta arrival
                # semantics: an exited warp no longer counts toward its
                # block's barrier; if it was the last straggler, release
                # the warps already waiting.
                done[widx] = True
                live -= 1
                b = block_of[widx]
                bar_needed[b] -= 1
                if bar_count[b] and bar_count[b] >= bar_needed[b]:
                    bar_count[b] = 0
                    for other in range(nw):
                        if block_of[other] == b:
                            at_bar[other] = False
            else:
                ptr[widx] = k + 1
                cur[widx] = traces[widx][k + 1]
                if is_bar:
                    b = block_of[widx]
                    bar_count[b] += 1
                    at_bar[widx] = True
                    if bar_count[b] >= bar_needed[b]:
                        bar_count[b] = 0
                        for other in range(nw):
                            if block_of[other] == b:
                                at_bar[other] = False

            ready_at[widx] = now + (st if st > 1 else 1)
            rr[s_idx] = pos_in_sched[widx]
            next_free[s_idx] = now + 1
            last_issued[s_idx] = widx
            if yflag:
                # Yield: prefer other warps next and forfeit the reuse
                # cache (§6.1's two costs of the flag).
                preferred[s_idx] = None
                reuse_valid[widx] = False
            else:
                preferred[s_idx] = widx
            issued_any = True

        if issued_any:
            now += 1
            continue

        # Nothing issued: account this cycle, then skip ahead to the
        # next time any scheduler input can change (stepping instead
        # when instances execute at issue).
        for w in range(nw):
            if not done[w] and not at_bar[w] and ready_at[w] <= now:
                c_barwait += 1
        if on_issue is not None:
            now += 1
            continue

        horizon = None
        if events:
            t = events[0][0]
            if t > now and (horizon is None or t < horizon):
                horizon = t
        if mshr:
            t = mshr[0]
            if t > now and (horizon is None or t < horizon):
                horizon = t
        for t in next_free:
            if t > now and (horizon is None or t < horizon):
                horizon = t
        for w in range(nw):
            if not done[w] and not at_bar[w]:
                t = ready_at[w]
                if t > now and (horizon is None or t < horizon):
                    horizon = t
        for t in fma_busy:
            if t > now and (horizon is None or t < horizon):
                horizon = t
        for t in alu_busy:
            if t > now and (horizon is None or t < horizon):
                horizon = t
        if lsu_busy > now and (horizon is None or lsu_busy < horizon):
            horizon = lsu_busy
        if mio_busy > now and (horizon is None or mio_busy < horizon):
            horizon = mio_busy
        if horizon is None:
            # No pending event can ever unblock an eligible warp: the
            # stepped loop would spin to MAX_CYCLES and raise.
            raise SimDeadlock(
                f"no completion after {max_cycles} cycles"
            )
        if horizon > now + 1:
            if horizon > max_cycles + 1:
                horizon = max_cycles + 1
            a, b_end = now + 1, horizon
            span = b_end - a
            # issue_idle: schedulers keep failing until the horizon.
            for t in next_free:
                c_idle += span if t <= a else max(0, b_end - t)
            # barrier_wait: per warp, cycles with ready_at satisfied.
            for w in range(nw):
                if not done[w] and not at_bar[w]:
                    t = ready_at[w]
                    c_barwait += span if t <= a else max(0, b_end - t)
            now = b_end
        else:
            now += 1

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
    c.issue_idle_cycles = c_idle
    c.barrier_wait_cycles = c_barwait
    return c


