"""Fast engine: vectorized functional replay into per-warp traces.

The reference engine executes one warp's instruction at a time
(``engine.execute`` — NumPy over one warp's 32 lanes) inside the
scheduler's cycle loop.  Per dynamic instruction that costs tens of
microseconds, almost all of it loop-invariant object inspection.

This module takes execution out of the cycle loop.
:class:`_Replay` runs all resident warps over the pre-decoded program
(:mod:`repro.gpusim.decode`) in lockstep *groups* over a
``(256, nwarps, 32)`` register file, so one NumPy op covers every warp
at the same pc; a group of contiguous warps reads and writes its rows
through views, and each lane's memory access moves as one element.
Groups split on per-warp-uniform divergence
(predicated ``EXIT``/``BRA``) and synchronize at ``BAR.SYNC`` in
barrier-phase order — valid for the data-race-free kernels this
simulator targets (the §5.1.4 control-code contract the assembler's
hazard checker enforces).  Intra-warp divergence raises
:class:`SimulatorError` exactly like the reference engine.  The integer
lane arithmetic and the shared-memory bank rule are
:mod:`repro.sass.hw`'s, the functions sasslint's address evaluation
calls too; FP arithmetic lives only here and in the reference engine.

:func:`replay_traces` turns the replay into one trace per warp of
instruction instances carrying their dynamic timing footprint (LSU
occupancy, DRAM/L2 sectors, shared-memory conflict cycles).  The one
scheduler, :func:`repro.gpusim.sm.schedule`, then issues the traces;
``tests/gpusim/test_fast_engine.py`` checks the counters against the
reference engine field for field.
"""

from __future__ import annotations

import numpy as np

from ..common.cache import LRUCache
from ..common.errors import SimDeadlock, SimMemoryFault, SimulatorError
from ..sass import hw
from .arch import DeviceSpec
from .decode import (
    K_ALU,
    K_BAR,
    K_BRA,
    K_EXIT,
    K_MEM_CONST,
    K_MEM_GLOBAL,
    K_MEM_SHARED,
    K_NOP,
    K_P2R,
    K_R2P,
    K_S2R,
    K_ISETP,
    SRC_IMM,
    SRC_REG,
    DecodedProgram,
    static_instances,
)
from .memory import SECTOR_BYTES, GlobalMemory, check_constant_lanes

_U32 = np.uint32
_SIGN = np.uint32(0x80000000)


_BIG = np.int64(1) << np.int64(62)


def _classify_group(
    gmem: GlobalMemory, addrs: np.ndarray, width: int, full: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized ``GlobalMemory.classify_sectors`` over a (g, 32) group.

    Per warp: the unique 32-byte sectors its active lanes touch, split
    into L2-resident and streaming counts — same union (begin sectors +
    end sector per lane) as ``memory.sector_ids``.
    """
    g = addrs.shape[0]
    offs = np.arange(0, width, SECTOR_BYTES, dtype=np.int64)
    sectors = np.concatenate(
        [
            (addrs[:, :, None] + offs[None, None, :]) // SECTOR_BYTES,
            ((addrs + width - 1) // SECTOR_BYTES)[:, :, None],
        ],
        axis=2,
    ).reshape(g, -1)
    valid = np.repeat(full, offs.size + 1, axis=1)
    sectors = np.where(valid, sectors, _BIG)
    sectors.sort(axis=1)
    valid = sectors < _BIG
    uniq = valid.copy()
    uniq[:, 1:] &= sectors[:, 1:] != sectors[:, :-1]
    base = sectors * SECTOR_BYTES
    resident = np.zeros_like(valid)
    for lo, hi in gmem._l2_resident:
        resident |= (base >= lo) & (base < hi)
    l2 = (uniq & resident).sum(axis=1).astype(np.int64)
    dram = uniq.sum(axis=1).astype(np.int64) - l2
    for arr in (dram, l2):
        arr.setflags(write=False)
    return dram, l2


# Candidate schedules of one problem share the synthetic buffer arena,
# so global accesses with the same addresses classify identically — and
# trip-count siblings repeat their first-iteration addresses exactly.
# Keyed on the L2-residency ranges too, since those decide the split.
_CLASSIFY_MEMO: LRUCache[tuple[np.ndarray, np.ndarray]] = LRUCache(4096)


def _classify_cached(
    gmem: GlobalMemory, addrs: np.ndarray, width: int, full: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    key = (
        width, tuple(gmem._l2_resident), addrs.tobytes(), full.tobytes(),
    )
    return _CLASSIFY_MEMO.get_or_build(
        key, lambda: _classify_group(gmem, addrs, width, full)
    )


#: A lane's 4-, 8- or 16-byte access as one array element, and the
#: shift from a byte offset to its element index.
_LANE = {width: np.dtype((np.void, width)) for width in (4, 8, 16)}
_SHIFT = {4: 2, 8: 3, 16: 4}


def _lane_images(raw: np.ndarray) -> dict[int, np.ndarray]:
    """The flat byte image *raw* as arrays of lane elements, per width (a
    partial element at the end lies past every in-bounds access)."""
    return {
        width: raw[: raw.size // width * width].view(lane)
        for width, lane in _LANE.items()
    }


def _out_of_range(addrs: np.ndarray, lo: int, hi: int, width: int) -> bool:
    """Whether some byte offset in *addrs* does not start a *width*-aligned
    *width*-byte access inside ``[lo, hi)``."""
    misaligned = int(np.bitwise_or.reduce(addrs, axis=None)) & (width - 1)
    return bool(misaligned or addrs.min() < lo or addrs.max() > hi - width)


# ---------------------------------------------------------------------------
# Functional replay
# ---------------------------------------------------------------------------


class _Segment:
    """A run of instructions shared verbatim by a set of warps."""

    __slots__ = ("steps", "dyn")

    def __init__(self) -> None:
        self.steps: list[int] = []
        # step index -> (pipe_cycles, var_lat, dram, l2, smem_conf) arrays
        self.dyn: dict[int, tuple] = {}


class _Group:
    """A set of warps in lockstep at one pc."""

    __slots__ = ("pc", "warps", "seg", "count")

    def __init__(self, pc: int, warps: np.ndarray, count: int) -> None:
        self.pc = pc
        self.warps = warps
        self.seg = _Segment()
        self.count = count  # instances executed before this segment (cap)


class _Replay:
    def __init__(self, dp: DecodedProgram, device: DeviceSpec | None,
                 gmem: GlobalMemory, blocks, max_cycles: int) -> None:
        self.dp = dp
        self.cap = max_cycles + 2  # instances per warp before SimDeadlock
        self.device = device
        self.gmem = gmem
        nw = sum(b.num_warps for b in blocks)
        self.nw = nw
        self.regs = np.zeros((256, nw, 32), dtype=_U32)
        self.preds = np.zeros((8, nw, 32), dtype=bool)
        self.preds[7] = True
        # The running group's register and predicate files, (256, g, 32)
        # and (8, g, 32): views of the whole files (see _run_group).
        self.R = self.regs
        self.P = self.preds
        self.F = self.regs.view(np.float32)
        self.lane = np.arange(32, dtype=_U32)

        block_of = np.empty(nw, dtype=np.int64)
        wid = np.empty(nw, dtype=_U32)
        ctaid = np.empty((3, nw, 1), dtype=_U32)  # block index x, y, z
        w0 = 0
        for b_pos, block in enumerate(blocks):
            for w in range(block.num_warps):
                block_of[w0] = b_pos
                wid[w0] = w
                ctaid[:, w0, 0] = (
                    block.block_idx, block.block_idx_y, block.block_idx_z
                )
                w0 += 1
        self.block_of = block_of
        self.wid = wid
        self.ctaid = ctaid

        # Memory images, each lane's access moved as one 4-, 8- or
        # 16-byte element once it has passed its bounds and alignment
        # checks.  Per-block images sit 16-byte aligned in one buffer.
        windows = np.array([max(b.smem_bytes, 16) for b in blocks])
        self.smem_window = windows[block_of]  # each warp's block's window
        self.smem_bound = int(windows.min())  # inside every block's window
        row = -(-int(windows.max()) // 16) * 16
        smem = np.zeros((len(blocks), row), dtype=np.uint8)
        self.smem_base = (block_of * row)[:, None]
        self.smem_lanes = _lane_images(smem.reshape(-1))
        self.const = np.stack([b.const_bank for b in blocks])
        self.const_bytes = self.const.shape[1]
        row = -(-self.const_bytes // 16) * 16
        const = np.zeros((len(blocks), row), dtype=np.uint8)
        const[:, : self.const_bytes] = self.const
        self.const_base = (block_of * row)[:, None]
        self.const_lanes = _lane_images(const.reshape(-1))
        self.gmem_lanes = _lane_images(gmem.data)
        self._const_u32_cache: dict[int, np.ndarray] = {}

        self.done = np.zeros(nw, dtype=bool)
        self.live = [b.num_warps for b in blocks]
        self.arrived = [0] * len(blocks)
        # per block: suspended (pc, warps, count) awaiting barrier release
        self.suspended: list[list[tuple[int, np.ndarray, int]]] = [
            [] for _ in blocks
        ]
        self.chains: list[list[tuple[_Segment, int]]] = [[] for _ in range(nw)]
        self.segments: list[_Segment] = []
        self.ready: list[_Group] = []

    # -- group management ---------------------------------------------------
    def _spawn(self, pc: int, warps: np.ndarray, count: int) -> None:
        g = _Group(pc, warps, count)
        for pos, w in enumerate(warps):
            self.chains[w].append((g.seg, pos))
        self.segments.append(g.seg)
        self.ready.append(g)

    def _finish(self, warps: np.ndarray) -> None:
        self.done[warps] = True
        for b, cnt in zip(*np.unique(self.block_of[warps], return_counts=True)):
            self.live[int(b)] -= int(cnt)

    def run(self) -> None:
        self._spawn(0, np.arange(self.nw, dtype=np.int64), 0)
        while True:
            while self.ready:
                self._run_group(self.ready.pop())
            # Barrier-release sweep: Volta arrival semantics — a block
            # releases once every *live* warp has arrived (exited warps
            # no longer count).
            released = False
            for b in range(len(self.live)):
                if self.arrived[b] and self.arrived[b] >= self.live[b]:
                    entries = self.suspended[b]
                    self.suspended[b] = []
                    self.arrived[b] = 0
                    by_pc: dict[int, list] = {}
                    for pc, warps, count in entries:
                        by_pc.setdefault(pc, []).append((warps, count))
                    for pc, parts in by_pc.items():
                        warps = np.concatenate([p[0] for p in parts])
                        count = max(p[1] for p in parts)
                        self._spawn(pc, warps, count)
                    released = True
            if not released:
                break
        if not self.done.all():
            raise SimDeadlock(
                "warps stalled at BAR.SYNC with no live warp able to arrive"
            )

    # -- operand access -----------------------------------------------------
    def _const_u32(self, offset: int) -> np.ndarray:
        hit = self._const_u32_cache.get(offset)
        if hit is None:
            hit = (
                self.const[:, offset : offset + 4].copy().view(_U32).ravel()
            )
            self._const_u32_cache[offset] = hit
        return hit

    def _mask(self, d, warps: np.ndarray):
        """Guard mask over the group (a new array), or None for
        unpredicated."""
        if d.guard_idx == 7 and not d.guard_neg:
            return None
        m = self.P[d.guard_idx]
        return ~m if d.guard_neg else m.copy()

    def _fetch(self, src, warps: np.ndarray):
        t = src[0]
        if t == SRC_REG:
            v = self.R[src[1]]
            if src[2]:
                v = v ^ _SIGN
            return v
        if t == SRC_IMM:
            return np.uint32(src[1])
        # constant: one u32 per block, broadcast over lanes
        return self._const_u32(src[1])[self.block_of[warps]][:, None]

    def _pair64(self, base: int) -> np.ndarray:
        return hw.pair64(self.R[base], self.R[base + 1])

    def _write_reg(self, idx: int, vals, mask) -> None:
        if idx == 255:
            return
        if mask is None:
            self.R[idx] = vals
        else:
            np.copyto(self.R[idx], vals, where=mask, casting="unsafe")

    def _write_pred(self, idx: int, vals, mask) -> None:
        if idx == 7:
            return
        if mask is None:
            self.P[idx] = vals
        else:
            np.copyto(self.P[idx], vals, where=mask)

    # -- group execution ----------------------------------------------------
    def _run_group(self, g: _Group) -> None:
        """Run *g* until it exits, splits or waits at a barrier.

        Executors read and write the group's registers through
        ``self.R``/``self.P`` (``self.F`` is ``self.R`` as float32).  A
        group of increasing contiguous warps gets views of the register
        files; any other group (an EXIT/BRA split, or a barrier release
        in arrival order) gets copies of its rows, written back when it
        stops.  Either way an operand read is a view: every executor
        computes its results before it writes a register, and a guard
        mask is a new array.
        """
        warps = g.warps
        contiguous = bool((np.diff(warps) == 1).all())
        rows = slice(warps[0], warps[0] + len(warps)) if contiguous else warps
        self.R = self.regs[:, rows]
        self.P = self.preds[:, rows]
        self.F = self.R.view(np.float32)
        self._run_steps(g)
        if not contiguous:
            self.regs[:, warps] = self.R
            self.preds[:, warps] = self.P

    def _run_steps(self, g: _Group) -> None:
        dp = self.dp
        instrs = dp.instrs
        kinds = dp.kind
        steps = g.seg.steps
        warps = g.warps
        pc = g.pc
        cap = self.cap
        n_steps = 0
        while True:
            if g.count + n_steps > cap:
                raise SimDeadlock(
                    f"warp executed more than {cap} instructions"
                )
            d = instrs[pc]
            k = kinds[pc]
            if k <= K_R2P and k != K_MEM_GLOBAL and k != K_MEM_SHARED:
                # Pure register-file ops: no trace dynamics.
                steps.append(pc)
                n_steps += 1
                if k == K_ALU:
                    self._exec_alu(d, warps)
                elif k == K_ISETP:
                    self._exec_isetp(d, warps)
                elif k == K_S2R:
                    self._exec_s2r(d, warps)
                elif k == K_MEM_CONST:
                    self._exec_ldc(d, warps)
                elif k == K_P2R:
                    self._exec_p2r(d, warps)
                else:
                    self._exec_r2p(d, warps)
                pc += 1
                continue
            if k == K_MEM_GLOBAL or k == K_MEM_SHARED:
                steps.append(pc)
                n_steps += 1
                if k == K_MEM_GLOBAL:
                    dyn = self._exec_gmem(d, warps)
                else:
                    dyn = self._exec_smem(d, warps)
                g.seg.dyn[len(steps) - 1] = dyn
                pc += 1
                continue
            if k == K_NOP:
                steps.append(pc)
                n_steps += 1
                pc += 1
                continue
            if k == K_EXIT:
                mask = self._mask(d, warps)
                steps.append(pc)
                n_steps += 1
                if mask is None:
                    self._finish(warps)
                    return
                alln = mask.all(axis=1)
                anyn = mask.any(axis=1)
                if (anyn & ~alln).any():
                    raise SimulatorError(
                        "divergent EXIT: this simulator supports predication, "
                        "not independent thread scheduling"
                    )
                if alln.all():
                    self._finish(warps)
                    return
                if not alln.any():
                    pc += 1
                    continue
                self._finish(warps[alln])
                self._spawn(pc + 1, warps[~alln], g.count + n_steps)
                return
            if k == K_BRA:
                mask = self._mask(d, warps)
                steps.append(pc)
                n_steps += 1
                target = pc + 1 + d.bra_target
                if mask is None:
                    pc = target
                    continue
                taken = mask.all(axis=1)
                anyn = mask.any(axis=1)
                if (anyn & ~taken).any():
                    raise SimulatorError(
                        "divergent BRA is not supported; predicate instead"
                    )
                if taken.all():
                    pc = target
                    continue
                if not taken.any():
                    pc += 1
                    continue
                self._spawn(target, warps[taken], g.count + n_steps)
                self._spawn(pc + 1, warps[~taken], g.count + n_steps)
                return
            if k == K_BAR:
                steps.append(pc)
                n_steps += 1
                count = g.count + n_steps
                blocks = self.block_of[warps]
                for b in np.unique(blocks):
                    sel = warps[blocks == b]
                    self.arrived[int(b)] += len(sel)
                    self.suspended[int(b)].append((pc + 1, sel, count))
                return
            inst = self.dp.program[pc]
            raise SimulatorError(
                f"instruction {inst.name} has no execution semantics"
            )

    # -- per-kind executors -------------------------------------------------
    def _exec_s2r(self, d, warps: np.ndarray) -> None:
        vals = hw.special_register(
            d.sr_id, self.wid[warps][:, None], self.lane, self.ctaid[:, warps]
        )
        self._write_reg(d.dest, vals, self._mask(d, warps))

    def _addrs(self, d, warps: np.ndarray) -> np.ndarray:
        base = d.mem_base
        if base == 255:
            return np.full((len(warps), 32), d.mem_offset, dtype=np.int64)
        if d.mem_extended:
            return self._pair64(base) + d.mem_offset
        return self.R[base].astype(np.int64) + d.mem_offset

    def _exec_gmem(self, d, warps: np.ndarray) -> tuple:
        g = len(warps)
        mask = self._mask(d, warps)
        full = np.ones((g, 32), dtype=bool) if mask is None else mask
        addrs = self._addrs(d, warps)
        width = d.mem_width
        gmem = self.gmem
        dev = self.device
        act = addrs if mask is None else addrs[mask]
        if act.size and _out_of_range(act, 256, gmem.size, width):
            # Faithful fault: re-check warp by warp for the message.
            for j in range(g):
                active = addrs[j][full[j]]
                if active.size:
                    gmem._check_lanes(active, width)
        dram, l2 = _classify_cached(gmem, addrs, width, full)
        cyc = np.maximum(1, full.sum(axis=1, dtype=np.int64) * width // 128)
        if not d.is_load:
            lat = np.full(g, 20, dtype=np.int64)
        elif dev is None:
            lat = np.full(g, 200, dtype=np.int64)
        else:
            lat = np.where(
                (l2 > 0) & (dram == 0),
                dev.lat_gmem_l2_hit,
                dev.lat_gmem_l2_miss,
            )
        self._move(d, self.gmem_lanes[width], addrs, mask)
        return (cyc, lat, dram, l2, np.zeros(g, dtype=np.int64))

    def _exec_smem(self, d, warps: np.ndarray) -> tuple:
        g = len(warps)
        mask = self._mask(d, warps)
        full = np.ones((g, 32), dtype=bool) if mask is None else mask
        addrs = self._addrs(d, warps)
        width = d.mem_width
        base_lat = (
            (self.device.lat_smem if self.device else 19) if d.is_load else 10
        )
        act = addrs if mask is None else addrs[mask]
        if act.size and _out_of_range(act, 0, self.smem_bound, width):
            # Re-check warp by warp against its own block's window.
            for j in range(g):
                active = addrs[j][full[j]]
                if active.size:
                    self._check_smem_lanes(
                        active, width, int(self.smem_window[warps[j]])
                    )
        cyc, _ = hw.bank_phases(addrs, width, full)
        sconf = cyc - width // hw.BANK_BYTES
        lat = base_lat + sconf
        self._move(
            d, self.smem_lanes[width], addrs + self.smem_base[warps], mask
        )
        return (
            cyc, lat, np.zeros(g, dtype=np.int64),
            np.zeros(g, dtype=np.int64), sconf,
        )

    def _check_smem_lanes(self, addrs: np.ndarray, width: int, size: int) -> None:
        if addrs.min() < 0 or addrs.max() + width > size:
            bad = int(addrs[(addrs < 0) | (addrs + width > size)][0])
            raise SimMemoryFault(
                f"shared access at {bad:#x} outside the {size}-byte block"
            )
        if np.any(addrs % width):
            bad = int(addrs[addrs % width != 0][0])
            raise SimMemoryFault(
                f"misaligned {width}-byte shared access at {bad:#x}"
            )

    def _exec_ldc(self, d, warps: np.ndarray) -> None:
        mask = self._mask(d, warps)
        addrs = self._addrs(d, warps)
        width = d.mem_width
        act = addrs if mask is None else addrs[mask]
        if act.size and _out_of_range(act, 0, self.const_bytes, width):
            for j in range(len(warps)):
                active = addrs[j] if mask is None else addrs[j][mask[j]]
                check_constant_lanes(active, width, self.const_bytes)
        self._move(
            d, self.const_lanes[width], addrs + self.const_base[warps], mask
        )

    def _move(self, d, image: np.ndarray, addrs: np.ndarray, mask) -> None:
        """Load the active lanes' accesses at byte offsets *addrs* of the
        lane image *image* into ``d.dest`` onward, or store them from the
        data registers."""
        nwords = d.mem_width // 4
        idx = addrs >> _SHIFT[d.mem_width]
        if d.is_load:
            if mask is None:
                lanes = image[idx]
            else:
                lanes = np.zeros(idx.shape, dtype=image.dtype)
                lanes[mask] = image[idx[mask]]
            words = lanes.view(_U32)  # (g, 32 * nwords)
            for i in range(nwords):
                self._write_reg(d.dest + i, words[:, i::nwords], mask)
        else:
            src = d.srcs[0][1]
            if nwords == 1:
                data = self.R[src]
            else:
                data = np.empty(idx.shape + (nwords,), dtype=_U32)
                for i in range(nwords):
                    data[:, :, i] = self.R[src + i]
            lanes = data.view(image.dtype).reshape(idx.shape)
            if mask is None:
                image[idx] = lanes
            else:
                image[idx[mask]] = lanes[mask]

    def _exec_p2r(self, d, warps: np.ndarray) -> None:
        preds = {
            i: self.P[i] for i in range(7) if d.pack_mask >> i & 1
        }
        self._write_reg(d.dest, hw.p2r(preds), self._mask(d, warps))

    def _exec_r2p(self, d, warps: np.ndarray) -> None:
        mask = self._mask(d, warps)
        src = self.R[d.srcs[0][1]]
        for i in range(7):
            if d.pack_mask >> i & 1:
                self._write_pred(i, hw.r2p(src, i), mask)

    def _exec_isetp(self, d, warps: np.ndarray) -> None:
        combine = self.P[d.setp_src_idx]
        if d.setp_src_neg:
            combine = ~combine
        result = hw.isetp(
            self._fetch(d.srcs[0], warps), self._fetch(d.srcs[1], warps),
            combine, d.setp_cmp, d.setp_bool, d.setp_u32,
        )
        self._write_pred(d.setp_dest, result, self._mask(d, warps))

    def _fetch_f32(self, src, warps: np.ndarray):
        if src[0] == SRC_REG and not src[2]:
            return self.F[src[1]]
        return _f32(self._fetch(src, warps))

    def _exec_alu(self, d, warps: np.ndarray) -> None:
        mask = self._mask(d, warps)
        name = d.name
        if name in _FP32_OPS:
            x = [self._fetch_f32(s, warps) for s in d.srcs]
            if name == "FFMA":
                out = x[0] * x[1] + x[2]
            elif name == "FADD":
                out = x[0] + x[1]
            elif name == "FMUL":
                out = x[0] * x[1]
            elif name == "FMNMX":
                out = np.maximum(x[0], x[1])
            elif d.mufu_fn == "RCP":
                with np.errstate(divide="ignore"):
                    out = np.float32(1.0) / x[0]
            else:
                with np.errstate(divide="ignore", invalid="ignore"):
                    out = np.float32(1.0) / np.sqrt(x[0])
            if d.dest == 255:
                return
            if mask is None:
                self.F[d.dest] = out
            else:
                np.copyto(self.F[d.dest], out, where=mask)
            return
        srcs = [self._fetch(s, warps) for s in d.srcs]

        if d.imad_wide:
            c_src = d.srcs[2]
            if c_src[0] == SRC_REG and c_src[1] != 255:
                addend = self._pair64(c_src[1])
            else:
                addend = srcs[2]
            lo, hi = hw.imad_wide(srcs[0], srcs[1], addend, d.imad_u32)
            self._write_reg(d.dest, lo, mask)
            self._write_reg(d.dest + 1, hi, mask)
            return
        if name in hw.INT_ALU_OPCODES:
            out = hw.int_alu(name, srcs, d.lop3_op, d.shf_left)
        elif name in ("HFMA2", "HADD2", "HMUL2"):
            halves = [_f16(s, len(warps)) for s in srcs]
            if name == "HFMA2":
                res = halves[0] * halves[1] + halves[2]
            elif name == "HADD2":
                res = halves[0] + halves[1]
            else:
                res = halves[0] * halves[1]
            out = np.ascontiguousarray(res.astype(np.float16)).view(_U32)
        else:  # pragma: no cover — decode marks these unsupported
            raise SimulatorError(f"instruction {name} has no execution semantics")
        self._write_reg(d.dest, out, mask)


#: FP32 arithmetic, computed on float32 views of the register file.
_FP32_OPS = frozenset(("FFMA", "FADD", "FMUL", "FMNMX", "MUFU"))


def _f32(v):
    if isinstance(v, np.ndarray):
        return np.ascontiguousarray(v).view(np.float32)
    return np.array(v, dtype=_U32).view(np.float32)[()]


def _f16(v, g: int):
    if isinstance(v, np.ndarray):
        return np.ascontiguousarray(v).view(np.float16)
    return np.full((g, 32), v, dtype=_U32).view(np.float16)


# ---------------------------------------------------------------------------
# Trace assembly
# ---------------------------------------------------------------------------


def replay_traces(
    dp: DecodedProgram, device: DeviceSpec, gmem: GlobalMemory, blocks,
    max_cycles: int,
) -> list[list[tuple]]:
    """Replay the blocks functionally; return each warp's instance trace.

    Instances of the same static instruction share decode's tuple
    (:func:`~repro.gpusim.decode.static_instances`); only memory ops,
    whose footprint is dynamic, get per-instance copies with the
    replay-recorded values patched in.  A warp executing more
    instructions than *max_cycles* cycles could issue raises
    :class:`SimDeadlock`.
    """
    replay = _Replay(dp, device, gmem, blocks, max_cycles)
    replay.run()
    static = static_instances(dp, device)
    # Per segment, once: its static instance list, and for each memory
    # step the instance of every member warp, in member order.
    assembled: dict[_Segment, tuple[list[tuple], list[tuple[int, list]]]] = {}
    for seg in replay.segments:
        insts = [static[i] for i in seg.steps]
        patches = []
        for step, columns in seg.dyn.items():
            t = insts[step]
            head, tail = t[:3], t[8:]
            patches.append((step, [
                head + footprint + tail
                for footprint in zip(*(c.tolist() for c in columns))
            ]))
        assembled[seg] = (insts, patches)
    traces: list[list[tuple]] = []
    for w in range(replay.nw):
        trace: list[tuple] = []
        for seg, pos in replay.chains[w]:
            insts, patches = assembled[seg]
            offset = len(trace)
            trace.extend(insts)
            for step, member_insts in patches:
                trace[offset + step] = member_insts[pos]
        traces.append(trace)
    return traces
