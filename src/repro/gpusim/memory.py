"""Simulated memory: flat global memory and banked shared memory.

Global memory is a byte-addressed image with a bump allocator.  Timing
is handled by the SM (latency + bandwidth accounting); this module
provides the functional accesses plus the **coalescing analysis**: a
warp's 32 addresses are grouped into 32-byte sectors, and the sector
count is both the DRAM traffic and the LSU occupancy of the access —
the paper's layout work (§4) is precisely about making this count
minimal (4 sectors per 128-byte warp access).

Shared memory implements the 32-bank × 4-byte structure with the
conflict rules of §4.3: 32-bit accesses follow the classic one-phase
rule with same-word broadcast; 64/128-bit accesses are serialized into
2/4 word transactions, each of which follows the 32-bit rule (see
:func:`bank_conflict_report` for how this calibrates against the
paper's Fig. 3 profiling observation).  :func:`bank_conflict_report` is
the reference engine's scalar, one-warp statement of the rule;
:func:`repro.sass.hw.bank_phases` is the vectorized one that the fast
engine and sasslint share, and tests compare the two.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..common.errors import SimMemoryFault
from ..sass.hw import BANK_BYTES, NUM_BANKS

SECTOR_BYTES = 32


class GlobalMemory:
    """Byte-addressed global memory with a bump allocator.

    Address 0 is kept unmapped so that a null pointer dereference faults
    instead of silently reading allocation #0.
    """

    def __init__(self, size: int = 64 * 1024 * 1024):
        self.size = size
        self.data = np.zeros(size, dtype=np.uint8)
        self._cursor = 256  # leave a null guard page
        self._l2_resident: list[tuple[int, int]] = []

    # ---- allocation ------------------------------------------------------
    def alloc(self, nbytes: int, align: int = 256, l2_resident: bool = False) -> int:
        """Bump-allocate.

        ``l2_resident=True`` marks the region as one whose working set
        fits the L2 cache across the launch (e.g. the transformed-filter
        workspace, re-read by every tile block — the paper's §3.3 "a
        certain level of L2 hit rate" argument).  Loads from resident
        regions are charged to L2 bandwidth, others to DRAM.
        """
        addr = (self._cursor + align - 1) // align * align
        if addr + nbytes > self.size:
            raise SimMemoryFault(
                f"global memory exhausted: need {nbytes} B at {addr:#x}"
            )
        self._cursor = addr + nbytes
        if l2_resident:
            self._l2_resident.append((addr, addr + nbytes))
        return addr

    def alloc_array(
        self, array: np.ndarray, align: int = 256, l2_resident: bool = False
    ) -> int:
        addr = self.alloc(array.nbytes, align, l2_resident=l2_resident)
        self.write_array(addr, array)
        return addr

    def is_l2_resident(self, addr: int) -> bool:
        return any(lo <= addr < hi for lo, hi in self._l2_resident)

    def resident_sector_mask(self, sectors: np.ndarray) -> np.ndarray:
        """Per-sector L2 residency (sector classified by its base address)."""
        base = sectors * SECTOR_BYTES
        resident = np.zeros(sectors.size, dtype=bool)
        for lo, hi in self._l2_resident:
            resident |= (base >= lo) & (base < hi)
        return resident

    def classify_sectors(
        self, addrs: np.ndarray, width: int, mask: np.ndarray
    ) -> tuple[int, int]:
        """(dram_sectors, l2_sectors) of one warp access, sector by sector.

        A warp whose lanes straddle the boundary of the L2-resident
        working set charges each 32-byte sector to the side it actually
        lives on, instead of classifying the whole access by one lane.
        """
        sectors = sector_ids(addrs, width, mask)
        if sectors.size == 0:
            return 0, 0
        n_l2 = int(self.resident_sector_mask(sectors).sum())
        return int(sectors.size) - n_l2, n_l2

    # ---- host-side array IO ------------------------------------------------
    def write_array(self, addr: int, array: np.ndarray) -> None:
        raw = np.ascontiguousarray(array).view(np.uint8).ravel()
        self._check(addr, raw.size)
        self.data[addr : addr + raw.size] = raw

    def read_array(self, addr: int, shape, dtype=np.float32) -> np.ndarray:
        nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
        self._check(addr, nbytes)
        return (
            self.data[addr : addr + nbytes].copy().view(dtype).reshape(shape)
        )

    # ---- warp-level access (vectorized over lanes) --------------------------
    def load_warp(self, addrs: np.ndarray, width: int, mask: np.ndarray) -> np.ndarray:
        """Load ``width`` bytes per active lane; returns (lanes, width//4) u32."""
        lanes = addrs.size
        out = np.zeros((lanes, width // 4), dtype=np.uint32)
        active = np.nonzero(mask)[0]
        if active.size:
            self._check_lanes(addrs[active], width)
            offsets = np.arange(width, dtype=np.int64)
            idx = addrs[active][:, None] + offsets[None, :]
            raw = self.data[idx]  # (n_active, width)
            out[active] = raw.view(np.uint32).reshape(active.size, width // 4)
        return out

    def store_warp(
        self, addrs: np.ndarray, values: np.ndarray, width: int, mask: np.ndarray
    ) -> None:
        """Store ``width`` bytes per active lane from (lanes, width//4) u32."""
        active = np.nonzero(mask)[0]
        if not active.size:
            return
        self._check_lanes(addrs[active], width)
        raw = values[active].astype(np.uint32).view(np.uint8).reshape(active.size, width)
        offsets = np.arange(width, dtype=np.int64)
        idx = addrs[active][:, None] + offsets[None, :]
        # np.ufunc.at not needed: CUDA leaves overlapping same-cycle stores
        # undefined; last-writer-wins matches plain fancy assignment.
        self.data[idx] = raw

    def _check(self, addr: int, nbytes: int) -> None:
        if addr < 256 or addr + nbytes > self.size:
            raise SimMemoryFault(f"global access [{addr:#x}, +{nbytes}) out of bounds")

    def _check_lanes(self, addrs: np.ndarray, width: int) -> None:
        if addrs.min() < 256 or addrs.max() + width > self.size:
            bad = addrs[(addrs < 256) | (addrs + width > self.size)][0]
            raise SimMemoryFault(f"global lane access at {int(bad):#x} out of bounds")
        if np.any(addrs % width):
            bad = int(addrs[addrs % width != 0][0])
            raise SimMemoryFault(
                f"misaligned {width}-byte global access at {bad:#x}"
            )


def check_constant_lanes(addrs: np.ndarray, width: int, size: int) -> None:
    """Fault unless each of *addrs* (one warp's active lanes) starts a
    *width*-byte constant load inside the *size*-byte bank, aligned to
    *width*."""
    if not addrs.size:
        return
    if addrs.min() < 0 or addrs.max() + width > size:
        bad = int(addrs[(addrs < 0) | (addrs + width > size)][0])
        raise SimMemoryFault(
            f"constant access at {bad:#x} outside the {size}-byte bank"
        )
    if np.any(addrs % width):
        bad = int(addrs[addrs % width != 0][0])
        raise SimMemoryFault(
            f"misaligned {width}-byte constant access at {bad:#x}"
        )


def sector_ids(addrs: np.ndarray, width: int, mask: np.ndarray) -> np.ndarray:
    """Unique 32-byte sector indices a warp access touches."""
    active = addrs[mask]
    if active.size == 0:
        return np.empty(0, dtype=np.int64)
    offsets = np.arange(0, width, SECTOR_BYTES, dtype=np.int64)
    sectors = ((active[:, None] + offsets[None, :]) // SECTOR_BYTES).ravel()
    # A lane access spanning into the next sector (unaligned) touches it too;
    # alignment is enforced, so begin/end sectors suffice.
    end_sectors = (active + width - 1) // SECTOR_BYTES
    return np.union1d(sectors, end_sectors)


def coalesced_sectors(addrs: np.ndarray, width: int, mask: np.ndarray) -> int:
    """Number of 32-byte sectors a warp access touches (its DRAM traffic)."""
    return int(sector_ids(addrs, width, mask).size)


@dataclasses.dataclass
class SmemAccessReport:
    """Timing-relevant outcome of one warp-level shared-memory access."""

    phases: int
    cycles: int  # sum over phases of the max bank multiplicity

    @property
    def conflicts(self) -> int:
        """Extra cycles lost to bank conflicts (0 = conflict-free)."""
        return self.cycles - self.phases


class SharedMemory:
    """Per-block scratchpad with bank-conflict accounting."""

    def __init__(self, size: int):
        self.size = size
        self.data = np.zeros(size, dtype=np.uint8)

    def load_warp(
        self, addrs: np.ndarray, width: int, mask: np.ndarray
    ) -> tuple[np.ndarray, SmemAccessReport]:
        lanes = addrs.size
        out = np.zeros((lanes, width // 4), dtype=np.uint32)
        active = np.nonzero(mask)[0]
        if active.size:
            self._check(addrs[active], width)
            offsets = np.arange(width, dtype=np.int64)
            idx = addrs[active][:, None] + offsets[None, :]
            out[active] = (
                self.data[idx].view(np.uint32).reshape(active.size, width // 4)
            )
        return out, bank_conflict_report(addrs, width, mask)

    def store_warp(
        self, addrs: np.ndarray, values: np.ndarray, width: int, mask: np.ndarray
    ) -> SmemAccessReport:
        active = np.nonzero(mask)[0]
        if active.size:
            self._check(addrs[active], width)
            raw = (
                values[active].astype(np.uint32).view(np.uint8).reshape(active.size, width)
            )
            offsets = np.arange(width, dtype=np.int64)
            idx = addrs[active][:, None] + offsets[None, :]
            self.data[idx] = raw
        return bank_conflict_report(addrs, width, mask)

    def read_array(self, addr: int, shape, dtype=np.float32) -> np.ndarray:
        nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
        return self.data[addr : addr + nbytes].copy().view(dtype).reshape(shape)

    def write_array(self, addr: int, array: np.ndarray) -> None:
        raw = np.ascontiguousarray(array).view(np.uint8).ravel()
        self.data[addr : addr + raw.size] = raw

    def _check(self, addrs: np.ndarray, width: int) -> None:
        if addrs.min() < 0 or addrs.max() + width > self.size:
            bad = int(addrs[(addrs < 0) | (addrs + width > self.size)][0])
            raise SimMemoryFault(
                f"shared access at {bad:#x} outside the {self.size}-byte block"
            )
        if np.any(addrs % width):
            bad = int(addrs[addrs % width != 0][0])
            raise SimMemoryFault(f"misaligned {width}-byte shared access at {bad:#x}")


def bank_conflict_report(
    addrs: np.ndarray, width: int, mask: np.ndarray
) -> SmemAccessReport:
    """Phase count and serialized cycles for one warp shared-memory access.

    Model: a ``width``-byte access is served in ``width/4`` phases of
    ``128/width × 4`` consecutive lanes (8 lanes per phase for LDS.128),
    each phase moving 128 bytes.  Within a phase the classic 32-bit rule
    applies to all the words the phase's lanes touch: same-word accesses
    broadcast, distinct words in the same bank serialize.

    Calibration against §4.3's profiling observations: the Fig. 3 lane
    arrangement (with its 8-fold duplicated input segments) is
    conflict-free; a fully sequential 512-byte warp access is
    conflict-free; but layouts whose lanes straddle shared-memory rows a
    multiple of 128 bytes apart serialize — "other patterns do lead to
    bank conflict" despite the CUDA manual's broadcast paragraph.
    """
    phases = width // BANK_BYTES
    lanes_per_phase = 32 // phases
    if not mask.any():
        return SmemAccessReport(phases=phases, cycles=phases)
    cycles = 0
    words_per_lane = width // BANK_BYTES
    lane_ids = np.arange(addrs.size)
    offsets = np.arange(words_per_lane, dtype=np.int64)
    for p in range(phases):
        sel = (lane_ids // lanes_per_phase == p) & mask
        if not sel.any():
            cycles += 1  # the phase slot is still consumed
            continue
        words = np.unique(
            (addrs[sel][:, None] // BANK_BYTES + offsets[None, :]).ravel()
        )
        banks = words % NUM_BANKS
        multiplicity = int(np.bincount(banks, minlength=NUM_BANKS).max())
        cycles += max(multiplicity, 1)
    return SmemAccessReport(phases=phases, cycles=cycles)
