"""Workspace arena: the offset model of one workspace shared by a network.

The paper's workspace study (Fig. 14) prices each algorithm's global
scratch allocation per *call*; a serving system running a whole layer
stack cannot afford a fresh ``cudaMalloc`` per convolution.  cuDNN's
answer is the caller-owned workspace pointer; TVM's graph runtime and
maxDNN both fold every operator's scratch into one arena sized at the
plan's high-water mark.  :class:`WorkspaceArena` models that component
for this library: a bump allocator with a free list over one growable
device workspace, so a multi-layer
:class:`~repro.runtime.session.InferenceSession` reserves each layer's
closed-form workspace (``repro.perfmodel.workspace.dispatch_workspace_bytes``)
at the offsets the previous layer just released.

The arena holds no bytes.  The NumPy executors keep their own bounded
host temporaries, and the fused kernel's one workspace (the transformed
CR'S'K filters, §4.1) lives in the context's prepared-filter cache; the
arena accounts for the device workspace a GPU run would allocate.

Counters make the reuse observable — ``reserves``, ``reuses`` (a
reservation served from previously-used bytes), ``grows``, ``peak_bytes``
— and ``limit_bytes`` enforces a workspace budget at the arena level: a
reservation that would push concurrent usage past the budget raises
:class:`~repro.common.errors.WorkspaceLimitError` instead of silently
over-allocating, turning Fig. 14's per-dispatch filter into a process
invariant.
"""

from __future__ import annotations

import dataclasses
import threading

from ..common.errors import WorkspaceError, WorkspaceLimitError
from ..perfmodel.workspace import reserved_bytes


@dataclasses.dataclass
class ArenaStats:
    """Counters for one :class:`WorkspaceArena` (snapshot via ``stats()``).

    Attributes
    ----------
    reserves: reservations granted (including zero-byte ones).
    reuses: reservations whose bytes overlap a region some earlier
        reservation already used — the multi-layer "one workspace, many
        layers" win this arena exists for.
    grows: times the modelled capacity had to be enlarged.
    releases: blocks returned to the arena.
    in_use_bytes: bytes currently reserved.
    peak_bytes: high-water mark of concurrently reserved bytes.
    capacity_bytes: current modelled workspace size.
    limit_bytes: the enforced budget (``None`` = unlimited).
    """

    reserves: int = 0
    reuses: int = 0
    grows: int = 0
    releases: int = 0
    in_use_bytes: int = 0
    peak_bytes: int = 0
    capacity_bytes: int = 0
    limit_bytes: int | None = None


class WorkspaceBlock:
    """One reservation; release it (or use it as a context manager)."""

    __slots__ = ("arena", "offset", "nbytes", "tag", "_released")

    def __init__(self, arena: "WorkspaceArena", offset: int, nbytes: int, tag: str):
        self.arena = arena
        self.offset = offset
        self.nbytes = nbytes
        self.tag = tag
        self._released = False

    @property
    def released(self) -> bool:
        return self._released

    def release(self) -> None:
        self.arena.release(self)

    def __enter__(self) -> "WorkspaceBlock":
        return self

    def __exit__(self, *exc) -> None:
        if not self._released:
            self.release()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "released" if self._released else "live"
        return (
            f"WorkspaceBlock(tag={self.tag!r}, offset={self.offset}, "
            f"nbytes={self.nbytes}, {state})"
        )


class WorkspaceArena:
    """Bump/free-list allocator over one growable workspace.

    Reservations are served first-fit from the free list (bytes earlier
    layers released), falling back to bumping the top of the workspace;
    released blocks coalesce with their free neighbours so sequential
    layer execution degenerates to the ideal case — every layer reuses
    offset 0 of a workspace sized at the network's largest.
    Thread-safe: serving dispatch threads share a tenant's arena.
    """

    def __init__(self, limit_bytes: int | None = None):
        if limit_bytes is not None and limit_bytes < 0:
            raise WorkspaceError(f"limit_bytes must be >= 0 or None, got {limit_bytes}")
        self._lock = threading.RLock()
        self._limit = limit_bytes
        self._free: list[tuple[int, int]] = []  # sorted (offset, size)
        self._top = 0  # bump pointer: everything above is untouched capacity
        self._used_high_water = 0  # bytes [0, hw) have been reserved before
        self._stats = ArenaStats(limit_bytes=limit_bytes)

    # ------------------------------------------------------------------
    # Reservation
    # ------------------------------------------------------------------
    def reserve(self, nbytes: int, tag: str = "") -> WorkspaceBlock:
        """Reserve :func:`~repro.perfmodel.workspace.reserved_bytes` of
        *nbytes* (*nbytes* rounded up to 256 B); returns a block.

        Raises :class:`WorkspaceLimitError` if the reservation would push
        concurrent usage past ``limit_bytes``.
        """
        if nbytes < 0:
            raise WorkspaceError(f"cannot reserve {nbytes} bytes")
        size = reserved_bytes(nbytes)
        with self._lock:
            if self._limit is not None and self._stats.in_use_bytes + size > self._limit:
                raise WorkspaceLimitError(
                    f"workspace reservation {tag!r} of {size} B would raise "
                    f"arena usage to {self._stats.in_use_bytes + size} B, over "
                    f"the {self._limit} B limit"
                )
            offset = self._take_free(size)
            if offset is None:
                offset = self._top
                if offset + size > self._stats.capacity_bytes:
                    self._grow(offset + size)
                self._top = offset + size
            self._stats.reserves += 1
            if size and offset < self._used_high_water:
                self._stats.reuses += 1
            self._used_high_water = max(self._used_high_water, offset + size)
            self._stats.in_use_bytes += size
            self._stats.peak_bytes = max(
                self._stats.peak_bytes, self._stats.in_use_bytes
            )
            return WorkspaceBlock(self, offset, size, tag)

    def _take_free(self, size: int) -> int | None:
        """First-fit over the free list; splits the block it takes from."""
        if size == 0:
            return self._top  # zero-byte blocks never occupy space
        for i, (offset, avail) in enumerate(self._free):
            if avail >= size:
                if avail == size:
                    del self._free[i]
                else:
                    self._free[i] = (offset + size, avail - size)
                return offset
        return None

    def _grow(self, needed: int) -> None:
        # Geometric growth amortizes repeated bumps; capacity itself is
        # not budgeted (only concurrent *usage* is), matching a high-water
        # -mark workspace that outlives any single layer.
        self._stats.capacity_bytes = max(needed, 2 * self._stats.capacity_bytes)
        self._stats.grows += 1

    def reserve_capacity(self, nbytes: int) -> None:
        """Pre-size the workspace (e.g. to a compiled plan's high-water mark).

        Does not count as a ``grow``: sizing the arena from the closed-form
        workspace plan *is* the intended use, not a fallback.
        """
        size = reserved_bytes(nbytes)
        with self._lock:
            self._stats.capacity_bytes = max(self._stats.capacity_bytes, size)

    # ------------------------------------------------------------------
    # Release
    # ------------------------------------------------------------------
    def release(self, block: WorkspaceBlock) -> None:
        with self._lock:
            if block._released:
                raise WorkspaceError(
                    f"workspace block {block.tag!r} released twice"
                )
            block._released = True
            self._stats.releases += 1
            self._stats.in_use_bytes -= block.nbytes
            if block.nbytes == 0:
                return
            self._insert_free(block.offset, block.nbytes)

    def _insert_free(self, offset: int, size: int) -> None:
        """Insert and coalesce; a free block ending at the top lowers it."""
        self._free.append((offset, size))
        self._free.sort()
        merged: list[tuple[int, int]] = []
        for off, sz in self._free:
            if merged and merged[-1][0] + merged[-1][1] == off:
                merged[-1] = (merged[-1][0], merged[-1][1] + sz)
            else:
                merged.append((off, sz))
        if merged and merged[-1][0] + merged[-1][1] == self._top:
            self._top = merged.pop()[0]
        self._free = merged

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    @property
    def limit_bytes(self) -> int | None:
        return self._limit

    def stats(self) -> ArenaStats:
        with self._lock:
            return dataclasses.replace(self._stats)

    def reset(self) -> None:
        """Drop the capacity, free list and every counter (fresh arena)."""
        with self._lock:
            self._free = []
            self._top = 0
            self._used_high_water = 0
            self._stats = ArenaStats(limit_bytes=self._limit)
