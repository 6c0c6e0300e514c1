"""Build-once/run-many caching for the simulation pipeline.

Every Fig. 7-13 experiment used to re-parse, re-schedule and re-assemble
the same SASS kernels from scratch — once for the long differential run,
once for the short one, and again for every repeated sweep.  This module
gives the hot path the same build-once/run-many structure that maxDNN
and the Volta tensor-core generators use for their compiled kernels:

* the kernel-build cache — the context's ``kernel_cache``, an LRU of
  assembled kernels keyed by :class:`BuildKey` ``(ConvProblem,
  Tunables, main_loop_only, iters, tile)``.  A hit returns the exact
  :class:`~repro.sass.assembler.AssembledKernel` object that the first
  build produced (the simulator never mutates instructions, so sharing
  is safe), which means the long/short differential runs and repeated
  bench sweeps assemble each kernel exactly once per process.

* :class:`SimulationCache` — a memo for *deterministic* simulation
  results (``LaunchResult`` payloads).  The simulator is a pure
  function of (kernel, device, buffer layout), so a measurement keyed
  by its full input signature **and** a fingerprint of the generator +
  simulator source files can be replayed bit-identically.  The memory
  tier is always available; a disk tier activates when
  ``REPRO_SIM_CACHE_DIR`` points somewhere (the benchmark suite sets it
  to ``benchmarks/.simcache``), making repeated sweeps nearly free.

Both caches are owned by an :class:`repro.runtime.ExecutionContext`
(one pair per context; the module-level helpers operate on the active
context, which is the process-wide default unless one is activated),
and both keep their entries in a :class:`repro.common.cache.LRUCache`.
``get_kernel_cache_stats`` / ``get_sim_cache_stats`` read their
counters; ``REPRO_SIM_CACHE=0`` switches the simulation cache off.

See ``docs/simulation_performance.md`` for keys, invalidation and the
determinism guarantees.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
import threading

from ..common.cache import CacheStats, LRUCache
from ..common.problem import ConvProblem
from ..sass.assembler import AssembledKernel
from ..sass.encoder import INSTRUCTION_BYTES, encode_instruction
from ..sass.operands import Imm
from ..winograd.tilespec import get_tile
from .winograd_fused import Tunables, default_tunables, kernel_for_tile

_SCHEMA_VERSION = 1  # bump to invalidate every persisted payload

# ---------------------------------------------------------------------------
# Source fingerprint: any edit to the generator / assembler / simulator
# invalidates persisted simulation results automatically.
# ---------------------------------------------------------------------------
_FINGERPRINT_DIRS = ("gpusim", "sass")
_FINGERPRINT_FILES = (
    "common/problem.py",
    "kernels/cache.py",
    "kernels/runner.py",
    "kernels/schedules.py",
    "kernels/winograd_fused.py",
    "perfmodel/layer_model.py",
)

_fingerprint_lock = threading.Lock()
_fingerprint: str | None = None


def code_fingerprint() -> str:
    """SHA-256 over the source files that determine simulation results."""
    global _fingerprint
    with _fingerprint_lock:
        if _fingerprint is not None:
            return _fingerprint
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        paths = []
        for sub in _FINGERPRINT_DIRS:
            base = os.path.join(root, sub)
            for name in sorted(os.listdir(base)):
                if name.endswith(".py"):
                    paths.append(os.path.join(base, name))
        paths.extend(os.path.join(root, rel) for rel in _FINGERPRINT_FILES)
        digest = hashlib.sha256()
        digest.update(str(_SCHEMA_VERSION).encode())
        for path in paths:
            digest.update(path.rsplit(os.sep + "repro" + os.sep, 1)[-1].encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
        _fingerprint = digest.hexdigest()
        return _fingerprint


def _env_enabled(name: str) -> bool:
    return os.environ.get(name, "1").lower() not in ("0", "false", "off", "no")


# ---------------------------------------------------------------------------
# Kernel build cache
# ---------------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class BuildKey:
    """Identity of one generated-and-assembled kernel.

    Everything the generator reads and nothing else: the emitted SASS
    does not depend on the device, so builds for different devices
    (or different names of one device) share one entry.
    """

    prob: ConvProblem
    tunables: Tunables
    main_loop_only: bool = False
    iters: int | None = None
    tile: str = "f22"


def _family_member(cache: LRUCache, key: BuildKey):
    """A cached ``(iters, kernel)`` differing from *key* only in ``iters``.

    The most recently used such sibling with a concrete ``iters``, from
    which :func:`_reiterate_kernel` derives *key*'s build; ``None`` when
    none is cached.
    """
    for k, kernel in reversed(cache.items()):
        if (
            k.iters is not None
            and k.iters != key.iters
            and dataclasses.replace(k, iters=key.iters) == key
        ):
            return k.iters, kernel
    return None


def _ctx(context=None):
    """The explicit context if given, else the active/default one."""
    if context is not None:
        return context
    from ..runtime import current_context

    return current_context()


def _reiterate_kernel(
    kernel: AssembledKernel, iter_reg: int, old_iters: int, new_iters: int
) -> AssembledKernel | None:
    """Derive an ``iters=new_iters`` build from an assembled sibling.

    Builds of one (problem, tunables, build mode, tile) family differ
    in exactly one instruction: the ``MOV R_iter, <imm>`` trip-count
    override emitted after the prologue.  Cloning the sibling with that
    immediate swapped and the one 16-byte word re-encoded in place is
    bit-identical to a fresh assembler pass (the hazard pass keys on
    registers, never immediate values) at none of the cost.  Returns
    ``None`` if the override cannot be located (caller falls back to a
    full build).
    """
    idx = None
    for pos, instr in enumerate(kernel.instructions):
        if (
            instr.name == "MOV"
            and not instr.flags
            and instr.dest is not None
            and instr.dest.index == iter_reg
            and len(instr.srcs) == 1
            and isinstance(instr.srcs[0], Imm)
            and instr.srcs[0].value == old_iters
        ):
            idx = pos  # keep the last match: the post-prologue override
    if idx is None:
        return None
    old = kernel.instructions[idx]
    patched = dataclasses.replace(
        old,
        srcs=(Imm(new_iters),),
        control=dataclasses.replace(old.control),
    )
    instructions = list(kernel.instructions)
    instructions[idx] = patched
    text = bytearray(kernel.text)
    word = encode_instruction(patched)
    text[idx * INSTRUCTION_BYTES : (idx + 1) * INSTRUCTION_BYTES] = (
        word.to_bytes(INSTRUCTION_BYTES, "little")
    )
    derived = AssembledKernel(
        meta=kernel.meta,
        instructions=instructions,
        labels=kernel.labels,
        text=bytes(text),
    )
    # Seed the simulator's decode cache from the sibling's decode too:
    # everything but the patched immediate carries over.
    from ..gpusim.decode import derive_decode

    derive_decode(kernel.instructions, instructions, idx)
    return derived


def build_fused_kernel(
    prob: ConvProblem,
    tunables: Tunables | None,
    device_name: str,
    main_loop_only: bool = False,
    iters: int | None = None,
    *,
    tile: str | None = None,
    context=None,
):
    """Assemble (or fetch) the fused Winograd kernel for one problem.

    The single entry point the runner, layer model and benchmarks use.
    *tile* selects the kernel family (``"f22"`` default, ``"f44"`` for
    the F(4x4,3x3) generator); tunables default per family via
    :func:`~repro.kernels.winograd_fused.default_tunables`.  The build
    cache is the ``kernel_cache`` of the
    :class:`~repro.runtime.ExecutionContext` (*context*, default: the
    current one).  Every actual assembler pass records a ``"build"``
    trace span, which *device_name* only labels: the generated kernel is
    the same for every device, so the cache key leaves it out.  When a
    sibling differing only in ``iters`` is already cached, the kernel is
    derived from it by patching the trip-count immediate instead of
    assembling from scratch (see :func:`_reiterate_kernel`).
    """
    ctx = _ctx(context)
    spec = get_tile(tile)
    tunables = tunables or default_tunables(spec)

    key = BuildKey(prob, tunables, main_loop_only, iters, spec.name)

    def _build():
        if iters is not None:
            found = _family_member(ctx.kernel_cache, key)
            if found is not None:
                sib_iters, sib = found
                iter_reg = kernel_for_tile(prob, spec, tunables).ITER
                derived = _reiterate_kernel(sib, iter_reg, sib_iters, iters)
                if derived is not None:
                    return derived
        with ctx.span(
            "build", prob.label(), device=device_name,
            main_loop_only=main_loop_only, tile=spec.name,
        ):
            return kernel_for_tile(prob, spec, tunables).build(
                main_loop_only, iters
            )

    return ctx.kernel_cache.get_or_build(key, _build)


def get_kernel_cache_stats(context=None) -> CacheStats:
    """Snapshot of the build-cache counters (independent of the live object)."""
    return _ctx(context).kernel_cache.stats()


# ---------------------------------------------------------------------------
# Simulation-result cache
# ---------------------------------------------------------------------------
@dataclasses.dataclass
class SimCacheStats:
    """Counters for :class:`SimulationCache`."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    size: int = 0

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class SimulationCache:
    """Two-tier (memory + optional disk) memo for simulation payloads.

    Values are plain JSON dicts; keys are produced by
    :func:`sim_cache_key`, which folds in :func:`code_fingerprint` so a
    change to any generator/simulator source file invalidates every
    previously persisted result.  The memory tier is an
    :class:`~repro.common.cache.LRUCache` (:attr:`memory`); this class
    adds the disk tier and counts its hits and the stores.
    """

    def __init__(self, max_entries: int):
        self.memory: LRUCache[dict] = LRUCache(max_entries)
        self._lock = threading.Lock()
        self._disk_hits = 0
        self._misses = 0
        self._stores = 0

    # -- disk tier -----------------------------------------------------
    @staticmethod
    def _disk_dir() -> str | None:
        if not _env_enabled("REPRO_SIM_CACHE"):
            return None
        return os.environ.get("REPRO_SIM_CACHE_DIR") or None

    def _disk_path(self, key: str) -> str | None:
        base = self._disk_dir()
        if base is None:
            return None
        return os.path.join(base, key[:2], f"{key}.json")

    def _disk_read(self, key: str):
        path = self._disk_path(key)
        if path is None:
            return None
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, ValueError):
            return None  # missing or corrupt → plain miss

    def _disk_write(self, key: str, value: dict) -> None:
        path = self._disk_path(key)
        if path is None:
            return
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(value, fh)
            os.replace(tmp, path)  # atomic: safe under parallel workers
        except OSError:
            pass  # persistence is best-effort; the memory tier still hit

    # -- public API ----------------------------------------------------
    def get(self, key: str):
        if not _env_enabled("REPRO_SIM_CACHE"):
            return None
        value = self.memory.get(key)
        if value is None:
            value = self._disk_read(key)
            with self._lock:
                if value is None:
                    self._misses += 1
                else:
                    self._disk_hits += 1
            if value is not None:
                self.memory.put(key, value)
        return value

    def put(self, key: str, value: dict) -> None:
        if not _env_enabled("REPRO_SIM_CACHE"):
            return
        with self._lock:
            self._stores += 1
        self.memory.put(key, value)
        self._disk_write(key, value)

    def clear(self) -> None:
        """Drop the memory tier and zero every counter (the disk stays)."""
        self.memory.clear()
        with self._lock:
            self._disk_hits = self._misses = self._stores = 0

    def stats(self) -> SimCacheStats:
        memory = self.memory.stats()
        with self._lock:
            return SimCacheStats(
                memory_hits=memory.hits,
                disk_hits=self._disk_hits,
                misses=self._misses,
                stores=self._stores,
                evictions=memory.evictions,
                size=memory.size,
            )


def sim_cache_key(site: str, **params) -> str:
    """Stable key for one simulation call site and its full input signature.

    ``params`` must be JSON-serializable; dataclasses (``ConvProblem``,
    ``Tunables``, ``DeviceSpec``) are flattened to their compared fields,
    so every field that takes part in their equality takes part in the
    identity — and a ``ConvProblem``'s display name does not.
    """
    def normalize(value):
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            return {
                field.name: getattr(value, field.name)
                for field in dataclasses.fields(value)
                if field.compare
            }
        return value

    payload = {name: normalize(value) for name, value in params.items()}
    blob = json.dumps(
        {"site": site, "params": payload, "fingerprint": code_fingerprint()},
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def get_sim_cache_stats(context=None) -> SimCacheStats:
    return _ctx(context).sim_cache.stats()
