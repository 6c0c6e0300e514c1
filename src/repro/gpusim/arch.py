"""Device specifications for the simulated GPUs.

The two devices of the paper's evaluation:

* **Tesla V100** (Volta, GV100): 80 SMs, 64 FP32 lanes/SM, 1.53 GHz →
  15.7 TFLOPS peak FP32 (the number printed on Fig. 2), 900 GB/s HBM2,
  up to 96 KB shared memory per SM.
* **GeForce RTX 2070** (Turing, TU106): 36 SMs, 64 FP32 lanes/SM,
  1.62 GHz boost → ≈7.5 TFLOPS, 448 GB/s GDDR6, 64 KB shared memory per
  SM (the Turing limit that halves occupancy vs V100 for 48 KB blocks,
  §7.1).

Both architectures share the SM front end this simulator models: 4 warp
schedulers per SM, one instruction issued per scheduler per cycle, a
16-lane FP32 pipe per scheduler partition (a 32-thread warp instruction
occupies it for 2 cycles), two 64-bit register banks, 6 scoreboard
barriers and up to 255 registers per thread.
"""

from __future__ import annotations

import dataclasses
import math
import os

from ..common.errors import DeviceError, SimLaunchError
from ..sass.hw import PER_BLOCK_LIMITS, TURING_LIMITS, VOLTA_LIMITS, blocks_per_sm


@dataclasses.dataclass(frozen=True)
class DeviceSpec:
    name: str
    arch: str  # "volta" | "turing"
    num_sms: int
    clock_ghz: float
    fp32_lanes_per_sm: int = 64
    schedulers_per_sm: int = 4
    # Per-SM limits (§7.1): Volta's unless given, as repro.sass.hw states them.
    max_warps_per_sm: int = VOLTA_LIMITS.max_warps_per_sm
    max_threads_per_block: int = VOLTA_LIMITS.max_threads_per_block
    registers_per_sm: int = VOLTA_LIMITS.registers_per_sm
    max_registers_per_thread: int = VOLTA_LIMITS.max_registers_per_thread
    smem_per_sm: int = VOLTA_LIMITS.smem_per_sm
    smem_per_block: int = VOLTA_LIMITS.smem_per_block
    dram_gbps: float = 900.0
    l2_bytes: int = 6 * 1024 * 1024
    l2_gbps: float = 2500.0  # Fig. 2's L2 roofline
    # LSU queue: warp-level global accesses that may be in flight per SM
    # before further LDG/STG issue stalls (the §6.2 "overwhelm the
    # load/store unit" mechanism behind the LDG-interleave study).
    lsu_queue_depth: int = 64
    # Latencies (cycles), after Jia et al. [5] / Mei & Chu [13].
    lat_gmem_l2_hit: int = 193
    lat_gmem_l2_miss: int = 375
    lat_smem: int = 19
    lat_s2r: int = 12
    lat_mufu: int = 17

    @property
    def peak_fp32_tflops(self) -> float:
        """2 flops × lanes × SMs × clock."""
        return 2 * self.fp32_lanes_per_sm * self.num_sms * self.clock_ghz / 1e3

    @property
    def dram_bytes_per_cycle_per_sm(self) -> float:
        """Fair-share DRAM bandwidth per SM, in bytes per SM clock."""
        return self.dram_gbps / self.clock_ghz / self.num_sms

    # ------------------------------------------------------------------
    def occupancy(
        self, threads_per_block: int, registers_per_thread: int, smem_bytes: int
    ) -> int:
        """Concurrent thread blocks per SM (the §7.1 occupancy argument).

        :func:`repro.sass.hw.blocks_per_sm` on this device's limits, the
        rule sasslint's OCC002 reports; a block that breaks a per-block
        limit raises :class:`SimLaunchError` instead of returning 0.
        """
        blocks, limiter = blocks_per_sm(
            self, math.ceil(threads_per_block / 32), registers_per_thread,
            smem_bytes,
        )
        if limiter in PER_BLOCK_LIMITS:
            raise SimLaunchError(
                f"a block of {threads_per_block} threads, "
                f"{registers_per_thread} registers/thread and {smem_bytes} B "
                f"shared memory breaks the {limiter} on {self.name}"
            )
        return blocks

    def waves(self, blocks: int, blocks_per_sm: int = 1) -> int:
        """Sequential rounds a *blocks*-block launch takes on this device.

        ``⌈blocks / (SMs · blocks_per_sm)⌉``: the single-SM extrapolation
        behind every whole-launch estimate; a partial last round is the
        tail wave that dilutes small grids' utilization (§7.2).
        """
        return math.ceil(blocks / (self.num_sms * blocks_per_sm))

    def to_dict(self) -> dict:
        """Every simulator-visible constant, for baseline fingerprints.

        The perf-regression gate embeds this export in each checked-in
        baseline so that editing a device constant (an SM count, a
        latency) invalidates the baseline loudly instead of silently
        comparing cycles produced by two different machines.
        """
        payload = dataclasses.asdict(self)
        payload["peak_fp32_tflops"] = round(self.peak_fp32_tflops, 3)
        return payload


V100 = DeviceSpec(
    name="Tesla V100",
    arch="volta",
    num_sms=80,
    clock_ghz=1.53,
    **VOLTA_LIMITS.fields(),
    dram_gbps=900.0,
    l2_bytes=6 * 1024 * 1024,
)

RTX2070 = DeviceSpec(
    name="GeForce RTX 2070",
    arch="turing",
    num_sms=36,
    clock_ghz=1.62,
    **TURING_LIMITS.fields(),
    dram_gbps=448.0,
    l2_bytes=4 * 1024 * 1024,
    l2_gbps=1200.0,
    lat_gmem_l2_hit=188,
    lat_gmem_l2_miss=296,
)

DEVICES = {"V100": V100, "RTX2070": RTX2070}

#: Informal names accepted by :func:`resolve_device` beside registry
#: keys and full spec names (all matched case-insensitively).
DEVICE_ALIASES = {
    "volta": "V100",
    "gv100": "V100",
    "tesla v100": "V100",
    "turing": "RTX2070",
    "tu106": "RTX2070",
    "2070": "RTX2070",
    "geforce rtx 2070": "RTX2070",
}

#: Environment variable consulted by :func:`resolve_device` when no
#: device is given — the fleet knob CI's device matrix sets per job.
DEVICE_ENV_VAR = "REPRO_DEVICE"

#: Latency windows (cycles) the registry enforces per architecture,
#: after the microbenchmarking literature: Volta from the Citadel study
#: (Jia et al., "Dissecting the NVIDIA Volta GPU Architecture via
#: Microbenchmarking" — shared ≈19, L2 ≈193, DRAM ≈375 cycles) and
#: Turing from its follow-up (L2 ≈188, DRAM ≈296) plus Mei & Chu.  A
#: spec whose latencies drift outside these windows would make every
#: simulated cycle count — and every checked-in baseline — quietly
#: wrong, so registration fails instead.
LATENCY_BOUNDS = {
    "volta": {
        "lat_gmem_l2_hit": (180, 220),
        "lat_gmem_l2_miss": (350, 450),
        "lat_smem": (19, 28),
        "lat_s2r": (6, 20),
        "lat_mufu": (10, 30),
    },
    "turing": {
        "lat_gmem_l2_hit": (160, 215),
        "lat_gmem_l2_miss": (280, 440),
        "lat_smem": (19, 30),
        "lat_s2r": (6, 20),
        "lat_mufu": (10, 30),
    },
}


def validate_device(spec: DeviceSpec) -> None:
    """Sanity-check *spec* before it can enter the registry.

    Raises :class:`~repro.common.errors.DeviceError` on a non-positive
    structural constant or a latency outside the architecture's
    microbenchmarked window (:data:`LATENCY_BOUNDS`).  Architectures
    without a published window (a future arch string) skip the latency
    check but still validate structure.
    """
    for field in ("num_sms", "clock_ghz", "fp32_lanes_per_sm",
                  "schedulers_per_sm", "max_warps_per_sm",
                  "max_threads_per_block", "registers_per_sm",
                  "smem_per_sm", "smem_per_block", "dram_gbps",
                  "l2_bytes", "lsu_queue_depth"):
        value = getattr(spec, field)
        if value <= 0:
            raise DeviceError(
                f"device {spec.name!r}: {field} must be positive, got {value}"
            )
    if spec.smem_per_block > spec.smem_per_sm:
        raise DeviceError(
            f"device {spec.name!r}: smem_per_block ({spec.smem_per_block}) "
            f"exceeds smem_per_sm ({spec.smem_per_sm})"
        )
    bounds = LATENCY_BOUNDS.get(spec.arch)
    if bounds is None:
        return
    for field, (lo, hi) in bounds.items():
        value = getattr(spec, field)
        if not lo <= value <= hi:
            raise DeviceError(
                f"device {spec.name!r}: {field}={value} outside the "
                f"microbenchmarked {spec.arch} window [{lo}, {hi}] "
                "(see gpusim.arch.LATENCY_BOUNDS)"
            )


def register_device(key: str, spec: DeviceSpec) -> DeviceSpec:
    """Add *spec* to the registry under *key* (validated first).

    Re-registering an existing key with a different spec raises — a
    silently replaced device would invalidate every baseline keyed on
    that name.
    """
    if not key:
        raise DeviceError("device registry key must be non-empty")
    validate_device(spec)
    existing = DEVICES.get(key)
    if existing is not None and existing != spec:
        raise DeviceError(
            f"device key {key!r} is already registered with a different "
            "spec; pick a new key instead of redefining an existing device"
        )
    DEVICES[key] = spec
    return spec


def device_key(spec: DeviceSpec) -> str | None:
    """The registry key of *spec* (``None`` for unregistered specs)."""
    for key, known in DEVICES.items():
        if known == spec:
            return key
    return None


def canonical_device_key(name: str) -> str:
    """Resolve any accepted device name to its registry key.

    Accepts registry keys (any case), full spec names ("Tesla V100")
    and :data:`DEVICE_ALIASES` ("volta", "turing", ...).  Raises
    :class:`~repro.common.errors.DeviceError` naming the known devices
    otherwise.
    """
    for key in DEVICES:
        if key.lower() == name.lower():
            return key
    for key, spec in DEVICES.items():
        if spec.name.lower() == name.lower():
            return key
    alias = DEVICE_ALIASES.get(name.lower())
    if alias is not None and alias in DEVICES:
        return alias
    raise DeviceError(
        f"unknown device {name!r}; known devices: {sorted(DEVICES)} "
        f"(aliases: {sorted(DEVICE_ALIASES)})"
    )


def resolve_device(device: DeviceSpec | str | None = None) -> DeviceSpec:
    """The :class:`DeviceSpec` for *device*, however it was named.

    * a :class:`DeviceSpec` passes through unchanged;
    * a string resolves via :func:`canonical_device_key`;
    * ``None`` consults the ``REPRO_DEVICE`` environment variable, and
      falls back to V100 (the historical default) when unset.
    """
    if isinstance(device, DeviceSpec):
        return device
    if device is None:
        env = os.environ.get(DEVICE_ENV_VAR)
        if not env:
            return V100
        device = env
    if not isinstance(device, str):
        raise DeviceError(
            f"device must be a DeviceSpec, a name, or None; got {device!r}"
        )
    return DEVICES[canonical_device_key(device)]
