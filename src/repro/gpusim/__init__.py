"""Cycle-approximate Volta/Turing GPU simulator (the hardware substitute).

See DESIGN.md §2 for what is modelled and why it preserves the paper's
SASS-level effects (yield flag, LDG/STS spacing, bank conflicts,
register banks, occupancy).
"""

from .arch import (
    DEVICE_ALIASES,
    DEVICE_ENV_VAR,
    DEVICES,
    LATENCY_BOUNDS,
    RTX2070,
    V100,
    DeviceSpec,
    canonical_device_key,
    device_key,
    register_device,
    resolve_device,
    validate_device,
)
from .counters import Counters
from .engine import ExecResult, ExecutionContext, execute
from .launch import (
    LaunchResult,
    build_const_bank,
    run_grid,
    simulate_resident_blocks,
)
from .memory import (
    GlobalMemory,
    SharedMemory,
    SmemAccessReport,
    bank_conflict_report,
    coalesced_sectors,
)
from .profiler import ProfileReport, ProfileSection, profile_report
from .sm import BlockSpec, SMSimulator
from .warp import WarpState

__all__ = [
    "BlockSpec",
    "Counters",
    "DEVICES",
    "DEVICE_ALIASES",
    "DEVICE_ENV_VAR",
    "DeviceSpec",
    "LATENCY_BOUNDS",
    "ExecResult",
    "ExecutionContext",
    "GlobalMemory",
    "LaunchResult",
    "ProfileReport",
    "ProfileSection",
    "RTX2070",
    "SMSimulator",
    "SharedMemory",
    "SmemAccessReport",
    "V100",
    "WarpState",
    "bank_conflict_report",
    "build_const_bank",
    "canonical_device_key",
    "coalesced_sectors",
    "device_key",
    "execute",
    "profile_report",
    "register_device",
    "resolve_device",
    "run_grid",
    "simulate_resident_blocks",
    "validate_device",
]
