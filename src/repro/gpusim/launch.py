"""Kernel launch API — the simulator's stand-in for the CUDA driver.

Typical flow::

    gmem = GlobalMemory()
    in_ptr = gmem.alloc_array(x)
    out_ptr = gmem.alloc(out_bytes)
    kernel = assemble(src, ...)            # or read_cubin(blob)
    result = run_grid(kernel, V100, grid=blocks, threads_per_block=256,
                      params={"in_ptr": in_ptr, "out_ptr": out_ptr}, gmem=gmem)
    y = gmem.read_array(out_ptr, shape)

``run_grid`` executes every block (functional correctness);
``simulate_resident_blocks`` runs only one SM's worth of concurrent
blocks for timing studies, and :meth:`DeviceSpec.waves` extrapolates a
full launch from that measurement the way one extrapolates from a
single-SM microbenchmark on real hardware.

Both accept an :class:`~repro.sass.assembler.AssembledKernel` or a
:class:`~repro.sass.cubin.LoadedCubin`.  The fused Winograd kernels
reach ``simulate_resident_blocks`` through one function,
:mod:`repro.kernels.runner`'s cached and lint-gated simulate path.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..common.errors import SimLaunchError
from ..sass.assembler import AssembledKernel
from ..sass.cubin import LoadedCubin
from ..sass.preprocess import KernelMeta
from .arch import DeviceSpec
from .counters import Counters
from .memory import GlobalMemory
from .sm import BlockSpec, SMSimulator

CONST_BANK_BYTES = 4096


def _kernel_parts(kernel) -> tuple[KernelMeta, list]:
    """The (meta, instruction list) of an assembled or loaded kernel."""
    if isinstance(kernel, AssembledKernel):
        return kernel.meta, kernel.instructions
    if isinstance(kernel, LoadedCubin):
        return kernel.meta, kernel.instructions()
    raise SimLaunchError(f"cannot launch object of type {type(kernel).__name__}")


def _launch_span(label: str, **attrs):
    """A ``"launch"`` trace span on the active execution context.

    Imported lazily so ``repro.gpusim`` keeps no runtime state of its
    own — the tracer (like the caches and the lint gate) lives on
    :class:`repro.runtime.ExecutionContext`.
    """
    from ..runtime import current_context

    return current_context().span("launch", label, **attrs)


def build_const_bank(meta: KernelMeta, params: dict[str, int]) -> np.ndarray:
    """Materialize constant bank 0 with the kernel parameters."""
    bank = np.zeros(CONST_BANK_BYTES, dtype=np.uint8)
    declared = {name for name, _, _ in meta.params}
    unknown = set(params) - declared
    if unknown:
        raise SimLaunchError(
            f"parameters {sorted(unknown)} not declared by kernel "
            f"{meta.name!r} (declared: {sorted(declared)})"
        )
    for name, offset, size in meta.params:
        value = params.get(name, 0)
        bank[offset : offset + size] = np.frombuffer(
            int(value).to_bytes(size, "little", signed=value < 0), dtype=np.uint8
        )
    return bank


@dataclasses.dataclass
class LaunchResult:
    counters: Counters
    groups: int  # number of sequential SM rounds simulated
    occupancy: int

    def to_payload(self) -> dict:
        """Plain-JSON form (for the simulation-result cache)."""
        return {
            "counters": dataclasses.asdict(self.counters),
            "groups": self.groups,
            "occupancy": self.occupancy,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "LaunchResult":
        return cls(
            counters=Counters(**payload["counters"]),
            groups=payload["groups"],
            occupancy=payload["occupancy"],
        )


def run_grid(
    kernel,
    device: DeviceSpec,
    grid: int | tuple[int, ...],
    threads_per_block: int,
    params: dict[str, int],
    gmem: GlobalMemory,
    concurrent: int | None = None,
) -> LaunchResult:
    """Execute every block of the launch (functional + timing).

    ``grid`` may be an int (1-D) or an (x, y[, z]) tuple.  Blocks are
    simulated in rounds of ``concurrent`` (defaults to the occupancy
    limit), mimicking one SM draining the whole grid.  Multi-SM device
    time comes from a :func:`simulate_resident_blocks` run scaled by
    :meth:`DeviceSpec.waves`, as the layer model does.
    """
    meta, program = _kernel_parts(kernel)
    if threads_per_block % 32:
        raise SimLaunchError("threads_per_block must be a multiple of 32")
    occupancy = device.occupancy(threads_per_block, meta.registers, meta.smem_bytes)
    if occupancy == 0:
        raise SimLaunchError(
            f"kernel {meta.name!r} cannot be resident on {device.name}: "
            f"{meta.registers} regs, {meta.smem_bytes} B smem"
        )
    if isinstance(grid, int):
        grid = (grid,)
    gx = grid[0]
    gy = grid[1] if len(grid) > 1 else 1
    gz = grid[2] if len(grid) > 2 else 1
    all_blocks = [
        (x, y, z) for z in range(gz) for y in range(gy) for x in range(gx)
    ]
    concurrent = concurrent or occupancy
    const = build_const_bank(meta, params)
    total = Counters()
    warps = threads_per_block // 32
    groups = 0
    cycles = 0
    with _launch_span(
        meta.name, device=device.name, blocks=len(all_blocks),
        mode="run_grid",
    ):
        for g0 in range(0, len(all_blocks), concurrent):
            specs = [
                BlockSpec(block_idx=x, num_warps=warps, const_bank=const,
                          smem_bytes=meta.smem_bytes, block_idx_y=y, block_idx_z=z)
                for (x, y, z) in all_blocks[g0 : g0 + concurrent]
            ]
            sim = SMSimulator(device, program, gmem)
            counters = sim.run(specs)
            cycles += counters.cycles
            counters.cycles = 0
            total.merge(counters)
            groups += 1
    total.cycles = cycles
    return LaunchResult(counters=total, groups=groups, occupancy=occupancy)


def simulate_resident_blocks(
    kernel,
    device: DeviceSpec,
    params: dict[str, int],
    gmem: GlobalMemory,
    threads_per_block: int,
    num_blocks: int | None = None,
) -> LaunchResult:
    """Run one SM's worth of concurrently-resident blocks (timing study)."""
    meta, program = _kernel_parts(kernel)
    occupancy = device.occupancy(threads_per_block, meta.registers, meta.smem_bytes)
    if occupancy == 0:
        raise SimLaunchError(f"kernel {meta.name!r} not resident on {device.name}")
    num_blocks = num_blocks or occupancy
    const = build_const_bank(meta, params)
    warps = threads_per_block // 32
    specs = [
        BlockSpec(block_idx=i, num_warps=warps, const_bank=const,
                  smem_bytes=meta.smem_bytes)
        for i in range(num_blocks)
    ]
    with _launch_span(
        meta.name, device=device.name, blocks=num_blocks,
        mode="resident_blocks",
    ):
        sim = SMSimulator(device, program, gmem)
        counters = sim.run(specs)
    return LaunchResult(counters=counters, groups=1, occupancy=occupancy)
