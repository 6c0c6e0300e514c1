"""High-level helpers to run generated SASS kernels on the simulator.

``run_fused_sass_conv`` is the end-to-end path the integration tests and
examples use: host-side filter transform (the FTF kernel is separate in
the paper too), device buffers in the kernel's layouts, a full-grid
simulation, and the output back as NCHW.

``measure_main_loop`` is the microbenchmark path behind Figures 7-9:
it builds the main-loop-only kernel for a layer, runs one SM's worth of
resident blocks for a few iterations, and reports the achieved
main-loop TFLOPS extrapolated to the whole device.

``_simulate_fused_kernel`` is the one place a fused kernel, main-loop
or full, becomes a simulated ``LaunchResult``: build, lint gate, the
context's per-problem memory image, ``simulate_resident_blocks``, then
the simulation cache.  ``measure_main_loop`` (and through it the schedule
search) and the layer model's overhead measurement both go through it.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..common.errors import ConvConfigError, LintError
from ..common.layouts import kcrs_to_crsk, khwn_to_nkhw, nchw_to_chwn
from ..common.problem import ConvProblem
from ..gpusim.arch import DeviceSpec
from ..gpusim.counters import Counters
from ..gpusim.launch import LaunchResult, run_grid, simulate_resident_blocks
from ..gpusim.memory import GlobalMemory
from ..sass.analysis import errors as lint_errors
from ..sass.analysis import lint_kernel
from ..sass.assembler import AssembledKernel
from ..winograd.fused import FusedWinogradConv
from ..winograd.tilespec import get_tile
from .cache import build_fused_kernel, sim_cache_key
from .winograd_fused import BC, Tunables, default_tunables, kernel_for_tile


def _ctx(context=None):
    if context is not None:
        return context
    from ..runtime import current_context

    return current_context()


def ensure_lint_clean(kernel: AssembledKernel, context=None, family=None) -> None:
    """Launch gate: raise :class:`LintError` if *kernel* has lint errors.

    Warnings (bank conflicts, wasted ``.reuse`` flags) are allowed
    through — ablation kernels produce them on purpose — but a kernel
    with a data hazard, a misaligned/out-of-bounds shared access or a
    blown register budget would silently compute garbage on hardware,
    so it must not run here either.  The context's ``lint_gate`` keeps
    the kernels (by name + text-section hash) already proven clean, so
    repeated launches of a cached build skip the ~0.4 s analysis.

    *family* (hashable, optional) names a group of kernels known to
    share one lint verdict (see :func:`lint_family_key`): once one
    member lints clean the whole family does — e.g. the differential
    ``iters``/``iters − 2`` measurement pair pays for a single analysis.
    """
    gate = _ctx(context).lint_gate
    fam_key = ("family", family) if family is not None else None

    def lint() -> bool:
        if fam_key is not None and gate.get(fam_key):
            return True
        found = lint_errors(lint_kernel(kernel))
        if found:
            report = "\n".join(d.text() for d in found)
            raise LintError(
                f"kernel {kernel.meta.name!r} failed static analysis with "
                f"{len(found)} error(s):\n{report}",
                diagnostics=found,
            )
        if fam_key is not None:
            gate.put(fam_key, True)
        return True

    gate.get_or_build((kernel.meta.name, hash(kernel.text)), lint)


def lint_family_key(prob, tunables, main_loop_only=True, tile=None):
    """Family key for :func:`ensure_lint_clean`: everything but ``iters``.

    Builds of the same (problem, tile family, tunables, build mode)
    differ only in how many times the identical bc-iteration body runs,
    so one clean lint covers every iteration count.  The device and the
    problem's display name are no part of it: the generator and the
    linter never read either.
    """
    return (
        "main_loop" if main_loop_only else "full",
        get_tile(tile).name,
        prob,
        dataclasses.astuple(tunables),
    )


def run_fused_sass_conv(
    x_nchw: np.ndarray,
    f_kcrs: np.ndarray,
    device: DeviceSpec | None = None,
    tunables: Tunables | None = None,
    prob: ConvProblem | None = None,
    ftf_on_device: bool = False,
    tile=None,
    context=None,
):
    """Run the generated Winograd kernel end to end; returns (y_nchw, counters).

    *tile* picks the kernel family (``"f22"`` default or ``"f44"``); the
    generator, filter-transform shape and buffer sizing all follow it.
    With ``ftf_on_device=True`` the filter transform also runs as a SASS
    kernel on the simulator (the paper's separate FTF kernel, §4.1;
    implemented for the f22 family only) — otherwise it is computed
    host-side (the default, since the FTF is a negligible, memory-bound
    prelude).  The build cache and lint gate come from *context*
    (default: the current execution context, whose device — V100 unless
    configured otherwise — also fills in a ``None`` *device*).
    """
    from ..runtime import activate

    ctx = _ctx(context)
    spec = get_tile(tile)
    with activate(ctx):
        device = device or ctx.device
        tunables = tunables or default_tunables(spec)
        n, c, h, w = x_nchw.shape
        k = f_kcrs.shape[0]
        prob = prob or ConvProblem(n=n, c=c, h=h, w=w, k=k)
        gen = kernel_for_tile(prob, spec, tunables)
        kernel = build_fused_kernel(prob, tunables, device.name, tile=spec)

        x_chwn = nchw_to_chwn(x_nchw.astype(np.float32))
        f_crsk = kcrs_to_crsk(f_kcrs.astype(np.float32))
        gmem = GlobalMemory(
            size=max(
                64 << 20,
                4 * x_chwn.nbytes
                + 4 * spec.elements * prob.c * prob.k
                + (8 << 20),
            )
        )
        if ftf_on_device:
            if spec.name != "f22":
                raise ConvConfigError(
                    "ftf_on_device is only implemented for the f22 family; "
                    f"got {spec.label()}"
                )
            from .ftf import FilterTransformKernel

            ftf = FilterTransformKernel(prob)
            fil_ptr = gmem.alloc_array(f_crsk)
            ft_ptr = gmem.alloc(4 * prob.c * 16 * prob.k)
            ftf_kernel = ftf.build()
            ensure_lint_clean(ftf_kernel)
            run_grid(
                ftf_kernel, device, grid=ftf.grid, threads_per_block=256,
                params={"fil_ptr": fil_ptr, "out_ptr": ft_ptr}, gmem=gmem,
            )
            f_t = gmem.read_array(ft_ptr, (prob.c, 4, 4, prob.k))
        else:
            f_t = FusedWinogradConv(tile=spec).transform_filters(f_crsk)
        params, out_ptr = gen.alloc_buffers(gmem, x_chwn, f_t)
        ensure_lint_clean(kernel)
        result = run_grid(
            kernel, device, grid=gen.grid, threads_per_block=256, params=params,
            gmem=gmem,
        )
        y_khwn = gmem.read_array(out_ptr, (k, prob.out_h, prob.out_w, n))
        return khwn_to_nkhw(y_khwn), result.counters


@dataclasses.dataclass
class MainLoopMeasurement:
    counters: Counters
    iters: int
    cycles_per_iter: float  # steady-state cycles per bc-iteration per SM
    tflops: float  # whole-device raw FFMA throughput (the Fig. 7-9 axis)
    sol: float  # steady-state FP32 pipe utilization (the Fig. 10-11 metric)


def _problem_image(prob, tile=None, context=None) -> tuple[GlobalMemory, dict[str, int]]:
    """The synthetic memory image for resident-blocks sims of *prob*.

    Buffer contents never affect timing — only layout, size and L2
    residency do, and those are a pure function of the problem and the
    tile family — so one :class:`GlobalMemory` image per context (its
    ``memory_images``) serves every candidate schedule, iteration count
    and build variant.  The buffers are the ones ``alloc_buffers`` lays
    out for a real launch, in the same order and at the same sizes: the
    input, the L2-resident transformed filter (each padded by one ``bc``
    block), then the output.
    """
    spec = get_tile(tile)

    def build() -> tuple[GlobalMemory, dict[str, int]]:
        gmem = GlobalMemory(size=128 << 20)
        in_elems = (prob.c + BC) * prob.h * prob.w * prob.n
        fil_elems = (prob.c + BC) * spec.elements * prob.k
        in_ptr = gmem.alloc(4 * in_elems)
        fil_ptr = gmem.alloc(4 * fil_elems, l2_resident=True)
        out_ptr = gmem.alloc(4 * prob.k * prob.out_h * prob.out_w * prob.n)
        return gmem, {"in_ptr": in_ptr, "fil_ptr": fil_ptr, "out_ptr": out_ptr}

    return _ctx(context).memory_images.get_or_build((spec.name, prob), build)


def _simulate_fused_kernel(
    prob, device, tunables, iters, num_blocks, context=None, tile=None,
    main_loop_only=True,
) -> LaunchResult:
    """One resident-blocks simulation of a fused kernel, memoized.

    *main_loop_only* picks the build variant: the main-loop
    microbenchmark of Figs. 7-9, or the full kernel with its prologue
    and OTF epilogue, which the layer model differences against it.
    Either way the kernel comes from the context's build cache and
    passes its lint gate before it runs.  The result is a pure
    function of the signature (buffer *contents* never affect timing,
    only layout, which the signature determines), so it is served from
    the context's (or disk) simulation cache when available and is
    bit-identical either way.
    """
    spec = get_tile(tile)
    ctx = _ctx(context)
    cache = ctx.sim_cache
    key = sim_cache_key(
        "resident_blocks",
        prob=prob,
        device=device,
        tunables=tunables,
        main_loop_only=main_loop_only,
        iters=iters,
        num_blocks=num_blocks,
        tile=spec.name,
    )
    payload = cache.get(key)
    if payload is not None:
        return LaunchResult.from_payload(payload)
    kernel = build_fused_kernel(
        prob, tunables, device.name, main_loop_only, iters, tile=spec,
        context=ctx,
    )
    ensure_lint_clean(
        kernel, context=ctx,
        family=lint_family_key(prob, tunables, main_loop_only, spec),
    )
    gmem, params = _problem_image(prob, spec, ctx)
    result = simulate_resident_blocks(
        kernel, device, params=params, gmem=gmem, threads_per_block=256,
        num_blocks=num_blocks,
    )
    cache.put(key, result.to_payload())
    return result


def measure_main_loop(
    prob: ConvProblem,
    device: DeviceSpec | None = None,
    tunables: Tunables | None = None,
    iters: int = 3,
    num_blocks: int | None = None,
    context=None,
    tile=None,
) -> MainLoopMeasurement:
    """Measure steady-state main-loop throughput on one SM.

    Two runs (``iters`` and ``iters − 2`` bc-iterations) are differenced
    to cancel the prologue/staging transient — the standard technique for
    steady-state microbenchmarks.  TFLOPS is the raw FFMA rate, which is
    what the paper plots in Figs. 7-9 (its ceiling is the device FP32
    peak); SOL is the FP32-pipe utilization of the marginal iterations.
    A ``None`` *device* is the context's device (V100 unless configured
    otherwise), as for :func:`run_fused_sass_conv`.
    """
    from ..runtime import activate

    spec = get_tile(tile)
    tunables = tunables or default_tunables(spec)
    if iters < 3:
        raise ConvConfigError(
            f"need at least 3 iterations for a differential measure, got {iters}"
        )
    ctx = _ctx(context)
    device = device or ctx.device
    with activate(ctx):
        long_run = _simulate_fused_kernel(
            prob, device, tunables, iters, num_blocks, ctx, spec
        )
        short_run = _simulate_fused_kernel(
            prob, device, tunables, iters - 2, num_blocks, ctx, spec
        )
    c_long, c_short = long_run.counters, short_run.counters
    d_cycles = c_long.cycles - c_short.cycles
    d_ffma = c_long.ffma_instrs - c_short.ffma_instrs
    d_fma_busy = c_long.fma_pipe_busy - c_short.fma_pipe_busy
    cycles_per_iter = d_cycles / 2.0
    flops = d_ffma * 32 * 2
    seconds = d_cycles / (device.clock_ghz * 1e9)
    per_sm = flops / seconds / 1e12 if seconds > 0 else 0.0
    sol = d_fma_busy / (d_cycles * device.schedulers_per_sm) if d_cycles else 0.0
    return MainLoopMeasurement(
        counters=c_long,
        iters=iters,
        cycles_per_iter=cycles_per_iter,
        tflops=per_sm * device.num_sms,
        sol=sol,
    )
