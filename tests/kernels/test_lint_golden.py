"""Golden gate: every shipped/generated kernel must lint clean.

The paper's performance story *is* these invariants — hazard-free
control codes, conflict-free register banks via ``.reuse`` (Fig. 4),
conflict-free shared-memory layouts (Table 4, Fig. 5), a ≤253-register
main loop (Table 5) — so codegen and scheduling changes must not be able
to reintroduce a violation silently.  These tests are the CI `sass-lint`
job's in-process twin, over both tile families.
"""

import dataclasses

import pytest

from repro.common.errors import LintError
from repro.common.problem import ConvProblem
from repro.kernels.ftf import FilterTransformKernel
from repro.kernels.gemm import BatchedGemmKernel
from repro.kernels.runner import ensure_lint_clean
from repro.kernels.winograd_fused import (
    Tunables,
    WinogradF22Kernel,
    default_tunables,
    kernel_for_tile,
)
from repro.sass import parse_program
from repro.sass.analysis import Severity, errors, lint_kernel
from repro.sass.assembler import AssembledKernel
from repro.sass.preprocess import KernelMeta

PROB = ConvProblem(n=32, c=16, h=8, w=8, k=64)

SWEEP = [
    ("default", Tunables()),
    ("nvcc8", Tunables(yield_strategy="nvcc8")),
    ("cudnn7", Tunables(yield_strategy="cudnn7")),
    ("tile_major", Tunables(smem_layout="tile_major")),
    ("bk32", Tunables(bk=32)),
    ("no_p2r", Tunables(use_p2r=False)),
    ("ldg4", Tunables(ldg_interleave=4)),
]

F44 = default_tunables("f44")
F44_SWEEP = [
    ("default", F44),
    ("nvcc8", dataclasses.replace(F44, yield_strategy="nvcc8")),
    ("cudnn7", dataclasses.replace(F44, yield_strategy="cudnn7")),
    ("no_p2r", dataclasses.replace(F44, use_p2r=False)),
    ("ldg4", dataclasses.replace(F44, ldg_interleave=4)),
]

# f22 cases keep their bare labels as ids; f44 cases are prefixed.
GATED = [("f22", t) for _, t in SWEEP] + [("f44", t) for _, t in F44_SWEEP]
GATED_IDS = [label for label, _ in SWEEP] + [f"f44-{label}" for label, _ in F44_SWEEP]


@pytest.mark.parametrize("tile,tunables", GATED, ids=GATED_IDS)
def test_winograd_zero_errors_across_tunables(tile, tunables):
    """Every schedule/layout the generators can emit is hazard- and
    correctness-clean (warnings are allowed: ablations trip them on
    purpose, and f44 carries register-bank conflicts)."""
    kernel = kernel_for_tile(PROB, tile, tunables).build()
    assert errors(lint_kernel(kernel)) == []


@pytest.mark.parametrize("tile,tunables", GATED, ids=GATED_IDS)
def test_winograd_main_loop_zero_errors(tile, tunables):
    kernel = kernel_for_tile(PROB, tile, tunables).build(
        main_loop_only=True, iters=2
    )
    assert errors(lint_kernel(kernel)) == []


def test_winograd_default_config_has_zero_warnings():
    """The paper's configuration is *fully* conflict-free: no register- or
    shared-memory-bank warnings either, only the occupancy/liveness info
    lines."""
    diags = lint_kernel(WinogradF22Kernel(PROB).build())
    assert [d.rule for d in diags] == ["OCC001", "OCC002", "LV001"]
    assert all(d.severity is Severity.INFO for d in diags)


def test_winograd_tile_major_ablation_warns_but_runs():
    """The tile-major layout exists to measure the cost of smem conflicts
    (§4.4): the analyzer must flag them as warnings, not errors."""
    diags = lint_kernel(
        WinogradF22Kernel(PROB, Tunables(smem_layout="tile_major")).build()
    )
    smem = [d for d in diags if d.rule == "SM001"]
    assert smem and all(d.severity is Severity.WARNING for d in smem)


def test_gemm_lints_clean():
    diags = lint_kernel(BatchedGemmKernel(16, 64, 32, 16).build())
    assert [d.rule for d in diags] == ["OCC001", "OCC002", "LV001"]


def test_ftf_lints_clean():
    assert errors(lint_kernel(FilterTransformKernel(PROB).build())) == []


def test_liveness_agrees_with_declared_registers():
    """Peak live registers never exceeds what the generator declared."""
    kernel = WinogradF22Kernel(PROB).build()
    (lv,) = [d for d in lint_kernel(kernel) if d.rule == "LV001"]
    peak = int(lv.message.split()[3])
    assert 0 < peak <= kernel.meta.registers


def _hazardous_kernel():
    instrs = parse_program(
        "LDG.E R0, [R2];\nIADD3 R3, R0, 0x1, RZ;\nEXIT;\n"
    ).instructions
    meta = KernelMeta(name="bad", registers=8)
    return AssembledKernel(
        meta=meta, instructions=instrs, labels={}, text=b"\x00" * 16
    )


def test_launch_gate_raises_on_errors():
    with pytest.raises(LintError) as exc:
        ensure_lint_clean(_hazardous_kernel())
    assert exc.value.diagnostics
    assert "CTRL002" in str(exc.value)


def test_launch_gate_passes_and_memoizes_clean_kernel():
    kernel = WinogradF22Kernel(PROB).build()
    ensure_lint_clean(kernel)
    from repro.runtime import current_context

    gate = current_context().lint_gate
    assert gate.get((kernel.meta.name, hash(kernel.text)))
    ensure_lint_clean(kernel)  # second call is the memoized no-op
