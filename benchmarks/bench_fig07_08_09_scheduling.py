"""Figures 7-9: the SASS-level scheduling studies.

Main-loop throughput (device TFLOPS; the y-axis ceiling is the FP32
peak) on the 16 ResNet layer points under:

* Fig. 7 — yield-flag strategies {cuDNN, NVCC, Natural} (paper: Natural
  ≈1.09×/1.11× over the compiler heuristics);
* Fig. 8 — LDG interleave distance {2, 4, 8} (paper: LDG8 up to 1.24×);
* Fig. 9 — STS interleave distance {2, 4, 6} (paper: STS6 ≈ +2%).

Each figure is one axis of the ``repro.sched`` schedule space
(``DEFAULT_SPACE.axis_variants``), measured through the same
``Schedule`` → ``Tunables`` → simulator path the successive-halving
tuner scores candidates with — figures and tuner share one vocabulary
and one measurement cache.  The per-layer series applies each layer's
grid (tail-wave) utilization, which is what differentiates layers in
the paper's plots.
"""

import pytest
from harness import emit

from repro.common import format_grid
from repro.gpusim import RTX2070
from repro.kernels import WinogradF22Kernel, measure_main_loop
from repro.models import paper_layers
from repro.perfmodel.layer_model import _SURROGATE
from repro.sched import DEFAULT_SPACE, PAPER_SCHEDULE, QUICK_SPACE

PROBLEMS = paper_layers()
LAYERS = [p.name for p in PROBLEMS]


def schedule_tflops(prob, schedule) -> float:
    """Device-level main-loop TFLOPS of one layer under one schedule."""
    # The main loop's per-iteration cost is layer-independent at fixed
    # tunables (same block shape, §4), so every layer reads one
    # simulation on the layer model's mid-size surrogate and scales it
    # by its own grid (tail-wave) utilization.
    tunables = schedule.to_tunables()
    meas = measure_main_loop(_SURROGATE, RTX2070, tunables)
    gen = WinogradF22Kernel(prob, tunables)
    blocks = gen.grid[0] * gen.grid[1]
    return meas.tflops * (blocks / (RTX2070.waves(blocks) * RTX2070.num_sms))


def _sweep(variants: dict):
    return {
        label: [schedule_tflops(prob, schedule) for prob in PROBLEMS]
        for label, schedule in variants.items()
    }


def _emit_figure(name, title, series, paper_claim):
    rows = [[f"{v:.2f}" for v in vals] for vals in series.values()]
    text = format_grid(list(series.keys()), LAYERS, rows, title=title)
    text += f"\n{paper_claim}"
    emit(name, text)
    return series


def _cycles(schedule) -> float:
    return measure_main_loop(_SURROGATE, RTX2070, schedule.to_tunables()).cycles_per_iter


def test_fig07_yield_strategies(benchmark):
    axis = DEFAULT_SPACE.axis_variants("yield_strategy")
    variants = {
        "cuDNN": axis["yield=cudnn7"],
        "NVCC": axis["yield=nvcc8"],
        "Natural": axis["yield=natural"],
    }
    series = benchmark.pedantic(_sweep, args=(variants,), rounds=1, iterations=1)
    nat, nv, cd = (_cycles(variants[k]) for k in ("Natural", "NVCC", "cuDNN"))
    claim = (
        f"Natural over NVCC: {nv / nat:.3f}x (paper 1.09x); "
        f"over cuDNN: {cd / nat:.3f}x (paper 1.11x)"
    )
    _emit_figure("fig07_yield", "Figure 7: main-loop TFLOPS by yield strategy "
                 "(RTX2070)", series, claim)
    assert nat < nv
    assert nat < cd


def test_fig08_ldg_interleave(benchmark):
    variants = DEFAULT_SPACE.axis_variants("ldg_interleave")
    series = benchmark.pedantic(_sweep, args=(variants,), rounds=1, iterations=1)
    l2, l8 = _cycles(variants["ldg2"]), _cycles(variants["ldg8"])
    claim = f"LDG8 over LDG2: {l2 / l8:.3f}x (paper: up to 1.24x)"
    _emit_figure("fig08_ldg", "Figure 8: main-loop TFLOPS by LDG scheduling "
                 "(RTX2070)", series, claim)
    assert l2 > l8 * 1.05


def test_fig09_sts_interleave(benchmark):
    variants = DEFAULT_SPACE.axis_variants("sts_interleave")
    series = benchmark.pedantic(_sweep, args=(variants,), rounds=1, iterations=1)
    s2, s6 = _cycles(variants["sts2"]), _cycles(variants["sts6"])
    ratio = s2 / s6
    claim = f"STS6 over STS2: {ratio:.3f}x (paper: ~1.02x)"
    _emit_figure("fig09_sts", "Figure 9: main-loop TFLOPS by STS scheduling "
                 "(RTX2070)", series, claim)
    # The paper's effect is ~2%; assert ours stays in a sane band.
    assert 0.95 < ratio < 1.10


@pytest.mark.slow
def test_schedule_search_agrees_with_figures(benchmark):
    """The tuner's winner is the schedule the figures argue for."""
    from repro.gpusim import RTX2070
    from repro.runtime import ExecutionContext
    from repro.sched import SearchBudget, paper_ordering, successive_halving

    ctx = ExecutionContext(device=RTX2070)
    result = benchmark.pedantic(
        successive_halving,
        args=(QUICK_SPACE, RTX2070),
        kwargs=dict(budget=SearchBudget(max_rungs=2), context=ctx),
        rounds=1, iterations=1,
    )
    ordering = paper_ordering(result)
    lines = ["Schedule search vs Figures 7-9 (RTX2070, quick space)",
             f"winner: {result.best.schedule.label()} "
             f"({result.evaluations} evaluations, "
             f"{result.lint_gated} candidates lint-gated)"]
    lines += [f"{k}: {v:.4f}x" for k, v in ordering.items() if k != "anchor"]
    emit("sched_search", "\n".join(lines))
    assert result.best.schedule == PAPER_SCHEDULE
    assert ordering["ldg8_over_ldg2"] > 1.05
    assert ordering["natural_over_nvcc8"] > 1.0
    assert ordering["natural_over_cudnn7"] > 1.0


if __name__ == "__main__":
    for prob in PROBLEMS[:4]:
        print(prob.name, f"{schedule_tflops(prob, PAPER_SCHEDULE):.2f} TFLOPS")
