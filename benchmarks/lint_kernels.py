"""CI driver for the `sass-lint` job: lint every shipped kernel.

Assembles the generated winograd_f22 and winograd_f44 kernels (full
kernel and main-loop microbenchmark variant; f22 across the tunables
the benchmarks sweep), the batched GEMM and the filter-transform
kernels, **plus the main-loop kernel of every candidate in both
schedule-search spaces** (the 54-point ``DEFAULT_SPACE`` grid and the
27-point ``F44_SPACE`` the autotuner walks per family), runs the static analyzer
on each, prints the text reports, writes the ``--json`` reports to a
directory for the CI artifact, and exits non-zero if any kernel has a
diagnostic at or above ``--fail-on`` severity (default: ``error``).

Usage::

    PYTHONPATH=src python benchmarks/lint_kernels.py [--json-dir DIR]
    PYTHONPATH=src python benchmarks/lint_kernels.py --no-space   # faster
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from repro.common.problem import ConvProblem
from repro.kernels.ftf import FilterTransformKernel
from repro.kernels.gemm import BatchedGemmKernel
from repro.kernels.winograd_fused import (
    Tunables,
    WinogradF22Kernel,
    WinogradF44Kernel,
    default_tunables,
)
from repro.sass.analysis import (
    Severity,
    lint_kernel,
    max_severity,
    render_json,
    render_text,
)
from repro.sched import DEFAULT_SPACE, F44_SPACE

PROB = ConvProblem(n=32, c=64, h=28, w=28, k=64)

TUNABLE_SWEEP = [
    ("default", Tunables()),
    ("nvcc8", Tunables(yield_strategy="nvcc8")),
    ("cudnn7", Tunables(yield_strategy="cudnn7")),
    ("tile_major", Tunables(smem_layout="tile_major")),
    ("bk32", Tunables(bk=32)),
    ("no_p2r", Tunables(use_p2r=False)),
]


def shipped_kernels():
    for label, tunables in TUNABLE_SWEEP:
        yield (
            f"winograd_f22[{label}]",
            WinogradF22Kernel(PROB, tunables).build(),
        )
        yield (
            f"winograd_f22_main_loop[{label}]",
            WinogradF22Kernel(PROB, tunables).build(
                main_loop_only=True, iters=2
            ),
        )
    f44 = default_tunables("f44")
    yield "winograd_f44[default]", WinogradF44Kernel(PROB, f44).build()
    yield (
        "winograd_f44_main_loop[default]",
        WinogradF44Kernel(PROB, f44).build(main_loop_only=True, iters=2),
    )
    yield "batched_gemm", BatchedGemmKernel(16, 64, 32, 16).build()
    yield "ftf", FilterTransformKernel(PROB).build()


def space_kernels():
    """Main-loop kernels for every autotuner candidate.

    The schedule search lint-gates candidates lazily on each run; this
    sweep is the eager CI version, so a pass regression that only trips
    on (say) ``db1`` single-buffering fails the lint job, not a user's
    search.
    """
    for schedule in DEFAULT_SPACE.candidates():
        yield (
            f"sched[{schedule.label()}]",
            WinogradF22Kernel(PROB, schedule.to_tunables()).build(
                main_loop_only=True, iters=2
            ),
        )
    # the F(4×4,3×3) family searches its own (smaller) space
    for schedule in F44_SPACE.candidates():
        yield (
            f"sched_f44[{schedule.label()}]",
            WinogradF44Kernel(PROB, schedule.to_tunables(tile="f44")).build(
                main_loop_only=True, iters=2
            ),
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json-dir", default=None,
                        help="write one <kernel>.json report per kernel")
    parser.add_argument("--fail-on", choices=["error", "warning"],
                        default="error",
                        help="lowest severity that fails the job "
                             "(default: error)")
    parser.add_argument("--no-space", action="store_true",
                        help="skip the 81-candidate schedule-space sweeps "
                             "(54 f22 + 27 f44)")
    args = parser.parse_args(argv)

    json_dir = None
    if args.json_dir:
        json_dir = pathlib.Path(args.json_dir)
        json_dir.mkdir(parents=True, exist_ok=True)

    threshold = Severity(args.fail_on)
    kernels = list(shipped_kernels())
    if not args.no_space:
        kernels.extend(space_kernels())

    failed = []
    for name, kernel in kernels:
        diagnostics = lint_kernel(kernel)
        print(render_text(diagnostics, kernel_name=name))
        print()
        if json_dir is not None:
            safe = name.replace("[", ".").replace("]", "").replace("/", "_")
            (json_dir / f"{safe}.json").write_text(
                render_json(diagnostics, kernel_name=name) + "\n"
            )
        worst = max_severity(diagnostics)
        if worst is not None and worst.rank >= threshold.rank:
            failed.append(name)

    if failed:
        print(f"FAIL: {args.fail_on}-severity diagnostics in: "
              f"{', '.join(failed)}")
        return 1
    print(f"OK: all {len(kernels)} kernels lint clean at "
          f"{args.fail_on} severity")
    return 0


if __name__ == "__main__":
    sys.exit(main())
