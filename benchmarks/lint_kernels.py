"""CI driver for the `sass-lint` job: lint every shipped kernel.

Assembles the generated winograd_f22 and winograd_f44 kernels (full
kernel and main-loop microbenchmark variant; f22 across the tunables
the benchmarks sweep, f44 across its yield strategies and the no-P2R
ablation), the batched GEMM and the filter-transform kernels, **plus
the main-loop kernel of every candidate in both schedule-search
spaces** (the 54-point ``DEFAULT_SPACE`` grid and the 27-point
``F44_SPACE`` the autotuner walks per family), runs the static analyzer
on each, prints the text reports, writes the ``--json`` reports to a
directory for the CI artifact, and exits non-zero if any kernel has a
diagnostic at or above ``--fail-on`` severity (default: ``error``).

Each kernel's report is followed by one ``sha256 <name> <hex>`` line,
the digest of its assembled ``.text``: diffing those lines between two
checkouts shows whether a generator change altered any emitted kernel.

Usage::

    PYTHONPATH=src python benchmarks/lint_kernels.py [--json-dir DIR]
    PYTHONPATH=src python benchmarks/lint_kernels.py --no-space   # faster
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import pathlib
import sys

from repro.common.problem import ConvProblem
from repro.kernels.ftf import FilterTransformKernel
from repro.kernels.gemm import BatchedGemmKernel
from repro.kernels.winograd_fused import (
    Tunables,
    default_tunables,
    kernel_for_tile,
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

F44 = default_tunables("f44")

TUNABLE_SWEEP = [
    ("f22", "default", Tunables()),
    ("f22", "nvcc8", Tunables(yield_strategy="nvcc8")),
    ("f22", "cudnn7", Tunables(yield_strategy="cudnn7")),
    ("f22", "tile_major", Tunables(smem_layout="tile_major")),
    ("f22", "bk32", Tunables(bk=32)),
    ("f22", "no_p2r", Tunables(use_p2r=False)),
    ("f44", "default", F44),
    ("f44", "nvcc8", dataclasses.replace(F44, yield_strategy="nvcc8")),
    ("f44", "cudnn7", dataclasses.replace(F44, yield_strategy="cudnn7")),
    ("f44", "no_p2r", dataclasses.replace(F44, use_p2r=False)),
]


def shipped_kernels():
    for tile, label, tunables in TUNABLE_SWEEP:
        gen = kernel_for_tile(PROB, tile, tunables)
        yield f"winograd_{tile}[{label}]", gen.build()
        yield (
            f"winograd_{tile}_main_loop[{label}]",
            gen.build(main_loop_only=True, iters=2),
        )
    yield "batched_gemm", BatchedGemmKernel(16, 64, 32, 16).build()
    yield "ftf", FilterTransformKernel(PROB).build()


def space_kernels():
    """Main-loop kernels for every autotuner candidate.

    The schedule search lint-gates candidates lazily on each run; this
    sweep is the eager CI version, so a pass regression that only trips
    on (say) ``db1`` single-buffering fails the lint job, not a user's
    search.  Each family searches its own space (f44's is smaller).
    """
    for tile, space, prefix in (
        ("f22", DEFAULT_SPACE, "sched"),
        ("f44", F44_SPACE, "sched_f44"),
    ):
        for schedule in space.candidates():
            gen = kernel_for_tile(PROB, tile, schedule.to_tunables(tile=tile))
            yield (
                f"{prefix}[{schedule.label()}]",
                gen.build(main_loop_only=True, iters=2),
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
        print(f"sha256 {name} {hashlib.sha256(kernel.text).hexdigest()}")
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
