"""End-to-end InferenceSession over the paper's ResNet layers (Table 1).

Plans and runs the four 3×3 ResNet layers through the unified runtime:
one ExecutionContext, one workspace arena shared by every layer, and a
JSON trace of the plan/build/layer spans.  The stack runs twice on the
same tensors; the second run must take every fused Winograd layer's
transformed filters from the context's prepared-filter cache and return
byte-identical outputs, or the script exits non-zero.

    PYTHONPATH=src python benchmarks/bench_session_resnet.py            # N=32
    PYTHONPATH=src python benchmarks/bench_session_resnet.py --quick    # tiny N
    PYTHONPATH=src python benchmarks/bench_session_resnet.py \
        --trace results/session_resnet_trace.json

``--quick`` shrinks the batch so the CI smoke job finishes in seconds;
the layer stack, selection mode and trace structure are identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from harness import RESULTS_DIR, emit, format_table

from repro.common.rng import make_rng, random_activation, random_filter
from repro.convolution.api import FUSED_TILE_FOR_ALGO
from repro.models import resnet_layer
from repro.runtime import ExecutionContext, InferenceSession

LAYERS = ("Conv2", "Conv3", "Conv4", "Conv5")


def run_session(batch: int, mode: str = "AUTO_HEURISTIC", pipeline: bool = False):
    """Run the four-layer stack twice on the same tensors.

    Returns (first result, second result, plans, context, reuse check);
    the check records the prepared-filter cache while the filters live.
    """
    problems = [resnet_layer(name, batch) for name in LAYERS]
    ctx = ExecutionContext()
    session = InferenceSession(problems, mode=mode, context=ctx)
    rng = make_rng(0)
    inputs = [random_activation(p, rng) for p in problems]
    filters = [random_filter(p, rng) for p in problems]
    first = session.run(inputs, filters, pipeline=pipeline)
    hits = ctx.prepared_filters.stats().hits
    second = session.run(inputs, filters, pipeline=pipeline)
    fused = sum(plan.algo in FUSED_TILE_FOR_ALGO for plan in session.plans)
    reuse = {
        # Pipelined layers run conv2d in pool workers, without the cache.
        "expected_hits": 0 if first.pipelined else fused,
        "rerun_hits": ctx.prepared_filters.stats().hits - hits,
        "outputs_identical": all(
            a.tobytes() == b.tobytes() for a, b in zip(first.outputs, second.outputs)
        ),
        "prepared_filters": dataclasses.asdict(ctx.prepared_filters.stats()),
    }
    return first, second, session.plans, ctx, reuse


def reuse_ok(reuse: dict) -> bool:
    """Whether the rerun hit on every fused layer and repeated run 1 exactly."""
    return reuse["rerun_hits"] == reuse["expected_hits"] and reuse["outputs_identical"]


def session_table(result, plans) -> str:
    rows = [
        (run.layer, run.algo, ",".join(plan.fallbacks) or "-",
         run.workspace_bytes / (1 << 20), run.seconds * 1e3)
        for run, plan in zip(result.layers, plans)
    ]
    a = result.arena
    table = format_table(
        ["layer", "algo", "fallbacks", "workspace MB", "ms"], rows,
        title="InferenceSession: ResNet 3x3 layers",
    )
    return (
        f"{table}\n"
        f"end-to-end: {result.total_seconds * 1e3:.3f} ms over "
        f"{len(result.layers)} layers"
        f"{' (pipelined)' if result.pipelined else ''}\n"
        f"arena: peak {a.peak_bytes / (1 << 20):.3f} MB, "
        f"{a.reserves} reserves, {a.reuses} reuses, {a.grows} grows"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="tiny batch for CI smoke runs")
    parser.add_argument("--batch", type=int, default=None,
                        help="batch size N (default: 32, or 2 with --quick)")
    parser.add_argument("--mode", default="AUTO_HEURISTIC",
                        help="session mode (default: AUTO_HEURISTIC)")
    parser.add_argument("--pipeline", action="store_true",
                        help="fan layers out over the process pool")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="trace JSON path (default: "
                             "results/session_resnet_trace.json)")
    args = parser.parse_args(argv)
    batch = args.batch or (2 if args.quick else 32)

    result, rerun, plans, ctx, reuse = run_session(batch, mode=args.mode,
                                                   pipeline=args.pipeline)
    emit(f"Session: ResNet layers N={batch}", session_table(result, plans))
    prepared = reuse["prepared_filters"]
    print(
        f"rerun: {rerun.total_seconds * 1e3:.3f} ms, "
        f"{reuse['rerun_hits']}/{reuse['expected_hits']} prepared-filter hits, "
        f"outputs {'identical' if reuse['outputs_identical'] else 'DIFFER'}; "
        f"prepared filters: {prepared['entries']} entries, "
        f"{prepared['bytes'] / (1 << 20):.3f} MB"
    )

    trace_path = args.trace or os.path.join(
        RESULTS_DIR, "session_resnet_trace.json"
    )
    os.makedirs(os.path.dirname(trace_path) or ".", exist_ok=True)
    payload = {
        "batch": batch,
        "mode": args.mode,
        "session": result.to_dict(),
        "rerun": rerun.to_dict(),
        "reuse": reuse,
        "spans": ctx.export_trace(),
    }
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
    print(f"wrote {trace_path} ({len(payload['spans'])} spans)")
    if not reuse_ok(reuse):
        print(f"FAIL: the rerun did not reuse the prepared filters: {reuse}")
        return 1
    return 0


def test_session_resnet_quick(benchmark):
    result, _, plans, _, reuse = benchmark.pedantic(
        lambda: run_session(2), rounds=1, iterations=1
    )
    assert len(result.layers) == len(LAYERS)
    assert result.arena.peak_bytes == max(p.workspace_bytes for p in plans)
    assert reuse_ok(reuse) and reuse["expected_hits"] == len(LAYERS)


if __name__ == "__main__":
    sys.exit(main())
