"""``python -m repro sched`` — search the SASS schedule space.

Examples::

    python -m repro sched search                      # full §6 grid, V100
    python -m repro sched search --device RTX2070 --quick
    python -m repro sched search --batch 8 --json result.json --trace t.json
    python -m repro sched space --quick               # list the candidates

``search`` runs the successive-halving tuner, reports the winning
schedule plus the Fig. 7-9 orderings, then compiles the requested
Table-1 layers as an ``InferenceSession`` on the search's context, so
every fused winner's plan carries the tuned schedule and lands in the
plan cache and the trace.  Only ``--mode AUTO`` runs convolutions (its
timed trials, on seeded tensors).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING, Any

from ..common.errors import ReproError
from ..gpusim.arch import DEVICES
from .search import (
    ScheduleSearchConfig,
    SearchBudget,
    SearchResult,
    ensure_schedule,
    paper_ordering,
)
from .space import DEFAULT_SPACE, QUICK_SPACE, ScheduleSpace

if TYPE_CHECKING:
    from ..runtime import ExecutionContext

TABLE1_LAYERS = ("Conv2", "Conv3", "Conv4", "Conv5")


def _space(args: argparse.Namespace) -> ScheduleSpace:
    return QUICK_SPACE if args.quick else DEFAULT_SPACE


def _print_result(result: SearchResult, ordering: dict) -> None:
    from ..common.tables import format_table

    rows = [
        (score.schedule.label(), score.iters, score.cycles_per_iter,
         score.tflops)
        for score in result.ranking()
    ]
    print(format_table(
        ["schedule", "iters", "cycles/iter", "TFLOPS"], rows,
        title=f"final rung ({result.device})", float_fmt="{:.2f}",
    ))
    print(
        f"winner: {result.best.schedule.label()} "
        f"({result.best.cycles_per_iter:.0f} cycles/iter) — "
        f"{result.evaluations} evaluations over {len(result.rungs)} rungs, "
        f"{result.lint_gated} candidates lint-gated"
    )
    if result.pruned:
        print(
            f"statically pruned before rung 0 ({len(result.pruned)}): "
            + ", ".join(result.pruned)
        )
    ratios = {k: v for k, v in ordering.items() if k != "anchor"}
    if ratios:
        print(f"paper ordering (vs {ordering['anchor']}, rung-0 cycles):")
        for name, ratio in ratios.items():
            print(f"  {name:22s} {ratio:.4f}x")


def _plan_layers(args: argparse.Namespace, ctx: ExecutionContext) -> list[dict]:
    from ..common.rng import make_rng, random_activation, random_filter
    from ..convolution.api import FUSED_TILE_FOR_ALGO
    from ..models import resnet_layer
    from ..runtime import InferenceSession

    names = [s.strip() for s in args.layers.split(",") if s.strip()]
    if not names:
        raise SystemExit("--layers needs at least one layer name")
    problems = [resnet_layer(name, args.batch) for name in names]
    calibration: tuple[list[Any], list[Any]] | None = None
    if args.mode == "AUTO":
        rng = make_rng(args.seed)
        pairs = [(random_activation(p, rng), random_filter(p, rng)) for p in problems]
        calibration = ([x for x, _ in pairs], [f for _, f in pairs])
    plans = InferenceSession(problems, mode=args.mode, context=ctx).compile(calibration)
    return [
        {
            "layer": plan.prob.label(),
            "algo": plan.algo,
            "tile": FUSED_TILE_FOR_ALGO.get(plan.algo),
            "schedule": plan.schedule.to_dict() if plan.schedule else None,
            "schedule_label": plan.schedule.label() if plan.schedule else "-",
        }
        for plan in plans
    ]


def cmd_search(args: argparse.Namespace) -> int:
    from ..runtime import ExecutionContext

    device = DEVICES[args.device]
    space = _space(args)
    budget = SearchBudget(
        base_iters=args.base_iters, iters_step=args.iters_step,
        eta=args.eta, max_rungs=args.rungs,
        prune_margin=args.prune_margin,
    )
    config = ScheduleSearchConfig(space=space, budget=budget)
    ctx = ExecutionContext(device=device, schedule_search=config)
    print(
        f"searching {len(space)} schedules on {device.name} "
        f"(eta={budget.eta}, rungs={budget.max_rungs}, "
        f"base iters={budget.base_iters})..."
    )
    try:
        result = ensure_schedule(device=device, config=config, context=ctx)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    ordering = paper_ordering(result)
    _print_result(result, ordering)

    layers: list[dict] = []
    if not args.no_layers:
        try:
            layers = _plan_layers(args, ctx)
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        from ..common.tables import format_table

        print(format_table(
            ["layer", "algo", "tile", "schedule"],
            [(r["layer"], r["algo"], r["tile"] or "-", r["schedule_label"])
             for r in layers],
            title=f"plans (mode={args.mode}, batch={args.batch})",
        ))

    if args.json:
        payload = {
            "search": result.to_dict(),
            "paper_ordering": ordering,
            "layers": layers,
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
        print(f"wrote {args.json}")
    if args.trace:
        ctx.write_trace(args.trace)
        print(f"wrote {args.trace} ({len(ctx.export_trace())} spans)")
    return 0


def cmd_space(args: argparse.Namespace) -> int:
    space = _space(args)
    print(f"{len(space)} candidates [{space.signature()}]:")
    for schedule in space.candidates():
        print(f"  {schedule.label()}")
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--quick", action="store_true",
                   help="the 12-point CI subset instead of the full 54-point grid")


def add_sched_parsers(sub: Any) -> None:
    """Register ``search`` and ``space`` on an argparse subparsers obj."""
    p = sub.add_parser(
        "search",
        help="run the successive-halving schedule search",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    _add_common(p)
    p.add_argument("--device", default="V100", choices=sorted(DEVICES),
                   help="simulated device (default: V100)")
    p.add_argument("--eta", type=int, default=3,
                   help="keep ceil(n/eta) candidates per rung (default: 3)")
    p.add_argument("--rungs", type=int, default=3,
                   help="maximum successive-halving rungs (default: 3)")
    p.add_argument("--base-iters", type=int, default=3,
                   help="rung-0 main-loop iterations (default: 3)")
    p.add_argument("--iters-step", type=int, default=2,
                   help="extra iterations per rung (default: 2)")
    p.add_argument("--prune-margin", type=float, default=None,
                   metavar="RATIO",
                   help="statically prune candidates whose serialized "
                        "issue-cycle cost exceeds RATIO x the cheapest "
                        "candidate's before any simulation (e.g. 1.05; "
                        "default: no pruning)")
    p.add_argument("--layers", default=",".join(TABLE1_LAYERS),
                   help="Table-1 layers to plan with the winner "
                        "(default: Conv2,Conv3,Conv4,Conv5)")
    p.add_argument("--batch", type=int, default=32,
                   help="batch size N for the planned layers (default: 32)")
    p.add_argument("--mode", default="AUTO_HEURISTIC",
                   choices=["AUTO", "AUTO_HEURISTIC"],
                   help="dispatch mode for the planned layers")
    p.add_argument("--no-layers", action="store_true",
                   help="search only; skip planning the Table-1 layers")
    p.add_argument("--seed", type=int, default=0,
                   help="RNG seed for the layer tensors (default: 0)")
    p.add_argument("--json", metavar="PATH",
                   help="write the search result + plans as JSON")
    p.add_argument("--trace", metavar="PATH",
                   help="write the context's trace spans as JSON")
    p.set_defaults(func=cmd_search)

    q = sub.add_parser("space", help="list the schedule candidates")
    _add_common(q)
    q.set_defaults(func=cmd_space)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro sched",
        description="Autotune the fused kernel's SASS instruction schedule",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    add_sched_parsers(sub)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
