"""``python -m repro session`` — run an InferenceSession from the shell.

Examples::

    python -m repro session --layers Conv2,Conv3,Conv4,Conv5 --batch 32
    python -m repro session --model resnet --batch 32 --mode AUTO
    python -m repro session --layers Conv3 --batch 8 \
        --trace trace.json --json result.json
"""

from __future__ import annotations

import argparse
import json
import sys

from ..common.errors import ReproError
from ..common.rng import make_rng, random_activation, random_filter
from .context import ExecutionContext
from .session import InferenceSession

RESNET_LAYERS = ("Conv2", "Conv3", "Conv4", "Conv5")


def _problems(args: argparse.Namespace):
    from ..models import resnet_layer, vgg_layers

    if args.model == "vgg":
        return vgg_layers(args.batch)
    names = [s.strip() for s in args.layers.split(",") if s.strip()]
    if not names:
        raise SystemExit("--layers needs at least one layer name")
    return [resnet_layer(name, args.batch) for name in names]


def cmd_session(args: argparse.Namespace) -> int:
    problems = _problems(args)
    ctx = ExecutionContext(
        workspace_limit_bytes=(
            args.workspace_limit_mb * (1 << 20)
            if args.workspace_limit_mb is not None else None
        ),
    )
    rng = make_rng(args.seed)
    inputs = [random_activation(p, rng) for p in problems]
    filters = [random_filter(p, rng) for p in problems]
    try:
        session = InferenceSession(problems, mode=args.mode, context=ctx)
        result = session.run(inputs, filters)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(result.summary())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(result.to_dict(), fh, indent=2)
        print(f"wrote {args.json}")
    if args.trace:
        ctx.write_trace(args.trace)
        print(f"wrote {args.trace} ({len(ctx.export_trace())} spans)")
    return 0


def add_session_parser(sub) -> None:
    """Register the ``session`` subcommand on an argparse subparsers obj."""
    p = sub.add_parser(
        "session",
        help="plan and run a layer stack through the unified runtime",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("--model", default="resnet", choices=["resnet", "vgg"],
                   help="layer table (default: resnet Table 1)")
    p.add_argument("--layers", default=",".join(RESNET_LAYERS),
                   help="comma-separated ResNet layer names "
                        "(default: Conv2,Conv3,Conv4,Conv5; ignored for vgg)")
    p.add_argument("--batch", type=int, default=32,
                   help="batch size N (default: 32)")
    p.add_argument("--mode", default="AUTO_HEURISTIC",
                   help="AUTO, AUTO_HEURISTIC or a dispatcher algorithm "
                        "(default: AUTO_HEURISTIC)")
    p.add_argument("--workspace-limit-mb", type=int, default=None,
                   help="arena + selection workspace budget in MiB")
    p.add_argument("--seed", type=int, default=0,
                   help="RNG seed for the synthetic tensors (default: 0)")
    p.add_argument("--json", metavar="PATH",
                   help="write per-layer/end-to-end stats as JSON")
    p.add_argument("--trace", metavar="PATH",
                   help="write the context's trace spans as JSON")
    p.set_defaults(func=cmd_session)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro session",
        description="Run an InferenceSession over a CNN layer stack",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    add_session_parser(sub)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main(["session", *sys.argv[1:]]))
