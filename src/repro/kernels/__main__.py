"""Kernel generation CLI.

Dump the paper's kernels as SASS source or assembled cubins:

    python -m repro.kernels winograd --layer Conv3 --batch 32 -o conv3.sass
    python -m repro.kernels winograd --layer Conv2 --batch 32 --cubin conv2.cubin \
        --yield-strategy cudnn7 --ldg 2
    python -m repro.kernels ftf --layer Conv4 --batch 32 -o ftf.sass
    python -m repro.kernels gemm --batch 16 --m 64 --n 32 --kd 64 -o gemm.sass

The emitted .sass reassembles with ``python -m repro.sass as``.
"""

from __future__ import annotations

import argparse
import sys

from ..models import resnet_layer
from ..sass.cubin import write_cubin
from .ftf import FilterTransformKernel
from .gemm import BatchedGemmKernel
from .winograd_fused import Tunables, WinogradF22Kernel


def _tunables(args: argparse.Namespace) -> Tunables:
    return Tunables(
        yield_strategy=args.yield_strategy,
        ldg_interleave=args.ldg,
        sts_interleave=args.sts,
        bk=args.bk,
        smem_layout=args.smem_layout,
        use_p2r=not args.no_p2r,
    )


def _emit(args: argparse.Namespace, generator) -> int:
    if args.cubin:
        kernel = generator.build()
        with open(args.cubin, "wb") as fh:
            fh.write(write_cubin(kernel))
        print(f"{args.cubin}: {kernel.num_instructions} instructions, "
              f"{kernel.meta.registers} registers")
    source = generator.source() if hasattr(generator, "source") else None
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(source + "\n")
        print(f"{args.output}: {len(source.splitlines())} lines of SASS")
    elif not args.cubin:
        print(source)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.kernels",
        description="Generate the paper's SASS kernels",
    )
    parser.add_argument("-o", "--output", help="write SASS source here")
    parser.add_argument("--cubin", help="assemble and write a cubin here")
    sub = parser.add_subparsers(dest="command", required=True)

    common_layer = argparse.ArgumentParser(add_help=False)
    common_layer.add_argument("--layer", default="Conv3",
                              choices=["Conv2", "Conv3", "Conv4", "Conv5"])
    common_layer.add_argument("--batch", type=int, default=32)

    p_w = sub.add_parser("winograd", parents=[common_layer],
                         help="the fused F(2x2,3x3) kernel")
    p_w.add_argument("--yield-strategy", default="natural",
                     choices=["natural", "nvcc8", "cudnn7"])
    p_w.add_argument("--ldg", type=int, default=8)
    p_w.add_argument("--sts", type=int, default=6)
    p_w.add_argument("--bk", type=int, default=64, choices=[32, 64])
    p_w.add_argument("--smem-layout", default="transposed",
                     choices=["transposed", "tile_major"])
    p_w.add_argument("--no-p2r", action="store_true")
    p_w.set_defaults(kind="winograd")

    p_f = sub.add_parser("ftf", parents=[common_layer],
                         help="the filter-transform kernel (§4.1)")
    p_f.set_defaults(kind="ftf")

    p_g = sub.add_parser("gemm", help="the 16-way batched GEMM kernel (§2.3)")
    p_g.add_argument("--batch", type=int, default=16)
    p_g.add_argument("--m", type=int, default=64)
    p_g.add_argument("--n", type=int, default=32)
    p_g.add_argument("--kd", type=int, default=64)
    p_g.set_defaults(kind="gemm")

    args = parser.parse_args(argv)
    if args.kind == "winograd":
        prob = resnet_layer(args.layer, args.batch)
        return _emit(args, WinogradF22Kernel(prob, _tunables(args)))
    if args.kind == "ftf":
        prob = resnet_layer(args.layer, args.batch)
        return _emit(args, FilterTransformKernel(prob))
    return _emit(args, BatchedGemmKernel(args.batch, args.m, args.n, args.kd))


if __name__ == "__main__":
    sys.exit(main())
