"""TuringAs-style command-line interface.

The original TuringAs "accepts the SASS source file as input and
generates .cubin files"; this CLI mirrors that plus a disassembler and
an inspector:

    python -m repro.sass as kernel.sass -o kernel.cubin --schedule --strict
    python -m repro.sass dis kernel.cubin
    python -m repro.sass info kernel.cubin
    python -m repro.sass lint kernel.sass --schedule --json

``as`` and ``lint`` also take ``-D name=value`` definitions visible to
inline Python blocks and ``{{ }}`` splices.  ``lint`` accepts either a
``.sass`` source or an assembled ``.cubin`` and exits non-zero when any
diagnostic at or above ``--fail-on`` severity is found (default:
``error``; see ``docs/sass_lint.md``).
"""

from __future__ import annotations

import argparse
import sys

from .analysis import (
    Severity,
    lint_instructions,
    max_severity,
    render_json,
    render_text,
)
from .assembler import AssembledKernel, assemble
from .cubin import LoadedCubin, read_cubin, write_cubin


def _parse_defines(defines: list[str]) -> dict[str, int | str]:
    env: dict[str, int | str] = {}
    for item in defines:
        if "=" not in item:
            raise SystemExit(f"-D expects name=value, got {item!r}")
        name, value = item.split("=", 1)
        try:
            env[name] = int(value, 0)
        except ValueError:
            env[name] = value
    return env


def cmd_as(args: argparse.Namespace) -> int:
    with open(args.source, "r", encoding="utf-8") as fh:
        source = fh.read()
    kernel = assemble(
        source,
        env=_parse_defines(args.define or []),
        auto_schedule=args.schedule,
        strict=args.strict,
    )
    out = args.output or (args.source.rsplit(".", 1)[0] + ".cubin")
    with open(out, "wb") as fh:
        fh.write(write_cubin(kernel))
    print(
        f"{out}: kernel {kernel.meta.name!r}, {kernel.num_instructions} "
        f"instructions, {kernel.meta.registers} registers, "
        f"{kernel.meta.smem_bytes} B smem"
    )
    return 0


def _load(path: str) -> LoadedCubin:
    with open(path, "rb") as fh:
        return read_cubin(fh.read())


def cmd_dis(args: argparse.Namespace) -> int:
    loaded = _load(args.cubin)
    index_to_label = {v: k for k, v in loaded.labels.items()}
    for i, instr in enumerate(loaded.instructions()):
        if i in index_to_label:
            print(f"{index_to_label[i]}:")
        if instr.name == "BRA" and isinstance(instr.target, int):
            target = i + 1 + instr.target
            instr.target = index_to_label.get(target, f"{16 * target:#x}")
        addr = f"/*{16 * i:04x}*/" if args.addresses else ""
        print(f"    {addr} {instr.text()}".rstrip())
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    loaded = _load(args.cubin)
    meta = loaded.meta
    print(f"kernel:     {meta.name}")
    print(f"registers:  {meta.registers}")
    print(f"smem:       {meta.smem_bytes} B")
    print(f"text:       {len(loaded.text)} B "
          f"({len(loaded.text) // 16} instructions)")
    if meta.params:
        print("params:")
        for name, offset, size in meta.params:
            print(f"  c[0x0][{offset:#x}]  {name}  ({size} B)")
    if loaded.labels:
        print("labels:")
        for name, idx in sorted(loaded.labels.items(), key=lambda kv: kv[1]):
            print(f"  {16 * idx:#06x}  {name}")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    if args.source.endswith(".cubin"):
        loaded = _load(args.source)
        instructions = loaded.instructions()
        meta = loaded.meta
        name = meta.name
    else:
        with open(args.source, "r", encoding="utf-8") as fh:
            source = fh.read()
        kernel = assemble(
            source,
            env=_parse_defines(args.define or []),
            auto_schedule=args.schedule,
            strict=False,
        )
        instructions = kernel.instructions
        meta = kernel.meta
        name = kernel.meta.name

    diagnostics = lint_instructions(
        instructions, meta=meta, num_warps=args.warps
    )
    if args.json:
        print(render_json(diagnostics, kernel_name=name))
    else:
        print(render_text(diagnostics, kernel_name=name))
    threshold = Severity(args.fail_on)
    worst = max_severity(diagnostics)
    return 1 if worst is not None and worst.rank >= threshold.rank else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sass",
        description="Assemble, disassemble and inspect Volta/Turing SASS",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_as = sub.add_parser("as", help="assemble a .sass file into a .cubin")
    p_as.add_argument("source")
    p_as.add_argument("-o", "--output", help="output path (default: .cubin)")
    p_as.add_argument("-D", "--define", action="append", metavar="NAME=VALUE",
                      help="variable for inline Python blocks")
    p_as.add_argument("--schedule", action="store_true",
                      help="auto-fill stalls, waits and scoreboard barriers")
    p_as.add_argument("--strict", action="store_true",
                      help="fail on control-code hazards")
    p_as.set_defaults(func=cmd_as)

    p_dis = sub.add_parser("dis", help="disassemble a .cubin")
    p_dis.add_argument("cubin")
    p_dis.add_argument("-a", "--addresses", action="store_true",
                       help="prefix instruction byte offsets")
    p_dis.set_defaults(func=cmd_dis)

    p_info = sub.add_parser("info", help="show cubin metadata")
    p_info.add_argument("cubin")
    p_info.set_defaults(func=cmd_info)

    p_lint = sub.add_parser(
        "lint", help="statically analyze a .sass or .cubin kernel"
    )
    p_lint.add_argument("source", help=".sass source or assembled .cubin")
    p_lint.add_argument("-D", "--define", action="append",
                        metavar="NAME=VALUE",
                        help="variable for inline Python blocks")
    p_lint.add_argument("--schedule", action="store_true",
                        help="auto-fill control codes before linting")
    p_lint.add_argument("--json", action="store_true",
                        help="machine-readable report")
    p_lint.add_argument("--warps", type=int, default=8,
                        help="warps per block for the shared-memory model "
                             "(default: 8)")
    p_lint.add_argument("--fail-on", choices=["error", "warning"],
                        default="error",
                        help="lowest severity that makes the exit status "
                             "non-zero (default: error)")
    p_lint.set_defaults(func=cmd_lint)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
