"""Instruction scheduling machinery for generated kernels (paper §6).

The paper's SASS-level studies are all about *where* non-FFMA
instructions sit inside the FFMA stream:

* LDG interleaving — cuDNN places an LDG every 2 FFMAs; the paper's
  kernel every 8 (Fig. 8, up to 1.24×);
* STS interleaving — 2 (cuDNN/NVCC heuristic) vs 6 (Fig. 9, +2%);
* the yield flag — NVCC clears the "stay" bit every 8 float
  instructions, cuDNN every 7, the paper's kernel never (Fig. 7, ~1.1×).

:func:`weave` merges a primary instruction stream with side streams at a
given spacing; :func:`apply_yield_strategy` post-processes a line list
to scatter yield flags the way each producer does.
"""

from __future__ import annotations

from typing import Iterable, Sequence

YIELD_STRATEGIES = ("natural", "nvcc8", "cudnn7")

_FLOAT_MNEMONICS = ("FFMA", "FADD", "FMUL", "FMNMX")


def weave(
    primary: Sequence[str],
    side: Sequence[str],
    spacing: int,
    start: int = 0,
) -> list[str]:
    """Insert one side instruction after every ``spacing`` primary ones.

    A primary line carrying a ``.reuse`` flag is never split from its
    successor: the register reuse cache only survives back-to-back
    issues from the same warp (§5.2.2), so an interposed instruction
    would reintroduce the bank conflict the flag exists to remove.

    If the side stream is longer than the primary stream allows, the
    remainder is appended at the end (the generator sizes streams so
    this does not happen in the main loop).
    """
    out: list[str] = []
    side_iter = iter(side)
    pending = next(side_iter, None)
    count = -start
    for line in primary:
        out.append(line)
        count += 1
        if pending is not None and count >= spacing and ".reuse" not in line:
            out.append(pending)
            pending = next(side_iter, None)
            count = 0
    while pending is not None:
        out.append(pending)
        pending = next(side_iter, None)
    return out


def is_float_line(line: str) -> bool:
    text = line.strip()
    if text.startswith("["):
        text = text[text.index("]") + 1 :].strip()
    if text.startswith("@"):
        text = text.split(None, 1)[1] if " " in text else text
    return text.startswith(_FLOAT_MNEMONICS)


def apply_yield_strategy(lines: Iterable[str], strategy: str) -> list[str]:
    """Scatter yield flags over a source listing.

    ``natural``  — leave every instruction's stay bit alone (the paper);
    ``nvcc8``    — request a warp switch every 8 float instructions;
    ``cudnn7``   — every 7 (the cuDNN heuristic the paper infers).

    Lines must carry no explicit control prefix for the flag to be
    injected (the generator emits controls separately); lines that do
    have a prefix keep it.
    """
    if strategy not in YIELD_STRATEGIES:
        raise ValueError(f"unknown yield strategy {strategy!r}; use {YIELD_STRATEGIES}")
    if strategy == "natural":
        return list(lines)
    period = 8 if strategy == "nvcc8" else 7
    out: list[str] = []
    float_seen = 0
    for line in lines:
        if is_float_line(line):
            float_seen += 1
            if float_seen % period == 0:
                line = _set_yield(line)
        out.append(line)
    return out


def _set_yield(line: str) -> str:
    text = line.strip()
    indent = line[: len(line) - len(text)]
    if text.startswith("["):
        end = text.index("]")
        control = text[: end + 1]
        rest = text[end + 1 :]
        # control format [B......:R.:W.:<Y|->:Sxx] — flip the yield char.
        parts = control[1:-1].split(":")
        parts[3] = "Y"
        return f"{indent}[{':'.join(parts)}]{rest}"
    return f"{indent}[B------:R-:W-:Y:S01] {text}"
