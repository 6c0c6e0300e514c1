"""Digest every per-layer plan the dispatcher makes over a fixed corpus.

Compiles ``InferenceSession`` plans for the Table-1 stack (Conv2–5 at
N = 1 and 4) in ``AUTO_HEURISTIC`` and seven forced-algorithm modes, on
V100 and RTX2070, under workspace budgets of none, 0 and 8 MiB (the
budget is the context's), and prints one line per plan (its
``to_dict()``) or per compile error.  It then prints:

* four modes' session runs: output digests and ``ArenaStats``;
* two ``AUTO`` sessions' plan structure (their trial times are
  wall-clock) and a bare ``AUTO`` compile's error;
* an odd layer whose ``WINOGRAD`` workspace (960 B) the arena reserves
  as 1,024 B, and Conv5 at N = 1, each under a 1,000 B budget in
  ``AUTO_HEURISTIC`` and ``WINOGRAD``: the plan or compile error, then
  one run's output digest and ``ArenaStats`` or its error;
* ``conv2d`` ``AUTO_HEURISTIC`` over 5×5, stride-2, odd and Conv5
  shapes on both devices, twice each: outputs, the plan-cache entries
  and ``DispatchStats``.

Diffing the output of two checkouts shows whether a planner change
altered any plan, error, output or counter; it is the planner's
analogue of ``digest_executors.py``.

Usage::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python benchmarks/digest_plans.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np

from repro.common import ConvProblem, ReproError
from repro.convolution import conv2d
from repro.gpusim import RTX2070, V100
from repro.models import resnet_layer
from repro.runtime import ExecutionContext, InferenceSession

DEVICES = (V100, RTX2070)
BUDGETS = (None, 0, 8 << 20)
FORCED = (
    "WINOGRAD", "WINOGRAD_F44", "WINOGRAD_NONFUSED", "IMPLICIT_PRECOMP_GEMM",
    "IMPLICIT_GEMM", "GEMM", "FFT",
)
STACKS = {n: [resnet_layer(name, n) for name in ("Conv2", "Conv3", "Conv4", "Conv5")]
          for n in (1, 4)}
RUN_MODES = ("AUTO_HEURISTIC", "WINOGRAD", "GEMM", "DIRECT")
AUTO_STACK = [ConvProblem(n=1, c=4, h=8, w=8, k=4), ConvProblem(n=1, c=8, h=8, w=8, k=8)]
ROUNDED_BUDGET_LAYERS = [ConvProblem(n=1, c=5, h=8, w=8, k=3), resnet_layer("Conv5", 1)]
CONV2D_SHAPES = [
    ConvProblem(n=1, c=3, h=10, w=10, k=2, r=5, s=5, pad=2),
    ConvProblem(n=2, c=4, h=9, w=9, k=6, stride=2),
    ConvProblem(n=3, c=5, h=7, w=11, k=7),
    resnet_layer("Conv5", 1),
]


def _emit(name: str, *parts) -> None:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
    print(f"sha256 {name} {h.hexdigest()}")


def _tensors(problems, seed: int):
    rng = np.random.default_rng(seed)
    xs = [rng.standard_normal((p.n, p.c, p.h, p.w)).astype(np.float32) for p in problems]
    fs = [rng.standard_normal((p.k, p.c, p.r, p.s)).astype(np.float32) for p in problems]
    return xs, fs


def digest_session_plans() -> None:
    for device in DEVICES:
        for budget in BUDGETS:
            for n, stack in STACKS.items():
                for mode in ("AUTO_HEURISTIC", *FORCED):
                    case = f"{device.name}/{budget}/N{n}/{mode}"
                    ctx = ExecutionContext(device=device, workspace_limit_bytes=budget)
                    try:
                        plans = InferenceSession(stack, mode=mode, context=ctx).compile()
                    except ReproError as exc:
                        print(f"error {case} {type(exc).__name__}: {exc}")
                        continue
                    for plan in plans:
                        print(f"plan {case} {json.dumps(plan.to_dict(), sort_keys=True)}")


def digest_session_runs() -> None:
    for n, stack in STACKS.items():
        xs, fs = _tensors(stack, seed=n)
        for mode in RUN_MODES:
            ctx = ExecutionContext(device=RTX2070)
            result = InferenceSession(stack, mode=mode, context=ctx).run(xs, fs)
            for prob, y in zip(stack, result.outputs):
                _emit(f"run/N{n}/{mode}/{prob.name}", y)
            print(f"arena N{n}/{mode} {dataclasses.asdict(result.arena)}")


def digest_auto_structure() -> None:
    xs, fs = _tensors(AUTO_STACK, seed=7)
    for budget in (None, 0):
        ctx = ExecutionContext(device=RTX2070, workspace_limit_bytes=budget)
        session = InferenceSession(AUTO_STACK, mode="AUTO", context=ctx)
        structure = [
            (plan.prob.label(), sorted({plan.algo, *plan.fallbacks}), sorted(plan.excluded),
             plan.predicted_seconds > 0, plan.workspace_bytes if budget == 0 else None)
            for plan in session.compile((xs, fs))
        ]
        print(f"auto {budget} {structure}")
    try:
        InferenceSession(AUTO_STACK, mode="AUTO", context=ExecutionContext()).compile()
    except ReproError as exc:
        print(f"error AUTO/bare {type(exc).__name__}: {exc}")


def digest_rounded_budget() -> None:
    for i, prob in enumerate(ROUNDED_BUDGET_LAYERS):
        xs, fs = _tensors([prob], seed=200 + i)
        for mode in ("AUTO_HEURISTIC", "WINOGRAD"):
            case = f"budget1000/{prob.label()}/{mode}"
            ctx = ExecutionContext(device=RTX2070, workspace_limit_bytes=1000)
            session = InferenceSession([prob], mode=mode, context=ctx)
            try:
                (plan,) = session.compile()
                print(f"plan {case} {json.dumps(plan.to_dict(), sort_keys=True)}")
                result = session.run(xs, fs)
            except ReproError as exc:
                print(f"error {case} {type(exc).__name__}: {exc}")
                continue
            _emit(f"run/{case}", result.outputs[0])
            print(f"arena {case} {dataclasses.asdict(result.arena)}")


def digest_conv2d() -> None:
    ctx = ExecutionContext()
    for i, prob in enumerate(CONV2D_SHAPES):
        (x,), (f,) = _tensors([prob], seed=100 + i)
        for device in DEVICES:
            for call in ("miss", "hit"):
                y = conv2d(x, f, pad=prob.pad, stride=prob.stride, algo="AUTO_HEURISTIC",
                           device=device, context=ctx)
                _emit(f"conv2d/{device.name}/{prob.label()}s{prob.stride}/{call}", y)
    for key, plan in ctx.plans.items():
        p = key.prob
        print(f"cache {(p.n, p.c, p.h, p.w, p.k, p.r, p.s, p.pad, p.stride)} {key.dtype} "
              f"{key.workspace_limit} {key.device} {key.mode} {plan.algo} {plan.fallbacks} "
              f"{plan.source} {plan.predicted_times} {plan.excluded} {plan.hits}")
    print(f"dispatch {dataclasses.asdict(ctx.dispatch_stats)}")


def main() -> None:
    digest_session_plans()
    digest_session_runs()
    digest_auto_structure()
    digest_rounded_budget()
    digest_conv2d()


if __name__ == "__main__":
    main()
