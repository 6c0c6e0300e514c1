"""Print every closed-form model output over a fixed corpus, one exact line each.

Evaluates ``repro.perfmodel``'s analytical models on the Table-1 layers
at N = 1, 4 and 32 and the paper's batches, plus a 5×5/pad-2, two
stride-2 and a pad-0 layer, on V100 and RTX2070, and prints one
``<name> <repr(value)>`` line per output:

* each dispatch candidate's ``predicted_time`` and
  ``dispatch_workspace_bytes``;
* every ``cudnn_time``, Fig. 14's ``workspace_mb`` and Fig. 2's
  ``roofline_table``;
* the F(4×4) study: each ``enumerate_blockings()`` entry (with its
  register count and feasibility), ``best_feasible``, the transplanted
  F(2×2) blocking, ``attainable_sol``, ``projected_fused_f44_time`` and
  ``projected_speedup_over_f22``;
* ``fp16_projection_summary``, ``break_even_k``, ``fused_time``,
  ``nonfused_time``, ``faster_variant`` and ``tile_overcompute`` at
  m = 2 and 4.

``repr`` prints floats exactly, so diffing the output of two checkouts
shows whether a change to the closed forms moved any value's last bit;
it is the models' analogue of ``digest_plans.py``.

At a checkout where ``f44_study``'s blocking type still carries the
register model as properties (``F44Blocking.registers`` and
``.feasible``), :func:`_blocking` reads ``b.registers`` and
``b.feasible`` instead of ``registers(b)`` and ``feasible(b)``.

Usage::

    PYTHONPATH=src python benchmarks/digest_models.py
"""

from __future__ import annotations

from repro.common import ConvProblem
from repro.gpusim import RTX2070, V100
from repro.models import paper_layers, resnet_layer
from repro.perfmodel import (
    ALGO_ORDER,
    CUDNN_ALGORITHMS,
    DISPATCH_CANDIDATES,
    break_even_k,
    cudnn_time,
    dispatch_workspace_bytes,
    faster_variant,
    fused_time,
    nonfused_time,
    predicted_time,
    roofline_table,
    tile_overcompute,
    workspace_mb,
)
from repro.perfmodel import f44_study
from repro.perfmodel.extensions import fp16_projection_summary

DEVICES = (V100, RTX2070)

#: Table 1 at N = 1, 4 and 32, the paper's other batches, and four
#: shapes whose output extent differs from the input's or whose filter
#: is not 3×3.
LAYERS = [
    resnet_layer(name, n) for n in (1, 4) for name in ("Conv2", "Conv3", "Conv4", "Conv5")
] + list(paper_layers()) + [
    ConvProblem(n=32, c=64, h=56, w=56, k=64, r=5, s=5, pad=2, name="5x5p2N32"),
    ConvProblem(n=32, c=64, h=56, w=56, k=64, r=5, s=5, pad=2, stride=2, name="5x5p2s2N32"),
    ConvProblem(n=32, c=64, h=56, w=56, k=64, stride=2, name="3x3s2N32"),
    ConvProblem(n=32, c=64, h=58, w=58, k=64, pad=0, name="3x3p0N32"),
]


def _line(name: str, value) -> None:
    print(f"{name} {value!r}")


def _blocking(b) -> tuple:
    return (
        b.bk, b.bn, b.bc, b.accumulators, b.smem_bytes, b.arithmetic_intensity,
        f44_study.registers(b), f44_study.feasible(b),
    )


def digest_layers() -> None:
    for prob in LAYERS:
        for m in (2, 4):
            _line(f"tile_overcompute/m{m}/{prob.name}", tile_overcompute(prob, m))
        for algo in DISPATCH_CANDIDATES:
            _line(f"workspace/{algo}/{prob.name}", dispatch_workspace_bytes(prob, algo))
        for algo in list(ALGO_ORDER) + ["OURS"]:
            _line(f"workspace_mb/{algo}/{prob.name}", workspace_mb(prob, algo))
        for dev in DEVICES:
            case = f"{dev.name}/{prob.name}"
            for algo in DISPATCH_CANDIDATES:
                _line(f"predicted/{algo}/{case}", predicted_time(prob, dev, algo))
            for algo in CUDNN_ALGORITHMS:
                _line(f"cudnn/{algo}/{case}", cudnn_time(prob, dev, algo))
            _line(f"fused_time/{case}", fused_time(prob, dev))
            _line(f"nonfused_time/{case}", nonfused_time(prob, dev))
            _line(f"faster_variant/{case}", faster_variant(prob, dev))
            _line(f"f44_time/{case}", f44_study.projected_fused_f44_time(prob, dev))
            _line(f"f44_speedup/{case}", f44_study.projected_speedup_over_f22(prob, dev))


def digest_devices() -> None:
    for dev in DEVICES:
        for row in roofline_table(dev):
            _line(f"roofline/{dev.name}/{row['step']}", sorted(row.items()))
        _line(f"break_even_k/{dev.name}", break_even_k(dev))
        _line(f"fp16/{dev.name}", sorted(fp16_projection_summary(dev).items()))
        best = f44_study.best_feasible()
        _line(f"attainable_sol/{dev.name}", f44_study.attainable_sol(best, dev))


def digest_f44_study() -> None:
    for b in f44_study.enumerate_blockings():
        _line(f"blocking/({b.bk},{b.bn},{b.bc})", _blocking(b))
    _line("best_feasible", _blocking(f44_study.best_feasible()))
    _line("f22_transplant", _blocking(f44_study.f22_reference_blocking_infeasible()))


def main() -> None:
    digest_f44_study()
    digest_devices()
    digest_layers()


if __name__ == "__main__":
    main()
