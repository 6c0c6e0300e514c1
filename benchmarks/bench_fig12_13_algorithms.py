"""Figures 12-13: speedup of our kernel over all other cuDNN algorithms.

One grid per device (16 layers × 6 algorithms), printed next to the
paper's cell values.  Shape targets: FFT collapses on Conv5; explicit
GEMM is worst on Conv2; IMPLICIT_PRECOMP is the strongest baseline
(≈2×); WINOGRAD_NONFUSED is the only algorithm that beats us, and only
on Conv5 (the §8.1 break-even at K≈129).
"""

from harness import DEVICES, emit

from repro.common import format_table
from repro.models import paper_layers
from repro.perfmodel import (
    ALGO_ORDER,
    PAPER_FIG12_RTX2070,
    PAPER_FIG13_V100,
    cudnn_time,
    our_layer_performance,
)

PROBLEMS = paper_layers()
LAYERS = [p.name for p in PROBLEMS]
PAPER = {"RTX2070": PAPER_FIG12_RTX2070, "V100": PAPER_FIG13_V100}


def grid(device_name):
    device = DEVICES[device_name]
    out = {}
    for prob in PROBLEMS:
        ours = our_layer_performance(prob, device).time_s
        out[prob.name] = [
            cudnn_time(prob, device, algo) / ours for algo in ALGO_ORDER
        ]
    return out


def _run(device_name, fig):
    data = grid(device_name)
    rows = []
    for layer in LAYERS:
        for algo, measured in zip(ALGO_ORDER, data[layer]):
            paper = PAPER[device_name][layer][ALGO_ORDER.index(algo)]
            rows.append((layer, algo, paper, measured))
    text = format_table(
        ["layer", "algorithm", "paper", "measured"], rows,
        title=f"Figure {fig}: speedup over all cuDNN algorithms ({device_name})",
    )
    emit(f"fig{fig}_algorithms_{device_name.lower()}", text)
    return data


def _assert_shape(data):
    ffts = {l: data[l][ALGO_ORDER.index("FFT")] for l in LAYERS}
    nonfused = {l: data[l][ALGO_ORDER.index("WINOGRAD_NONFUSED")] for l in LAYERS}
    ipg = {l: data[l][ALGO_ORDER.index("IMPLICIT_PRECOMP_GEMM")] for l in LAYERS}
    # FFT worst on Conv5 (small spectra).
    assert ffts["Conv5N32"] > ffts["Conv3N64"]
    # We beat every algorithm except non-fused Winograd on Conv5.
    for layer in ("Conv2N64", "Conv3N64", "Conv4N64"):
        assert all(v > 0.95 for v in data[layer])
    assert nonfused["Conv5N64"] < 1.0  # the F(4×4) crossover (§8.1)
    assert nonfused["Conv2N64"] > 1.0
    # IMPLICIT_PRECOMP is the strongest GEMM baseline.
    gemm = {l: data[l][ALGO_ORDER.index("GEMM")] for l in LAYERS}
    assert all(gemm[l] > ipg[l] for l in LAYERS)


def test_fig12_rtx2070(benchmark):
    data = benchmark.pedantic(_run, args=("RTX2070", 12), rounds=1, iterations=1)
    _assert_shape(data)


def test_fig13_v100(benchmark):
    data = benchmark.pedantic(_run, args=("V100", 13), rounds=1, iterations=1)
    _assert_shape(data)


if __name__ == "__main__":
    _run("V100", 13)
