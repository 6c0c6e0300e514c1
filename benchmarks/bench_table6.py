"""Table 6: speedup of our kernel over cuDNN's Winograd convolution.

Our side is the simulator-driven layer model; the cuDNN side is the
Table-2-anchored baseline (DESIGN.md §2).  Paper: up to 2.65× / avg
1.96× on RTX2070, up to 2.13× / avg 1.5× on V100, with Conv5 the
biggest win and Turing beating Volta across the board.
"""

from harness import DEVICES, emit

from repro.common import format_table
from repro.models import paper_layers
from repro.perfmodel import PAPER_TABLE6, cudnn_time, our_layer_performance

PROBLEMS = paper_layers()
LAYERS = [p.name for p in PROBLEMS]


def speedups(device_name):
    device = DEVICES[device_name]
    out = {}
    for prob in PROBLEMS:
        ours = our_layer_performance(prob, device).time_s
        out[prob.name] = cudnn_time(prob, device, "WINOGRAD") / ours
    return out


def _run():
    rows = []
    result = {}
    for device in ("RTX2070", "V100"):
        s = speedups(device)
        result[device] = s
        for layer in LAYERS:
            rows.append((device, layer, PAPER_TABLE6[device][layer], s[layer]))
    text = format_table(
        ["device", "layer", "paper", "measured"], rows,
        title="Table 6: speedup over cuDNN's Winograd convolution",
    )
    avg_r = sum(result["RTX2070"].values()) / 16
    avg_v = sum(result["V100"].values()) / 16
    text += (
        f"\naverages: RTX2070 {avg_r:.2f}x (paper 1.96x), "
        f"V100 {avg_v:.2f}x (paper 1.5x)"
    )
    emit("table6", text)
    return result


def test_table6(benchmark):
    result = benchmark.pedantic(_run, rounds=1, iterations=1)
    for device in ("RTX2070", "V100"):
        s = result[device]
        assert all(v > 1.0 for v in s.values()), device
        # Conv5 dominates (§7.1).
        conv5 = sum(s[f"Conv5N{n}"] for n in (32, 64, 96, 128)) / 4
        conv3 = sum(s[f"Conv3N{n}"] for n in (32, 64, 96, 128)) / 4
        assert conv5 > conv3
    avg_r = sum(result["RTX2070"].values()) / 16
    avg_v = sum(result["V100"].values()) / 16
    assert avg_r > avg_v  # Turing speedups exceed Volta's


if __name__ == "__main__":
    _run()
