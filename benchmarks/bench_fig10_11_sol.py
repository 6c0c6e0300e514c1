"""Figures 10-11: Speed-Of-Light (SM%) on RTX2070 and V100.

For every layer: the main-loop SOL and the whole-kernel ("Total") SOL,
from the simulated kernel through the layer model.  The paper's shape
targets: main loop ≥ total; both high (main 87.5-93%); visible dips at
Conv4N32/Conv5N32 where the grid is too small to fill the device
("there are not enough thread blocks to keep the GPU busy"), recovering
as the batch grows.
"""

from harness import DEVICES, emit

from repro.common import format_grid
from repro.models import paper_layers
from repro.perfmodel import our_layer_performance

PROBLEMS = paper_layers()
LAYERS = [p.name for p in PROBLEMS]


def sol_series(device_name):
    # The first layer simulates the per-device measurement triple; the
    # simulation cache replays it for the rest, whose extrapolation is
    # pure arithmetic.
    main, total = [], []
    for prob in PROBLEMS:
        r = our_layer_performance(prob, DEVICES[device_name])
        main.append(100 * r.sol_main_loop)
        total.append(100 * r.sol_total)
    return main, total


def _run(device_name, fig):
    main, total = sol_series(device_name)
    text = format_grid(
        ["Total", "Main loop"],
        LAYERS,
        [[f"{v:.1f}" for v in total], [f"{v:.1f}" for v in main]],
        title=f"Figure {fig}: Speed of Light (SOL %) on {device_name}",
    )
    emit(f"fig{fig}_sol_{device_name.lower()}", text)
    return main, total


def test_fig10_sol_rtx2070(benchmark):
    main, total = benchmark.pedantic(_run, args=("RTX2070", 10),
                                     rounds=1, iterations=1)
    by = dict(zip(LAYERS, main))
    assert all(m >= t - 1e-6 for m, t in zip(main, total))
    # Small-batch dip and recovery (§7.2).
    assert by["Conv5N32"] < by["Conv5N128"]
    assert max(main) > 80


def test_fig11_sol_v100(benchmark):
    main, total = benchmark.pedantic(_run, args=("V100", 11),
                                     rounds=1, iterations=1)
    by = dict(zip(LAYERS, main))
    assert by["Conv4N32"] < by["Conv4N128"]
    assert max(main) > 80


if __name__ == "__main__":
    for dev in ("RTX2070", "V100"):
        print(dev, sol_series(dev))
