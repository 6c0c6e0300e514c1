"""Digest every simulation of a fixed corpus of kernel launches.

Runs, with the simulation cache off so that every request simulates:

* the ``QUICK_SPACE`` schedule search (two successive-halving rungs),
  for the f22 and f44 families on RTX2070 and V100, each in a fresh
  context;
* the default full f22 and f44 kernels (prologue, main loop and OTF
  epilogue) at the layer model's surrogate shape, on both devices;
* ``run_fused_sass_conv`` on the ledger's four ``sass_conv`` problems
  with seeded data, on both devices;

and prints one ``sha256 <name> <hex>`` line per launch: the digest of
its ``Counters`` record, and for ``sass_conv`` of the output's bytes and
the launch's counters.  A search's lines are followed by its winner.
Diffing the output of two checkouts shows whether a simulator change
moved any simulated number or output bit; it is the simulator's
analogue of ``digest_executors.py``.  ``REPRO_SIM_ENGINE=reference``
must print the same text (slowly).  The tier-1 test
``tests/gpusim/test_simulated_counter_digests.py`` pins the full-kernel
and RTX2070 ``sass_conv`` lines.

Usage::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python benchmarks/digest_sim.py
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import itertools
import os
from typing import Iterator

import numpy as np

from repro.common import ConvProblem, make_rng, random_activation, random_filter
from repro.gpusim import DEVICES as DEVICE_SPECS
from repro.gpusim.sm import SMSimulator
from repro.kernels.runner import _simulate_fused_kernel, run_fused_sass_conv
from repro.kernels.winograd_fused import default_tunables
from repro.perfmodel.layer_model import _SURROGATE
from repro.runtime import ExecutionContext
from repro.sched import QUICK_SPACE, SearchBudget
from repro.sched.search import successive_halving

DEVICES = ("RTX2070", "V100")
TILES = ("f22", "f44")
#: The ``sass_conv`` ledger workload's problems.
SASS_CONV = (
    ("f22", ConvProblem(n=32, c=16, h=8, w=8, k=64)),
    ("f22", ConvProblem(n=32, c=16, h=6, w=5, k=64)),
    ("f44", ConvProblem(n=32, c=16, h=8, w=8, k=32)),
    ("f44", ConvProblem(n=32, c=8, h=7, w=7, k=16)),
)


def _line(name: str, *parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
    return f"sha256 {name} {h.hexdigest()}"


@contextlib.contextmanager
def _recorded_launches() -> Iterator[list]:
    """The ``Counters`` (as tuples) of every ``SMSimulator.run`` in the block."""
    launches: list = []
    run = SMSimulator.run

    def recording(self, blocks):
        counters = run(self, blocks)
        launches.append(dataclasses.astuple(counters))
        return counters

    SMSimulator.run = recording
    try:
        yield launches
    finally:
        SMSimulator.run = run


def search_lines() -> Iterator[str]:
    """Each search's launches, then its winner."""
    for name in DEVICES:
        device = DEVICE_SPECS[name]
        for tile in TILES:
            with _recorded_launches() as launches:
                result = successive_halving(
                    QUICK_SPACE, device, budget=SearchBudget(max_rungs=2),
                    context=ExecutionContext(device=device), tile=tile,
                )
            for i, counters in enumerate(launches):
                yield _line(f"search/{name}/{tile}/launch{i:03d}", counters)
            yield f"winner search/{name}/{tile} {result.schedule.label()}"


def full_kernel_lines() -> Iterator[str]:
    """The default full kernels, one launch each."""
    for name in DEVICES:
        device = DEVICE_SPECS[name]
        for tile in TILES:
            tunables = default_tunables(tile)
            prob = dataclasses.replace(_SURROGATE, k=tunables.bk)
            result = _simulate_fused_kernel(
                prob, device, tunables, 3, None, ExecutionContext(device=device),
                tile, main_loop_only=False,
            )
            yield _line(f"full/{name}/{tile}/launch000", dataclasses.astuple(result.counters))


def sass_conv_lines(devices: tuple[str, ...] = DEVICES) -> Iterator[str]:
    """Each ``sass_conv`` problem's output and counters."""
    for name in devices:
        ctx = ExecutionContext(device=DEVICE_SPECS[name])
        rng = make_rng(7)
        for i, (tile, prob) in enumerate(SASS_CONV):
            x, f = random_activation(prob, rng), random_filter(prob, rng)
            y, counters = run_fused_sass_conv(x, f, tile=tile, context=ctx)
            yield _line(f"sass_conv/{name}/{tile}/{i}", y, dataclasses.astuple(counters))


def main() -> None:
    os.environ["REPRO_SIM_CACHE"] = "0"
    for line in itertools.chain(search_lines(), full_kernel_lines(), sass_conv_lines()):
        print(line)


if __name__ == "__main__":
    main()
