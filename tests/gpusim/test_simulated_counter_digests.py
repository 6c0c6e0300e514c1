"""The simulator reproduces the committed counter digests.

``simulated_counter_digests.txt`` holds a fast subset of the
``sha256 <name> <hex>`` lines ``benchmarks/digest_sim.py`` prints: the
default full f22 and f44 kernels (prologue, main loop and OTF epilogue)
on RTX2070 and V100, and the four ``sass_conv`` problems on RTX2070
(output bytes and counters).  A simulator refactor that claims every
simulated number unchanged is checked here; the script's full run adds
the schedule searches and V100's ``sass_conv``.  A change that moves a
simulated number on purpose regenerates the file::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python benchmarks/digest_sim.py \\
        | grep -E '^sha256 (full/|sass_conv/RTX2070/)' \\
        > tests/gpusim/simulated_counter_digests.txt
"""

import os
import pathlib
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "..", "benchmarks"))

from digest_sim import full_kernel_lines, sass_conv_lines  # noqa: E402

GOLDEN = pathlib.Path(__file__).with_name("simulated_counter_digests.txt")


def test_simulated_counters_match_the_committed_digests(monkeypatch):
    # Every launch must simulate: a cached payload would prove nothing.
    monkeypatch.setenv("REPRO_SIM_CACHE", "0")
    lines = [*full_kernel_lines(), *sass_conv_lines(devices=("RTX2070",))]
    assert lines == GOLDEN.read_text().splitlines()
