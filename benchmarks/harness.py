"""Shared machinery for the reproduction benchmarks.

Each ``bench_*.py`` regenerates one of the paper's tables or figures:
it prints the same rows/series the paper reports (side by side with the
paper's values where the text gives them) and exposes the underlying
computation to pytest-benchmark.

The benches call ``measure_main_loop``, ``our_layer_performance`` and
``cudnn_time`` directly; the current context's build and simulation
caches are the only memo, so a full ``pytest benchmarks/
--benchmark-only`` run simulates each (device, ``Tunables``) main loop
once however many figures read it, and sweeps that spell the same
configuration differently (``yield_strategy="natural"`` vs the default)
share one entry.  ``benchmarks/conftest.py`` turns on the simulation
cache's disk tier, which persists the simulations between runs.
"""

from __future__ import annotations

import os
import re

from repro.common import format_table
from repro.gpusim import RTX2070, V100

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

DEVICES = {"V100": V100, "RTX2070": RTX2070}


# Slug → title of every result emitted this run, to refuse silent
# overwrites when two distinct titles sanitize to the same filename.
_EMITTED: dict = {}


def result_slug(title: str) -> str:
    """Filesystem-safe slug for a result title (lowercase, [a-z0-9._-])."""
    slug = re.sub(r"[^a-z0-9._-]+", "_", title.lower()).strip("._-")
    return slug or "untitled"


def emit(title: str, text: str) -> None:
    """Print a result block and archive it under benchmarks/results/."""
    print()
    print(text)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    slug = result_slug(title)
    previous = _EMITTED.get(slug)
    if previous is not None and previous != title:
        raise RuntimeError(
            f"benchmark result collision: titles {previous!r} and {title!r} "
            f"both slugify to {slug!r}; rename one"
        )
    _EMITTED[slug] = title
    with open(os.path.join(RESULTS_DIR, f"{slug}.txt"), "w") as fh:
        fh.write(text + "\n")


def paper_vs_measured_table(title, rows, headers=("item", "paper", "measured")):
    return format_table(list(headers), rows, title=title)
