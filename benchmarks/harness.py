"""Shared machinery for the reproduction benchmarks.

Each ``bench_*.py`` regenerates one of the paper's tables or figures:
it prints the same rows/series the paper reports (side by side with the
paper's values where the text gives them) and exposes the underlying
computation to pytest-benchmark.

Main-loop measurements are cached at module level so a full
``pytest benchmarks/ --benchmark-only`` run re-uses each one instead of
repeating it per figure.  The memo is keyed by the canonical
``(device, Tunables)`` pair — sweeps that spell the same configuration
differently (``yield_strategy="natural"`` vs the default) share one
measurement — and can be pre-warmed through the
``repro.runtime.parallel`` process pool (``prewarm_*`` below), with the
persistent simulation cache (``repro.kernels.get_sim_cache_stats``)
making repeated sweeps nearly free.  The layer model memoizes through
that simulation cache on its own.
"""

from __future__ import annotations

import functools
import io
import os
import re
import sys

from repro.common import format_table
from repro.gpusim import RTX2070, V100
from repro.kernels import Tunables, WinogradF22Kernel, measure_main_loop
from repro.models import paper_layers
from repro.perfmodel import cudnn_time, our_layer_performance
from repro.runtime.parallel import parallel_map

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

DEVICES = {"V100": V100, "RTX2070": RTX2070}

# The main loop's per-iteration cost is layer-independent at fixed
# tunables (same block shape, §4); a mid-size surrogate keeps the
# simulation fast.  Layer-to-layer variation in the figures comes from
# grid utilization (tail waves) and iteration counts.
from repro.perfmodel.layer_model import _SURROGATE  # noqa: E402

# (device name, Tunables) → MainLoopMeasurement.  A dict rather than an
# lru_cache so the parallel prewarm can seed it with worker results.
_MEASUREMENTS: dict = {}


def seed_main_loop_measurement(device_name: str, tunables: Tunables, meas) -> None:
    _MEASUREMENTS[(device_name, tunables)] = meas


def main_loop_worker(args):
    """Pool worker: one (device, tunables) main-loop measurement."""
    device_name, tunables = args
    return measure_main_loop(_SURROGATE, device=DEVICES[device_name], tunables=tunables)


def main_loop_measurement(device_name: str, context=None, **tunable_kwargs):
    """Memoized main-loop measurement for one (device, tunables) pair.

    *context* is the :class:`repro.runtime.ExecutionContext` supplying
    the build/simulation caches and trace spans (default: the current
    context, so existing callers are unchanged).
    """
    tunables = Tunables(**dict(tunable_kwargs))
    key = (device_name, tunables)
    if key not in _MEASUREMENTS:
        _MEASUREMENTS[key] = measure_main_loop(
            _SURROGATE, device=DEVICES[device_name], tunables=tunables,
            context=context,
        )
    return _MEASUREMENTS[key]


def prewarm_main_loop_measurements(device_name: str, variant_kwargs) -> int:
    """Fan the not-yet-measured variants out over the process pool.

    ``variant_kwargs`` is an iterable of tunable-kwargs dicts (the values
    of a sweep's ``variants`` mapping).  Distinct spellings of the same
    ``Tunables`` dedupe to one task; results seed the measurement memo
    in deterministic order.  Returns the number of tasks computed.
    """
    pending: list = []
    for kwargs in variant_kwargs:
        tunables = Tunables(**dict(kwargs))
        key = (device_name, tunables)
        if key not in _MEASUREMENTS and (device_name, tunables) not in pending:
            pending.append((device_name, tunables))
    results = parallel_map(main_loop_worker, pending)
    for (dev, tunables), meas in zip(pending, results):
        seed_main_loop_measurement(dev, tunables, meas)
    return len(pending)


def schedule_measurement(device_name: str, schedule, context=None):
    """Memoized main-loop measurement for one :class:`repro.sched.Schedule`.

    The schedule-first twin of :func:`main_loop_measurement`: figures and
    the ``repro.sched`` tuner describe configurations with the same
    vocabulary, and because a ``Schedule``'s fields are ``Tunables``
    fields, both share one memo entry per canonical configuration.
    """
    return main_loop_measurement(device_name, context=context, **schedule.to_dict())


def prewarm_schedule_measurements(device_name: str, schedules) -> int:
    """Fan not-yet-measured schedules out over the process pool."""
    return prewarm_main_loop_measurements(
        device_name, [s.to_dict() for s in schedules]
    )


def schedule_tflops(layer_name: str, device_name: str, schedule) -> float:
    """Device-level main-loop TFLOPS of one layer under one schedule."""
    return main_loop_tflops(layer_name, device_name, **schedule.to_dict())


@functools.lru_cache(maxsize=None)
def layer_result(layer_name: str, device_name: str):
    prob = next(p for p in paper_layers() if p.name == layer_name)
    return our_layer_performance(prob, DEVICES[device_name])


@functools.lru_cache(maxsize=None)
def cudnn_layer_time(layer_name: str, device_name: str, algo: str) -> float:
    prob = next(p for p in paper_layers() if p.name == layer_name)
    return cudnn_time(prob, DEVICES[device_name], algo)


def grid_utilization(prob, device, tunables: Tunables | None = None):
    """Tail-wave utilization of the fused kernel's launch (Figs. 7-11)."""
    gen = WinogradF22Kernel(prob, tunables or Tunables())
    blocks = gen.grid[0] * gen.grid[1]
    return blocks / (device.waves(blocks) * device.num_sms)


def main_loop_tflops(layer_name: str, device_name: str, **tunable_kwargs) -> float:
    """Device-level main-loop TFLOPS for one layer (the Fig. 7-9 y-axis)."""
    prob = next(p for p in paper_layers() if p.name == layer_name)
    meas = main_loop_measurement(device_name, **tunable_kwargs)
    util = grid_utilization(prob, DEVICES[device_name],
                            Tunables(**dict(tunable_kwargs)))
    return meas.tflops * util


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
