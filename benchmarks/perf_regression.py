"""CI perf-regression gate for the simulated main-loop cycle counts.

Runs the ``repro.sched`` schedule search plus the Fig. 7-9 axis sweeps,
then compares every measured cycles-per-iteration metric against the
checked-in per-device baseline
``benchmarks/baselines/sched_<device>.json``:

* a metric more than ``--tolerance`` (default 10%) *slower* than its
  baseline fails the gate (exit 1);
* a metric more than ``--tolerance`` *faster* is reported as an
  improvement — rerun with ``--update-baselines`` to lock it in;
* a changed search winner fails the gate (the simulator is
  deterministic, so the winner only moves when the code does);
* both tile families (f22 and f44) are measured, and a baseline with no
  metrics for a measured family fails loudly — a shipped kernel family
  must never run un-gated.

Baselines are **schema 2**: one file per device, carrying the exact
:class:`~repro.gpusim.arch.DeviceSpec` the metrics were measured on plus
one profile per gate configuration::

    {"schema": 2, "device": "V100", "spec": {...},
     "profiles": {"quick": {"iters": 3, "families": {...}},
                  "full":  {"iters": 3, "families": {...}}}}

``--quick`` gates against the ``quick`` profile (QUICK_SPACE, 2 rungs —
the per-PR CI configuration); without it the ``full`` profile (the
entire 54-point f22 grid + 27-point f44 grid — the nightly
configuration).  ``--update-baselines`` regenerates only the profile it
ran, preserving the other.  A baseline file that is not schema 2, or
whose embedded device spec no longer matches the registry, fails the
run (exit 2) and prints the regeneration command: the numbers were
measured in another layout or on a different machine model, so
comparing against them is meaningless.

The fresh measurements are always written to
``<out-dir>/BENCH_sched_regression_<device>.json`` so CI can upload
them as an artifact whether the gate passes or fails.

``--inject-regression PCT`` inflates every measured cycle count by
PCT percent before comparing — the knob used to demonstrate that the
gate actually fails (e.g. ``--inject-regression 15`` against a 10%
tolerance).

Usage::

    python benchmarks/perf_regression.py --quick                # CI gate
    python benchmarks/perf_regression.py --device V100 --quick
    python benchmarks/perf_regression.py --quick --update-baselines
    python benchmarks/perf_regression.py --quick --inject-regression 15
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.common.errors import DeviceError
from repro.gpusim import DEVICES, canonical_device_key
from repro.runtime import ExecutionContext
from repro.sched import (
    DEFAULT_SPACE,
    F44_SPACE,
    PAPER_SCHEDULE,
    QUICK_SPACE,
    SCHEDULE_FIELDS,
    SearchBudget,
    evaluate_schedule,
    successive_halving,
)

BASELINE_DIR = os.path.join(os.path.dirname(__file__), "baselines")

SCHEMA_VERSION = 2

#: Both shipped tile families are gated; a baseline that predates one of
#: them fails loudly instead of silently skipping the new kernels.
GATED_FAMILIES = ("f22", "f44")


def _slug(device_key: str) -> str:
    return device_key.lower()


def baseline_path(device_key: str) -> str:
    return os.path.join(BASELINE_DIR, f"sched_{_slug(device_key)}.json")


def _regen_command(device_key: str, profile: str) -> str:
    quick = " --quick" if profile == "quick" else ""
    return (
        f"PYTHONPATH=src python benchmarks/perf_regression.py "
        f"--device {device_key}{quick} --update-baselines"
    )


def _collect_family(device, tile: str, space, budget, ctx,
                    axis_sweeps: bool) -> dict:
    """One tile family's gated metrics: rung-0 search scores (+ sweeps)."""
    result = successive_halving(space, device, budget=budget, context=ctx,
                                tile=tile)
    metrics: dict[str, float] = {
        score.schedule.label(): score.cycles_per_iter
        for score in result.rungs[0]
    }
    # Every space candidate must land in the baseline even if a future
    # budget turns on the static pruner (pruned candidates never reach
    # rung 0); the gate's whole point is full-space coverage.
    pending: dict[str, object] = {}
    for schedule in space.candidates():
        label = schedule.label()
        if label not in metrics:
            pending[label] = schedule
    # The Fig. 7-9 sweeps (plus the §3.4 double-buffer ablation): axis
    # variants around the paper schedule, measured at the same budget —
    # cached points are free, the rest complete the figure coverage.
    # They are f22 figures (the db1 ablation cannot even assemble on the
    # f44 fragments), so the f44 gate covers its space only.
    if axis_sweeps:
        for field in SCHEDULE_FIELDS:
            for schedule in DEFAULT_SPACE.axis_variants(
                    field, PAPER_SCHEDULE).values():
                label = schedule.label()
                if label not in metrics and label not in pending:
                    pending[label] = schedule
    for label, schedule in pending.items():
        metrics[label] = evaluate_schedule(
            schedule, device, iters=budget.base_iters, context=ctx, tile=tile,
        ).cycles_per_iter
    return {
        "space": result.space_signature,
        "winner": result.best.schedule.label(),
        "metrics": metrics,
    }


def collect_metrics(device_key: str, quick: bool) -> dict:
    """Measure every gated metric fresh; returns one profile payload.

    Metrics are the rung-0 scores of the schedule search (every
    candidate at the same budget) plus the Fig. 7-9 axis variants, all
    simulated cycles per main-loop iteration — deterministic, so any
    drift is a code change, not noise.  Both tile families are measured:
    ``f22`` walks its full space + sweeps, ``f44`` its own space.
    """
    device = DEVICES[device_key]
    budget = SearchBudget(max_rungs=2 if quick else 3)
    ctx = ExecutionContext(device=device)
    # QUICK_SPACE pins double_buffer=2, so it is a valid f44 subset too.
    spaces = {
        "f22": QUICK_SPACE if quick else DEFAULT_SPACE,
        "f44": QUICK_SPACE if quick else F44_SPACE,
    }
    families = {
        tile: _collect_family(device, tile, spaces[tile], budget, ctx,
                              axis_sweeps=(tile == "f22"))
        for tile in GATED_FAMILIES
    }
    return {
        "iters": budget.base_iters,
        "families": families,
    }


def compare(fresh: dict, baseline: dict, tolerance: float) -> tuple[list, list]:
    """(regressions, notes) from comparing *fresh* against *baseline*.

    Both arguments are profile payloads (``{"iters", "families"}``).
    Regressions are gate failures: slower-than-tolerance metrics,
    metrics that disappeared, a changed search winner, or a whole tile
    family the baseline never measured (a silently un-gated kernel is
    exactly the regression this script exists to prevent).  Notes are
    informational: improvements beyond tolerance and brand-new metrics.
    """
    regressions: list[str] = []
    notes: list[str] = []
    for family, fresh_fam in fresh["families"].items():
        base_fam = baseline["families"].get(family)
        if base_fam is None:
            regressions.append(
                f"baseline has no metrics for measured tile family "
                f"'{family}' — its kernels are running un-gated; rerun "
                "with --update-baselines to cover it"
            )
            continue
        if fresh_fam["winner"] != base_fam["winner"]:
            regressions.append(
                f"[{family}] search winner changed: "
                f"{base_fam['winner']} -> {fresh_fam['winner']}"
            )
        for label, base_cycles in base_fam["metrics"].items():
            cycles = fresh_fam["metrics"].get(label)
            if cycles is None:
                regressions.append(f"[{family}] metric disappeared: {label}")
                continue
            ratio = cycles / base_cycles
            if ratio > 1.0 + tolerance:
                regressions.append(
                    f"[{family}] {label}: {cycles:.0f} cycles vs baseline "
                    f"{base_cycles:.0f} ({(ratio - 1) * 100:+.1f}%)"
                )
            elif ratio < 1.0 - tolerance:
                notes.append(
                    f"improvement [{family}] {label}: {cycles:.0f} cycles "
                    f"vs baseline {base_cycles:.0f} "
                    f"({(ratio - 1) * 100:+.1f}%) — "
                    "rerun with --update-baselines to lock it in"
                )
        for label in fresh_fam["metrics"]:
            if label not in base_fam["metrics"]:
                notes.append(
                    f"new metric (no baseline yet): [{family}] {label}"
                )
    return regressions, notes


def _load_baseline(device_key: str) -> dict | None:
    path = baseline_path(device_key)
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def update_baseline(device_key: str, profile: str, fresh_profile: dict) -> str:
    """Merge *fresh_profile* into the device baseline, preserving the
    other profiles of a schema-2 file (any other layout is replaced)."""
    old = _load_baseline(device_key) or {}
    profiles = old["profiles"] if old.get("schema") == SCHEMA_VERSION else {}
    profiles[profile] = fresh_profile
    baseline = {
        "schema": SCHEMA_VERSION,
        "device": device_key,
        "spec": DEVICES[device_key].to_dict(),
        "profiles": profiles,
    }
    os.makedirs(BASELINE_DIR, exist_ok=True)
    path = baseline_path(device_key)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(baseline, fh, indent=2, sort_keys=True)
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--device", default="RTX2070",
                        help="simulated device: registry key, spec name or "
                             "alias (default: RTX2070)")
    parser.add_argument("--quick", action="store_true",
                        help="QUICK_SPACE + 2 rungs (the per-PR CI profile); "
                             "omit for the full grids (the nightly profile)")
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="allowed fractional slowdown (default: 0.10)")
    parser.add_argument("--update-baselines", action="store_true",
                        help="write the fresh metrics as the new baseline "
                             "profile (other profiles are preserved)")
    parser.add_argument("--inject-regression", type=float, default=None,
                        metavar="PCT",
                        help="inflate measured cycles by PCT%% (gate self-test)")
    parser.add_argument("--out-dir", default=os.path.join(
                            os.path.dirname(__file__), "results"),
                        help="where BENCH_*.json lands (default: results/)")
    args = parser.parse_args(argv)

    try:
        device_key = canonical_device_key(args.device)
    except DeviceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    profile = "quick" if args.quick else "full"

    fresh_profile = collect_metrics(device_key, args.quick)
    if args.inject_regression is not None:
        factor = 1.0 + args.inject_regression / 100.0
        for fam in fresh_profile["families"].values():
            fam["metrics"] = {
                label: cycles * factor
                for label, cycles in fam["metrics"].items()
            }
        fresh_profile["injected_regression_pct"] = args.inject_regression
        print(f"injected a synthetic {args.inject_regression:+.1f}% on every metric")

    os.makedirs(args.out_dir, exist_ok=True)
    bench_path = os.path.join(
        args.out_dir, f"BENCH_sched_regression_{_slug(device_key)}.json"
    )
    with open(bench_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "schema": SCHEMA_VERSION,
                "device": device_key,
                "spec": DEVICES[device_key].to_dict(),
                "profile": profile,
                **fresh_profile,
            },
            fh, indent=2, sort_keys=True,
        )
    summary = ", ".join(
        f"{family}: {len(fam['metrics'])} metrics, winner {fam['winner']}"
        for family, fam in fresh_profile["families"].items()
    )
    print(f"wrote {bench_path} ({profile} profile; {summary})")

    if args.update_baselines:
        path = update_baseline(device_key, profile, fresh_profile)
        print(f"updated {path} ({profile} profile)")
        return 0

    path = baseline_path(device_key)
    baseline = _load_baseline(device_key)
    if baseline is None:
        print(f"error: no baseline for device {device_key} at {path}; "
              f"generate it with:\n  {_regen_command(device_key, profile)}",
              file=sys.stderr)
        return 2
    if baseline.get("schema") != SCHEMA_VERSION:
        print(f"error: baseline {path} is not schema {SCHEMA_VERSION}; "
              f"regenerate it with:\n  {_regen_command(device_key, profile)}",
              file=sys.stderr)
        return 2
    spec = baseline.get("spec") or {}
    current = DEVICES[device_key].to_dict()
    if spec != current:
        drifted = sorted(
            k for k in set(spec) | set(current) if spec.get(k) != current.get(k)
        )
        print(f"error: baseline {path} was measured on a different "
              f"{device_key} spec (drifted fields: {', '.join(drifted)}); "
              f"regenerate it with:\n  {_regen_command(device_key, profile)}",
              file=sys.stderr)
        return 2
    base_profile = baseline["profiles"].get(profile)
    if base_profile is None:
        have = sorted(baseline["profiles"]) or ["none"]
        print(f"error: baseline {path} has no '{profile}' profile "
              f"(profiles present: {', '.join(have)}); generate it with:\n"
              f"  {_regen_command(device_key, profile)}",
              file=sys.stderr)
        return 2
    if base_profile.get("iters") != fresh_profile["iters"]:
        print(f"error: baseline {path} was generated at a different budget "
              f"({base_profile.get('iters')} iters vs "
              f"{fresh_profile['iters']}); regenerate it with:\n"
              f"  {_regen_command(device_key, profile)}", file=sys.stderr)
        return 2
    for family, fam in fresh_profile["families"].items():
        base_fam = base_profile["families"].get(family)
        if base_fam is not None and base_fam.get("space") != fam["space"]:
            print(f"error: baseline {path} covers a different {family} "
                  f"space ({base_fam.get('space')} vs {fam['space']}); "
                  f"regenerate it with:\n  {_regen_command(device_key, profile)}",
                  file=sys.stderr)
            return 2

    regressions, notes = compare(fresh_profile, base_profile, args.tolerance)
    for note in notes:
        print(f"note: {note}")
    if regressions:
        print(f"\nPERF REGRESSION ({len(regressions)} metric(s) beyond "
              f"{args.tolerance * 100:.0f}% tolerance):", file=sys.stderr)
        for line in regressions:
            print(f"  {line}", file=sys.stderr)
        return 1
    gated = sum(len(f["metrics"]) for f in base_profile["families"].values())
    print(f"perf gate OK [{device_key}/{profile}]: {gated} metrics across "
          f"{len(base_profile['families'])} tile families within "
          f"{args.tolerance * 100:.0f}% of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
