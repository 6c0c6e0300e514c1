"""The perf-regression gate's comparison logic and CLI exit codes.

``compare()`` is tested directly on synthetic payloads; the CLI paths
(baseline update, clean pass, injected regression) run ``main()`` with
the simulator patched to an instant cost model, so the full gate —
collect, inject, write artifact, compare, exit code — is exercised
without gpusim.
"""

import json
import os
import sys
import types

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "..", "benchmarks"))

import perf_regression  # noqa: E402


def _payload(metrics, winner="yield=natural/ldg8/sts6/db2", families=None):
    payload = {
        "device": "RTX2070",
        "iters": 3,
        "families": {
            "f22": {
                "space": "quick",
                "winner": winner,
                "metrics": dict(metrics),
            }
        },
    }
    if families:
        payload["families"].update(families)
    return payload


# ---------------------------------------------------------------------------
# compare()
# ---------------------------------------------------------------------------
def test_compare_clean():
    base = _payload({"a": 1000.0, "b": 2000.0})
    regressions, notes = perf_regression.compare(base, base, tolerance=0.10)
    assert regressions == [] and notes == []


def test_compare_within_tolerance_passes():
    base = _payload({"a": 1000.0})
    fresh = _payload({"a": 1090.0})  # +9% < 10%
    regressions, notes = perf_regression.compare(fresh, base, tolerance=0.10)
    assert regressions == [] and notes == []


def test_compare_flags_regression_beyond_tolerance():
    base = _payload({"a": 1000.0, "b": 2000.0})
    fresh = _payload({"a": 1150.0, "b": 2000.0})  # a: +15% > 10%
    regressions, notes = perf_regression.compare(fresh, base, tolerance=0.10)
    assert len(regressions) == 1
    assert "a" in regressions[0] and "+15.0%" in regressions[0]
    assert notes == []


def test_compare_winner_change_is_a_regression():
    base = _payload({"a": 1000.0})
    fresh = _payload({"a": 1000.0}, winner="yield=cudnn7/ldg2/sts2/db2")
    regressions, _ = perf_regression.compare(fresh, base, tolerance=0.10)
    assert len(regressions) == 1
    assert "winner changed" in regressions[0]


def test_compare_missing_metric_is_a_regression():
    base = _payload({"a": 1000.0, "gone": 500.0})
    fresh = _payload({"a": 1000.0})
    regressions, _ = perf_regression.compare(fresh, base, tolerance=0.10)
    assert regressions == ["[f22] metric disappeared: gone"]


def test_compare_improvement_and_new_metric_are_notes_only():
    base = _payload({"a": 1000.0})
    fresh = _payload({"a": 800.0, "new": 123.0})  # -20% plus a new metric
    regressions, notes = perf_regression.compare(fresh, base, tolerance=0.10)
    assert regressions == []
    assert len(notes) == 2
    assert any("improvement [f22] a" in n for n in notes)
    assert any("new metric" in n for n in notes)


def test_compare_missing_family_fails_loudly():
    f44 = {"f44": {"space": "quick", "winner": "w", "metrics": {"a": 1.0}}}
    base = _payload({"a": 1000.0})  # f22 only — predates the f44 kernels
    fresh = _payload({"a": 1000.0}, families=f44)
    regressions, _ = perf_regression.compare(fresh, base, tolerance=0.10)
    assert len(regressions) == 1
    assert "tile family 'f44'" in regressions[0]
    assert "un-gated" in regressions[0]


# ---------------------------------------------------------------------------
# main(): update -> pass -> injected failure, all against a tmp baseline
# ---------------------------------------------------------------------------
@pytest.fixture
def gate_env(monkeypatch, tmp_path):
    """Patch the simulator + baseline dir; return the CLI arg prefix."""

    def fake_measure(prob, device, tunables, iters=3, num_blocks=None,
                     context=None, tile=None):
        cycles = (
            5000.0
            - 60 * tunables.ldg_interleave
            - 10 * tunables.sts_interleave
            + {"natural": 0, "nvcc8": 60, "cudnn7": 100}[tunables.yield_strategy]
            + (40 if tunables.double_buffer == 1 else 0)
        )
        return types.SimpleNamespace(
            cycles_per_iter=cycles, tflops=1e6 / cycles, sol=0.9
        )

    monkeypatch.setattr("repro.sched.search.measure_main_loop", fake_measure)
    monkeypatch.setattr(
        "repro.sched.search.lint_gate_candidate", lambda *a, **k: None
    )
    baseline_dir = tmp_path / "baselines"
    monkeypatch.setattr(perf_regression, "BASELINE_DIR", str(baseline_dir))
    out_dir = tmp_path / "results"
    return ["--quick", "--device", "RTX2070", "--out-dir", str(out_dir)], out_dir


def test_gate_missing_baseline_exits_2_with_regen_command(gate_env, capsys):
    argv, _ = gate_env
    assert perf_regression.main(argv) == 2
    err = capsys.readouterr().err
    # The failure must be actionable: name the expected path and the
    # exact regeneration command for this device + profile.
    assert perf_regression.baseline_path("RTX2070") in err
    assert "--device RTX2070 --quick --update-baselines" in err


def test_gate_update_then_pass_then_injected_failure(gate_env, capsys):
    argv, out_dir = gate_env
    assert perf_regression.main(argv + ["--update-baselines"]) == 0
    baseline = json.loads(
        open(perf_regression.baseline_path("RTX2070")).read()
    )
    assert baseline["schema"] == perf_regression.SCHEMA_VERSION
    assert baseline["spec"]["name"] is not None
    families = baseline["profiles"]["quick"]["families"]
    assert set(families) == set(perf_regression.GATED_FAMILIES)
    assert families["f22"]["winner"] == "yield=natural/ldg8/sts6/db2"
    # quick space (12) plus the off-grid Fig. 7-9 axis variants
    assert len(families["f22"]["metrics"]) >= 12
    # the f44 gate covers its space (no f22-figure axis sweeps)
    assert len(families["f44"]["metrics"]) == 12

    assert perf_regression.main(argv) == 0
    assert "2 tile families" in capsys.readouterr().out

    # a 15% injected slowdown must fail the 10% gate on every metric
    assert perf_regression.main(argv + ["--inject-regression", "15"]) == 1
    err = capsys.readouterr().err
    assert "PERF REGRESSION" in err
    assert "+15.0%" in err
    # the fresh measurements are still written for the CI artifact
    bench = json.loads(
        (out_dir / "BENCH_sched_regression_rtx2070.json").read_text()
    )
    assert bench["injected_regression_pct"] == 15.0


def test_gate_baseline_without_f44_fails(gate_env, capsys):
    """A schema-2 baseline that never measured f44 loudly fails the gate."""
    argv, _ = gate_env
    assert perf_regression.main(argv + ["--update-baselines"]) == 0
    path = perf_regression.baseline_path("RTX2070")
    baseline = json.loads(open(path).read())
    del baseline["profiles"]["quick"]["families"]["f44"]
    with open(path, "w") as fh:
        json.dump(baseline, fh)
    assert perf_regression.main(argv) == 1
    assert "tile family 'f44'" in capsys.readouterr().err


def test_gate_schemaless_baseline_exits_2_with_regen_command(gate_env, capsys):
    """A pre-schema-2 file is regenerated, never compared or migrated."""
    argv, _ = gate_env
    path = perf_regression.baseline_path("RTX2070")
    os.makedirs(os.path.dirname(path))
    with open(path, "w") as fh:  # the original flat, f22-only layout
        json.dump({"device": "RTX2070", "space": "quick", "iters": 3,
                   "winner": "w", "metrics": {"a": 1.0}}, fh)
    assert perf_regression.main(argv) == 2
    err = capsys.readouterr().err
    assert path in err
    assert "--device RTX2070 --quick --update-baselines" in err
    # The printed command replaces the file with one that gates.
    assert perf_regression.main(argv + ["--update-baselines"]) == 0
    assert perf_regression.main(argv) == 0


def test_gate_rejects_baseline_from_other_space(gate_env):
    argv, _ = gate_env
    assert perf_regression.main(argv + ["--update-baselines"]) == 0
    path = perf_regression.baseline_path("RTX2070")
    stale = json.loads(open(path).read())
    stale["profiles"]["quick"]["families"]["f22"]["space"] = "some-other-space"
    with open(path, "w") as fh:
        json.dump(stale, fh)
    assert perf_regression.main(argv) == 2


def test_gate_missing_profile_is_actionable(gate_env, capsys):
    """A baseline with only the quick profile can't gate a full run."""
    argv, _ = gate_env
    assert perf_regression.main(argv + ["--update-baselines"]) == 0
    full_argv = [a for a in argv if a != "--quick"]
    assert perf_regression.main(full_argv) == 2
    err = capsys.readouterr().err
    assert "no 'full' profile" in err
    assert "--device RTX2070 --update-baselines" in err


def test_gate_update_preserves_other_profiles(gate_env):
    argv, _ = gate_env
    assert perf_regression.main(argv + ["--update-baselines"]) == 0
    full_argv = [a for a in argv if a != "--quick"]
    assert perf_regression.main(full_argv + ["--update-baselines"]) == 0
    baseline = json.loads(
        open(perf_regression.baseline_path("RTX2070")).read()
    )
    assert set(baseline["profiles"]) == {"quick", "full"}
    # the full f22 grid is 54 points; quick is the 12-point subset
    quick = baseline["profiles"]["quick"]["families"]["f22"]
    full = baseline["profiles"]["full"]["families"]["f22"]
    assert len(full["metrics"]) > len(quick["metrics"])
    # both profiles still gate cleanly after the merge
    assert perf_regression.main(argv) == 0
    assert perf_regression.main(full_argv) == 0


def test_gate_rejects_device_spec_drift(gate_env, capsys):
    argv, _ = gate_env
    assert perf_regression.main(argv + ["--update-baselines"]) == 0
    path = perf_regression.baseline_path("RTX2070")
    stale = json.loads(open(path).read())
    stale["spec"]["num_sms"] = stale["spec"]["num_sms"] + 1
    with open(path, "w") as fh:
        json.dump(stale, fh)
    assert perf_regression.main(argv) == 2
    err = capsys.readouterr().err
    assert "different RTX2070 spec" in err
    assert "num_sms" in err


def test_gate_accepts_device_aliases(gate_env):
    """--device goes through the registry: aliases and case both work."""
    argv, _ = gate_env
    alias_argv = ["--quick" if a == "--quick" else a for a in argv]
    alias_argv[alias_argv.index("RTX2070")] = "turing"
    assert perf_regression.main(alias_argv + ["--update-baselines"]) == 0
    # the baseline lands under the canonical key, not the alias
    assert os.path.exists(perf_regression.baseline_path("RTX2070"))
    assert perf_regression.main(argv) == 0


def test_gate_unknown_device_exits_2(gate_env, capsys):
    argv, _ = gate_env
    argv = list(argv)
    argv[argv.index("RTX2070")] = "H100"
    assert perf_regression.main(argv) == 2
    assert "unknown device" in capsys.readouterr().err.lower()
