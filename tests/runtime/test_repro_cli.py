"""``python -m repro`` dispatch and the ``session`` subcommand."""

import json
import subprocess
import sys

import pytest

from repro.__main__ import main as repro_main
from repro.runtime.cli import main as cli_main


def test_unknown_command_exits_2(capsys):
    assert repro_main(["frobnicate"]) == 2
    assert "unknown command" in capsys.readouterr().err


def test_no_command_prints_usage(capsys):
    assert repro_main([]) == 2
    assert "sass" in capsys.readouterr().out


def test_help_exits_0(capsys):
    assert repro_main(["--help"]) == 0
    assert "session" in capsys.readouterr().out


def test_sass_dispatch_reaches_sub_cli():
    # The sub-CLI's own argparse handles --help and exits 0.
    with pytest.raises(SystemExit) as exc:
        repro_main(["sass", "--help"])
    assert exc.value.code == 0


def test_kernels_dispatch_reaches_sub_cli():
    with pytest.raises(SystemExit) as exc:
        repro_main(["kernels", "--help"])
    assert exc.value.code == 0


def test_session_runs_tiny_problem(tmp_path, capsys):
    out_json = tmp_path / "result.json"
    trace = tmp_path / "trace.json"
    rc = cli_main([
        "session", "--layers", "Conv3", "--batch", "1",
        "--json", str(out_json), "--trace", str(trace),
    ])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "Conv3N1" in captured
    payload = json.loads(out_json.read_text())
    assert payload["layers"][0]["layer"] == "Conv3N1"
    spans = json.loads(trace.read_text())
    assert any(s["kind"] == "plan" for s in spans)


def test_session_forced_algorithm(capsys):
    rc = cli_main([
        "session", "--layers", "Conv3", "--batch", "1", "--mode", "DIRECT",
    ])
    assert rc == 0
    assert "DIRECT" in capsys.readouterr().out


def test_session_mode_the_dispatcher_cannot_plan_is_an_error(capsys):
    rc = cli_main([
        "session", "--layers", "Conv3", "--batch", "1",
        "--mode", "WINOGRAD_REFERENCE",
    ])
    assert rc == 1
    assert "unknown session mode 'WINOGRAD_REFERENCE'" in capsys.readouterr().err


@pytest.mark.slow
def test_module_invocation_subprocess(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "session",
         "--layers", "Conv3", "--batch", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Conv3N1" in proc.stdout
