"""Unit tests for the SASS static analyzer: one crafted violation per rule."""

import dataclasses
import json

import numpy as np
import pytest

from repro.sass import hw, parse_program, schedule, validate_control
from repro.sass.analysis import (
    ControlCodePass,
    Diagnostic,
    LivenessPass,
    RegisterBankPass,
    Severity,
    SharedMemoryPass,
    count_by_severity,
    errors,
    lint_instructions,
    max_severity,
    render_json,
    render_text,
)
from repro.sass.operands import Pred
from repro.sass.preprocess import KernelMeta


def _prog(src):
    return parse_program(src).instructions


def _rules(diags):
    return [d.rule for d in diags]


def _run(pass_, src, meta=None):
    return lint_instructions(_prog(src), meta=meta, passes=[pass_])


# ---------------------------------------------------------------------------
# Diagnostic framework
# ---------------------------------------------------------------------------


def test_severity_ordering():
    assert Severity.INFO.rank < Severity.WARNING.rank < Severity.ERROR.rank
    diags = [
        Diagnostic("X1", Severity.INFO, 0, "MOV", "a"),
        Diagnostic("X2", Severity.ERROR, 1, "MOV", "b"),
    ]
    assert max_severity(diags) is Severity.ERROR
    assert max_severity([]) is None
    assert [d.rule for d in errors(diags)] == ["X2"]
    assert count_by_severity(diags) == {"info": 1, "warning": 0, "error": 1}


def test_diagnostic_text_and_json():
    d = Diagnostic("RB001", Severity.WARNING, 12, "FFMA", "msg", hint="fix")
    assert d.text() == "instr 12 (FFMA): warning RB001: msg [hint: fix]"
    assert Diagnostic("LV001", Severity.INFO, -1, "", "m").text().startswith(
        "program:"
    )
    payload = json.loads(render_json([d], kernel_name="k"))
    assert payload["kernel"] == "k"
    assert payload["summary"]["warning"] == 1
    assert payload["diagnostics"][0]["rule"] == "RB001"
    assert "1 warning(s)" in render_text([d], kernel_name="k")


# ---------------------------------------------------------------------------
# Register-bank pass (RB001-RB004)
# ---------------------------------------------------------------------------


def test_rb001_same_bank_sources_warn():
    # R1, R3, R5 all live in the odd bank: the Fig. 4 conflict.
    diags = _run(RegisterBankPass(), "FFMA R0, R1, R3, R5;\nEXIT;\n")
    assert _rules(diags) == ["RB001"]
    assert diags[0].severity is Severity.WARNING
    assert "odd" in diags[0].message


def test_rb001_silenced_by_reuse():
    src = (
        "FFMA R0, R1.reuse, R3, R5;\n"
        "FFMA R2, R1, R7, R9;\n"  # slot 0 R1 served by the cache: 2 reads
        "EXIT;\n"
    )
    diags = _run(RegisterBankPass(), src)
    assert "RB001" not in [d.rule for d in diags if d.pos == 1]


def test_rb001_mixed_banks_clean():
    diags = _run(RegisterBankPass(), "FFMA R0, R1, R2, R5;\nEXIT;\n")
    assert diags == []


def test_rb002_stale_reuse_is_error():
    # The load overwrites R2 between the latch and its consumer: hardware
    # serves the stale latched value.
    src = (
        "FFMA R0, R8, R2.reuse, R4;\n"
        "LDG.E R2, [R6];\n"
        "FFMA R1, R8, R2.reuse, R5;\n"
        "EXIT;\n"
    )
    diags = _run(RegisterBankPass(), src)
    assert "RB002" in _rules(diags)
    (rb002,) = [d for d in diags if d.rule == "RB002"]
    assert rb002.severity is Severity.ERROR
    assert rb002.pos == 2


def test_rb003_dead_reuse_flag():
    src = (
        "FFMA R0, R8, R3.reuse, R4;\n"
        "FFMA R1, R8, R7, R5;\n"  # slot 1 reads R7, not R3: latch wasted
        "EXIT;\n"
    )
    diags = _run(RegisterBankPass(), src)
    assert _rules(diags) == ["RB003"]
    assert diags[0].pos == 0


def test_rb003_also_fires_at_end_of_program():
    diags = _run(RegisterBankPass(), "FFMA R0, R8, R3.reuse, R4;\nEXIT;\n")
    assert "RB003" not in _rules(diags)  # EXIT resets without judging

    diags = _run(RegisterBankPass(), "FFMA R0, R8, R3.reuse, R4;\n")
    assert _rules(diags) == ["RB003"]


def test_rb004_reuse_with_yield():
    src = (
        "[B------:R-:W-:Y:S01] FFMA R0, R8, R2.reuse, R4;\n"
        "FFMA R1, R8, R2, R5;\n"
        "EXIT;\n"
    )
    diags = _run(RegisterBankPass(), src)
    assert "RB004" in _rules(diags)


def test_reuse_across_memory_op_still_serves():
    # The cache is only replaced by register-file instructions; an LDS in
    # between passes it through (mirrors the simulator).
    src = (
        "FFMA R0, R8, R3.reuse, R4;\n"
        "LDS R10, [R12];\n"
        "FFMA R1, R8, R3, R5;\n"
        "EXIT;\n"
    )
    diags = _run(RegisterBankPass(), src)
    assert diags == []


# ---------------------------------------------------------------------------
# Shared-memory pass (SM001-SM004)
# ---------------------------------------------------------------------------


def test_sm001_strided_lds_conflict():
    # addr = tid * 128: every lane hits bank 0 -> 32-way conflict.
    src = (
        "S2R R0, SR_TID.X;\n"
        "SHF.L R1, R0, 0x7, RZ;\n"
        "LDS R2, [R1];\n"
        "EXIT;\n"
    )
    diags = _run(SharedMemoryPass(), src)
    assert _rules(diags) == ["SM001"]
    assert diags[0].severity is Severity.WARNING
    assert "32-way" in diags[0].message


def test_sm001_unit_stride_clean():
    src = (
        "S2R R0, SR_TID.X;\n"
        "SHF.L R1, R0, 0x2, RZ;\n"  # addr = tid*4: one bank per lane
        "LDS R2, [R1];\n"
        "STS [R1], R2;\n"
        "EXIT;\n"
    )
    assert _run(SharedMemoryPass(), src) == []


def test_sm002_misaligned_vector_access():
    src = (
        "MOV R1, 0x4;\n"
        "LDS.128 R4, [R1];\n"  # 4 % 16 != 0
        "EXIT;\n"
    )
    diags = _run(SharedMemoryPass(), src)
    assert "SM002" in _rules(diags)
    (sm002,) = [d for d in diags if d.rule == "SM002"]
    assert sm002.severity is Severity.ERROR


def test_sm003_out_of_bounds_vs_smem_directive():
    meta = KernelMeta(name="t", smem_bytes=64)
    src = (
        "MOV R1, 0x40;\n"
        "LDS R2, [R1];\n"  # 0x40 + 4 > 64
        "EXIT;\n"
    )
    diags = _run(SharedMemoryPass(), src, meta=meta)
    assert "SM003" in _rules(diags)
    assert [d for d in diags if d.rule == "SM003"][0].severity is Severity.ERROR
    # Without metadata the bounds check degrades gracefully.
    assert "SM003" not in _rules(_run(SharedMemoryPass(), src))


def test_sm004_unknown_address_reported_as_info():
    src = (
        "[B------:R-:W0:-:S01] LDG.E R1, [R2];\n"
        "[B0-----:R-:W-:-:S04] LDS R3, [R1];\n"  # address is memory contents
        "EXIT;\n"
    )
    diags = _run(SharedMemoryPass(), src)
    assert _rules(diags) == ["SM004"]
    assert diags[0].severity is Severity.INFO


def test_guarded_lanes_excluded():
    # Only lane 0 of each warp (tid % 32 == 0) executes the strided load:
    # a single active lane cannot conflict.
    src = (
        "S2R R0, SR_TID.X;\n"
        "LOP3.AND R3, R0, 0x1f, RZ;\n"
        "ISETP.EQ.AND P0, PT, R3, RZ, PT;\n"
        "SHF.L R1, R0, 0x7, RZ;\n"
        "@P0 LDS R2, [R1];\n"
        "EXIT;\n"
    )
    assert _run(SharedMemoryPass(), src) == []


def test_sm001_names_the_worst_warp_first_among_ties():
    # addr = lane << (2 + warp): warp w's lanes sit 2**w words apart, a
    # min(2**w, 32)-way conflict.  Warp 1 conflicts first (2-way); the
    # worst, 32-way, is reached by warps 5, 6 and 7.
    src = (
        "S2R R0, SR_TID.X;\n"
        "SHF.R R1, R0, 0x5, RZ;\n"  # warp = tid / 32
        "LOP3.AND R2, R0, 0x1f, RZ;\n"  # lane
        "IADD3 R3, R1, 0x2, RZ;\n"
        "SHF.L R4, R2, R3, RZ;\n"
        "LDS R5, [R4];\n"
        "EXIT;\n"
    )
    (diag,) = _run(SharedMemoryPass(), src)
    assert diag.rule == "SM001"
    assert diag.message.startswith(
        "warp 5: 32-way bank conflict (31 extra MIO cycle(s)"
    )


def test_static_bank_model_matches_simulator():
    """The shared bank rule agrees, warp by warp, with the reference
    engine's scalar oracle over multi-warp ``(g, 32)`` groups."""
    from repro.gpusim.memory import bank_conflict_report

    rng = np.random.default_rng(7)
    for width in (4, 8, 16):
        for g in (1, 3, 8):
            for _ in range(8):
                addrs = (
                    rng.integers(0, 2048 // width, size=(g, 32)) * width
                ).astype(np.int64)
                active = rng.random((g, 32)) < 0.8
                active[0, : 128 // width] = False  # an idle phase
                if g > 1:
                    active[-1] = False  # an idle warp
                cycles, worst = hw.bank_phases(addrs, width, active)
                for w in range(g):
                    report = bank_conflict_report(addrs[w], width, active[w])
                    assert cycles[w] == report.cycles
                    assert (worst[w] > 1) == (report.conflicts > 0)
                    assert 1 <= worst[w] <= report.conflicts + 1


@pytest.mark.parametrize("tile", ["f22", "f44"])
def test_static_addresses_match_the_fast_replay(monkeypatch, tile):
    """The static address model cannot drift from the dynamic one.

    Every shared access sasslint resolves in a default full kernel has
    the ``(num_warps, 32)`` addresses and active lanes that the fast
    engine's replay computes at the instruction's first execution in
    block 0.
    """
    from repro.gpusim import V100, fastsim, simulate_resident_blocks
    from repro.kernels.runner import _problem_image
    from repro.kernels.winograd_fused import default_tunables, kernel_for_tile
    from repro.perfmodel.layer_model import _SURROGATE
    from repro.sass.analysis import AnalysisContext, shared_access_table

    tunables = default_tunables(tile)
    prob = dataclasses.replace(_SURROGATE, k=tunables.bk)
    kernel = kernel_for_tile(prob, tile, tunables).build()
    pcs: dict[int, int] = {}
    replayed = {}
    exec_smem = fastsim._Replay._exec_smem

    def recording_exec_smem(self, d, warps):
        if not pcs:
            pcs.update((id(x), pc) for pc, x in enumerate(self.dp.instrs))
        addrs = self._addrs(d, warps)
        mask = self._mask(d, warps)
        active = np.ones(addrs.shape, dtype=bool) if mask is None else mask
        for j in np.flatnonzero(self.block_of[warps] == 0):
            key = (pcs[id(d)], int(self.wid[warps[j]]))
            replayed.setdefault(key, (addrs[j].copy(), active[j].copy()))
        return exec_smem(self, d, warps)

    monkeypatch.setenv("REPRO_SIM_ENGINE", "fast")
    monkeypatch.setattr(fastsim._Replay, "_exec_smem", recording_exec_smem)
    gmem, params = _problem_image(prob, tile)
    simulate_resident_blocks(
        kernel, V100, params=params, gmem=gmem, threads_per_block=256,
        num_blocks=1,
    )

    ctx = AnalysisContext(instructions=kernel.instructions, meta=kernel.meta)
    resolved = [a for a in shared_access_table(ctx) if a.resolved]
    assert resolved
    for access in resolved:
        for warp in range(ctx.num_warps):
            addrs, active = replayed[(access.pos, warp)]
            np.testing.assert_array_equal(access.active[warp], active)
            np.testing.assert_array_equal(access.addrs[warp], addrs)


# ---------------------------------------------------------------------------
# Liveness pass (LV001-LV003)
# ---------------------------------------------------------------------------


def test_lv001_reports_peak():
    diags = _run(LivenessPass(), "MOV R0, 0x1;\nIADD3 R1, R0, R2, R3;\nEXIT;\n")
    assert _rules(diags) == ["LV001"]
    assert "live registers" in diags[0].message


def test_lv002_budget_overflow():
    writes = "".join(f"MOV R{i}, 0x1;\n" for i in range(254))
    reads = "".join(f"IADD3 R0, R0, R{i}, RZ;\n" for i in range(1, 254))
    diags = _run(LivenessPass(), writes + reads + "EXIT;\n")
    assert "LV002" in _rules(diags)
    (lv002,) = [d for d in diags if d.rule == "LV002"]
    assert lv002.severity is Severity.ERROR
    assert "254" in lv002.message


def test_lv003_exceeds_declared_registers():
    meta = KernelMeta(name="t", registers=4)
    src = (
        "".join(f"MOV R{i}, 0x1;\n" for i in range(8))
        + "".join(f"IADD3 R0, R0, R{i}, RZ;\n" for i in range(1, 8))
        + "EXIT;\n"
    )
    diags = _run(LivenessPass(), src, meta=meta)
    assert "LV003" in _rules(diags)


def test_predicated_write_does_not_kill():
    # @P0 MOV may not retire, so R1's prior value stays live across it.
    src = (
        "MOV R1, 0x1;\n"
        "@P0 MOV R1, 0x2;\n"
        "STS [R2], R1;\n"
        "EXIT;\n"
    )
    from repro.sass.analysis.liveness import compute_live_in

    live_in = compute_live_in(_prog(src))
    assert live_in[1] & (1 << 1)  # R1 live into the predicated write


def test_liveness_flows_past_a_predicated_exit():
    # @P0 EXIT may not retire either: R1 stays live across it, along the
    # shared CFG's fall-through edge.
    from repro.sass.analysis.liveness import compute_live_in

    live_in = compute_live_in(_prog("MOV R1, 0x1;\n@P0 EXIT;\nSTS [R2], R1;\nEXIT;\n"))
    assert live_in[1] & (1 << 1)


def test_liveness_is_solved_once_per_context(monkeypatch):
    from repro.sass.analysis import AnalysisContext, liveness
    from repro.sass.analysis.occupancy import static_report

    calls = []
    solve = liveness.solve_backward
    monkeypatch.setattr(
        liveness, "solve_backward", lambda *args: calls.append(args) or solve(*args)
    )
    ctx = AnalysisContext(instructions=_prog("MOV R0, 0x1;\nIADD3 R1, R0, R2, R3;\nEXIT;\n"))
    (lv001,) = LivenessPass().run(ctx)
    assert static_report(ctx).peak_live_regs == 3
    assert "3 live registers" in lv001.message
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# Control-code pass (CTRL001-CTRL003) and the validate_control wrapper
# ---------------------------------------------------------------------------


def test_ctrl001_missing_wait():
    src = (
        "[B------:R-:W0:-:S01] LDG.E R0, [R2];\n"
        "IADD3 R3, R0, 0x1, RZ;\nEXIT;\n"
    )
    diags = _run(ControlCodePass(), src)
    assert "CTRL001" in _rules(diags)
    assert all(d.severity is Severity.ERROR for d in diags)


def test_ctrl002_unbarriered_producer():
    src = "LDG.E R0, [R2];\nIADD3 R3, R0, 0x1, RZ;\nEXIT;\n"
    diags = _run(ControlCodePass(), src)
    assert "CTRL002" in _rules(diags)


def test_ctrl003_underslept_fixed_latency():
    diags = _run(ControlCodePass(), "MOV R0, 0x1;\nIADD3 R1, R0, 0x1, RZ;\nEXIT;\n")
    assert "CTRL003" in _rules(diags)


def test_ctrl_clean_after_schedule():
    instrs = _prog("LDG.E R0, [R2];\nIADD3 R1, R0, 0x1, RZ;\nEXIT;\n")
    schedule(instrs)
    assert lint_instructions(instrs, passes=[ControlCodePass()]) == []


def _pred_writing_load(src):
    """A variable-latency producer that also writes P0 (e.g. LDGSTS-style
    predicate result).  No current mnemonic parses with a predicate
    destination, so craft a new Instruction from the parsed one."""
    instrs = _prog(src)
    instrs[0] = dataclasses.replace(instrs[0], dest_preds=(Pred(0),))
    return instrs


def test_ctrl001_tracks_predicates():
    # Regression: predicate writes from variable-latency producers used to
    # escape the guarded map entirely.
    instrs = _pred_writing_load(
        "[B------:R-:W0:-:S01] LDG.E R0, [R2];\n"
        "@P0 MOV R5, 0x1;\n"  # reads P0 without waiting on barrier 0
        "[B0-----:R-:W-:-:S01] IADD3 R3, R0, 0x1, RZ;\n"
        "EXIT;\n"
    )
    diags = lint_instructions(instrs, passes=[ControlCodePass()])
    assert ["CTRL001"] == _rules(diags)
    assert "P0" in diags[0].message and diags[0].pos == 1


def test_ctrl002_tracks_predicates():
    instrs = _pred_writing_load(
        "LDG.E R0, [R2];\n"
        "[B0-----:R-:W-:-:S01] @P0 MOV R5, 0x1;\n"
        "EXIT;\n"
    )
    diags = lint_instructions(instrs, passes=[ControlCodePass()])
    assert any(d.rule == "CTRL002" and "P0" in d.message for d in diags)


def test_validate_control_wrapper_reports_predicates():
    instrs = _pred_writing_load(
        "[B------:R-:W0:-:S01] LDG.E R0, [R2];\n"
        "@P0 MOV R5, 0x1;\n"
        "[B0-----:R-:W-:-:S01] IADD3 R3, R0, 0x1, RZ;\n"
        "EXIT;\n"
    )
    problems = validate_control(instrs)
    assert problems and "P0" in problems[0] and "barrier 0" in problems[0]


def test_validate_control_wrapper_keeps_legacy_format():
    problems = validate_control(
        _prog("MOV R0, 0x1;\nIADD3 R1, R0, 0x1, RZ;\nEXIT;\n")
    )
    assert problems == ["instr 1 (IADD3) reads/writes R0 3 cycles too early"]


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def test_default_passes_merge_sorted():
    src = "MOV R0, 0x1;\nIADD3 R1, R0, 0x1, RZ;\nEXIT;\n"
    diags = lint_instructions(_prog(src))
    assert [d.rule for d in diags if d.rule.startswith("CTRL")]
    positions = [d.pos for d in diags]
    assert positions == sorted(positions)


def test_lint_empty_program():
    assert lint_instructions([]) == []


def test_unknown_warps_parameter():
    src = (
        "S2R R0, SR_TID.X;\n"
        "SHF.L R1, R0, 0x2, RZ;\n"
        "LDS R2, [R1];\n"
        "EXIT;\n"
    )
    # With 2 warps the evaluation covers tids 0..63; still clean.
    assert lint_instructions(_prog(src), num_warps=2, passes=[SharedMemoryPass()]) == []


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
