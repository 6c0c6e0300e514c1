"""The CFG-based analysis passes: mutation tests and docs sync.

Each mutation test takes a correct program, applies the one-line bug the
pass exists to catch (dropped wait on a branchy path, read of a register
defined on one arm, dropped BAR.SYNC between cross-warp accesses,
divergent barrier) and asserts the pass reports exactly that bug while
the correct version stays clean.
"""

import pathlib
import re

import pytest

from repro.gpusim import RTX2070, V100
from repro.sass import parse_program
from repro.sass.analysis import (
    TURING_LIMITS,
    VOLTA_LIMITS,
    BarrierDivergencePass,
    ControlCodePass,
    OccupancyPass,
    Severity,
    SharedRacePass,
    UninitRegisterPass,
    default_passes,
    lint_instructions,
    static_report,
)
from repro.sass.analysis.base import AnalysisContext
from repro.sass.hw import PER_BLOCK_LIMITS, blocks_per_sm
from repro.sass.preprocess import KernelMeta


def _branchy(src):
    parsed = parse_program(src)
    instrs = parsed.instructions
    for pos, instr in enumerate(instrs):
        if instr.name == "BRA" and isinstance(instr.target, str):
            instrs[pos].target = parsed.labels[instr.target] - (pos + 1)
    return instrs


def _rules(diags):
    return [d.rule for d in diags]


# ---------------------------------------------------------------------------
# Path-sensitive control codes: dropped wait on one arm (CTRL001)
# ---------------------------------------------------------------------------

_WAIT_BOTH_ARMS = (
    "[B------:R-:W0:-:S01] LDG.E R0, [R2];\n"
    "@P3 BRA skip;\n"
    "[B0-----:R-:W-:-:S04] IADD3 R3, R0, 0x1, RZ;\n"
    "skip:\n"
    "{ctrl} IADD3 R4, R0, 0x1, RZ;\n"
    "EXIT;\n"
)


def test_ctrl_wait_on_both_arms_is_clean():
    instrs = _branchy(_WAIT_BOTH_ARMS.format(ctrl="[B0-----:R-:W-:-:S04]"))
    assert lint_instructions(instrs, passes=[ControlCodePass()]) == []


def test_ctrl001_dropped_wait_on_branchy_path():
    # Mutation: the join-point consumer no longer waits on barrier 0.
    # Along the fall arm the earlier wait cleared it, but along the taken
    # arm the LDG is still in flight — a straight-line checker (which
    # sees the fall arm's wait) misses this.
    instrs = _branchy(_WAIT_BOTH_ARMS.format(ctrl="[B------:R-:W-:-:S04]"))
    diags = lint_instructions(instrs, passes=[ControlCodePass()])
    assert _rules(diags) == ["CTRL001"]
    (diag,) = diags
    assert diag.severity is Severity.ERROR
    assert "R0" in diag.message and "barrier 0" in diag.message
    assert instrs[diag.pos].name == "IADD3"
    assert instrs[diag.pos].dest.index == 4  # the join-point consumer


# ---------------------------------------------------------------------------
# Uninitialized reads (UR001/UR002)
# ---------------------------------------------------------------------------


def test_ur_fully_defined_is_clean():
    instrs = _branchy(
        "MOV R0, 0x1;\n"
        "MOV R1, 0x5;\n"
        "ISETP.EQ.AND P0, PT, R0, RZ, PT;\n"
        "@P0 BRA skip;\n"
        "MOV R1, 0x7;\n"
        "skip:\n"
        "IADD3 R2, R1, 0x1, RZ;\n"
        "EXIT;\n"
    )
    assert lint_instructions(instrs, passes=[UninitRegisterPass()]) == []


def test_ur002_defined_on_one_arm_only():
    # Mutation: R1's unconditional definition is gone; only the fall arm
    # writes it before the join-point read.
    instrs = _branchy(
        "MOV R0, 0x1;\n"
        "ISETP.EQ.AND P0, PT, R0, RZ, PT;\n"
        "@P0 BRA skip;\n"
        "MOV R1, 0x7;\n"
        "skip:\n"
        "IADD3 R2, R1, 0x1, RZ;\n"
        "EXIT;\n"
    )
    diags = lint_instructions(instrs, passes=[UninitRegisterPass()])
    assert _rules(diags) == ["UR002"]
    (diag,) = diags
    assert diag.severity is Severity.WARNING
    assert "R1" in diag.message and "some paths" in diag.message
    assert instrs[diag.pos].name == "IADD3"


def test_ur001_never_defined():
    diags = lint_instructions(
        parse_program("IADD3 R2, R9, 0x1, RZ;\nEXIT;\n").instructions,
        passes=[UninitRegisterPass()],
    )
    assert _rules(diags) == ["UR001"]
    assert diags[0].severity is Severity.ERROR
    assert "R9" in diags[0].message


def test_ur001_undefined_predicate_guard():
    diags = lint_instructions(
        parse_program("@P5 MOV R0, 0x1;\nEXIT;\n").instructions,
        passes=[UninitRegisterPass()],
    )
    assert any(d.rule == "UR001" and "P5" in d.message for d in diags)


def test_ur_predicated_write_counts_as_definition():
    # The paper's @Py LDG prefetch idiom: conditional overwrite of an
    # already-zeroed register must not warn.
    instrs = _branchy(
        "MOV R0, 0x1;\n"
        "ISETP.EQ.AND P0, PT, R0, RZ, PT;\n"
        "@P0 MOV R1, 0x7;\n"
        "IADD3 R2, R1, 0x1, RZ;\n"
        "EXIT;\n"
    )
    assert lint_instructions(instrs, passes=[UninitRegisterPass()]) == []


# ---------------------------------------------------------------------------
# Cross-warp shared-memory races (RACE001/RACE002)
# ---------------------------------------------------------------------------

_PRODUCER_CONSUMER = (
    "S2R R0, SR_TID.X;\n"
    "SHF.L R1, R0, 0x2, RZ;\n"
    "STS [R1], R0;\n"
    "{bar}"
    "LDS R3, [RZ];\n"  # every warp reads word 0 (warp 0 wrote it)
    "EXIT;\n"
)


def test_race_bar_separates_epochs():
    instrs = parse_program(
        _PRODUCER_CONSUMER.format(bar="BAR.SYNC;\n")
    ).instructions
    assert lint_instructions(instrs, passes=[SharedRacePass()]) == []


def test_race001_dropped_bar_between_sts_and_lds():
    # Mutation: no BAR.SYNC between the per-thread stores and the
    # cross-warp broadcast load of word 0.
    instrs = parse_program(_PRODUCER_CONSUMER.format(bar="")).instructions
    diags = lint_instructions(instrs, passes=[SharedRacePass()])
    assert _rules(diags) == ["RACE001"]
    (diag,) = diags
    assert diag.severity is Severity.ERROR
    assert diag.instruction == "LDS"
    assert "store at instruction 2" in diag.message


def test_race001_cross_warp_store_overlap():
    # Every lane of every warp stores to word 0: the single store
    # instruction races with itself across warps.
    instrs = parse_program(
        "S2R R0, SR_TID.X;\nSTS [RZ], R0;\nEXIT;\n"
    ).instructions
    diags = lint_instructions(instrs, passes=[SharedRacePass()])
    assert _rules(diags) == ["RACE001"]
    assert "warps write overlapping" in diags[0].message


def test_race002_unresolved_addresses_reported():
    instrs = parse_program(
        "[B------:R-:W0:-:S01] LDG.E R1, [R2];\n"
        "[B0-----:R-:W-:-:S04] STS [R1], R1;\n"  # data-dependent address
        "EXIT;\n"
    ).instructions
    diags = lint_instructions(instrs, passes=[SharedRacePass()])
    assert _rules(diags) == ["RACE002"]
    assert diags[0].severity is Severity.INFO


def test_race_guarded_access_killed_on_contradicting_edge():
    # The @P0 store only happens when P0 is true; along the !P0 edge to
    # the load there is no pending store, so no race.
    instrs = _branchy(
        "S2R R0, SR_TID.X;\n"
        "ISETP.EQ.AND P0, PT, R0, RZ, PT;\n"
        "@!P0 BRA skip;\n"
        "@P0 STS [RZ], R0;\n"
        "BAR.SYNC;\n"
        "skip:\n"
        "LDS R3, [RZ];\n"
        "EXIT;\n"
    )
    assert lint_instructions(instrs, passes=[SharedRacePass()]) == []


# ---------------------------------------------------------------------------
# Barrier divergence (BD001/BD002)
# ---------------------------------------------------------------------------


def test_bd001_bar_under_tid_guard():
    instrs = parse_program(
        "S2R R0, SR_TID.X;\n"
        "ISETP.EQ.AND P0, PT, R0, RZ, PT;\n"
        "@P0 BAR.SYNC;\n"
        "EXIT;\n"
    ).instructions
    diags = lint_instructions(instrs, passes=[BarrierDivergencePass()])
    assert _rules(diags) == ["BD001"]
    assert diags[0].severity is Severity.ERROR
    assert "P0" in diags[0].message


def test_bd_bar_under_ctaid_guard_is_clean():
    # SR_CTAID is warp-uniform: the whole block agrees on the guard.
    instrs = parse_program(
        "S2R R0, SR_CTAID.X;\n"
        "ISETP.EQ.AND P0, PT, R0, RZ, PT;\n"
        "@P0 BAR.SYNC;\n"
        "EXIT;\n"
    ).instructions
    assert lint_instructions(instrs, passes=[BarrierDivergencePass()]) == []


def test_bd002_bar_on_one_arm_of_divergent_branch():
    instrs = _branchy(
        "S2R R0, SR_TID.X;\n"
        "ISETP.EQ.AND P0, PT, R0, RZ, PT;\n"
        "@P0 BRA skip;\n"
        "BAR.SYNC;\n"
        "skip:\n"
        "EXIT;\n"
    )
    diags = lint_instructions(instrs, passes=[BarrierDivergencePass()])
    assert _rules(diags) == ["BD002"]
    assert diags[0].severity is Severity.WARNING
    assert instrs[diags[0].pos].name == "BAR"


def test_bd002_bar_above_divergent_branch_is_clean():
    instrs = _branchy(
        "S2R R0, SR_TID.X;\n"
        "ISETP.EQ.AND P0, PT, R0, RZ, PT;\n"
        "BAR.SYNC;\n"
        "@P0 BRA skip;\n"
        "MOV R1, 0x1;\n"
        "skip:\n"
        "EXIT;\n"
    )
    assert lint_instructions(instrs, passes=[BarrierDivergencePass()]) == []


def test_bd_taint_cleared_by_uniform_overwrite():
    instrs = parse_program(
        "S2R R0, SR_TID.X;\n"
        "MOV R0, 0x4;\n"  # uniform overwrite clears the taint
        "ISETP.EQ.AND P0, PT, R0, RZ, PT;\n"
        "@P0 BAR.SYNC;\n"
        "EXIT;\n"
    ).instructions
    assert lint_instructions(instrs, passes=[BarrierDivergencePass()]) == []


# ---------------------------------------------------------------------------
# Occupancy (OCC001-OCC003) and the DeviceSpec differential
# ---------------------------------------------------------------------------


def test_occ_info_reports():
    instrs = parse_program("MOV R0, 0x1;\nEXIT;\n").instructions
    meta = KernelMeta(name="t", registers=64, smem_bytes=16 * 1024)
    diags = lint_instructions(
        instrs, meta=meta, passes=[OccupancyPass()]
    )
    assert _rules(diags) == ["OCC001", "OCC002"]
    assert all(d.severity is Severity.INFO for d in diags)
    assert "4 block(s)/SM" in diags[1].message  # 64KB smem / 16KB


def test_occ003_unlaunchable_kernel():
    meta = KernelMeta(name="t", registers=64, smem_bytes=65 * 1024)
    diags = lint_instructions(
        parse_program("MOV R0, 0x1;\nEXIT;\n").instructions,
        meta=meta, passes=[OccupancyPass()],
    )
    assert "OCC003" in _rules(diags)
    (occ3,) = [d for d in diags if d.rule == "OCC003"]
    assert occ3.severity is Severity.ERROR


def test_static_report_cycles_count_stalls_and_yields():
    instrs = parse_program(
        "[B------:R-:W-:-:S04] MOV R0, 0x1;\n"
        "[B------:R-:W-:Y:S02] MOV R1, 0x2;\n"
        "EXIT;\n"
    ).instructions
    report = static_report(AnalysisContext(instructions=instrs))
    # 4 + 2 + 1 (EXIT issues for >= 1 cycle) + 1 yield switch.
    assert report.static_issue_cycles == 8
    assert report.yields == 1
    assert report.num_instructions == 3


# (limits, warps/block, regs/thread, smem bytes) -> (blocks, limiter)
OCCUPANCY_CASES = {
    "volta-warps": ((VOLTA_LIMITS, 8, 16, 0), (8, "warps")),
    "turing-warps": ((TURING_LIMITS, 8, 16, 0), (4, "warps")),
    "volta-registers": ((VOLTA_LIMITS, 8, 128, 0), (2, "registers")),
    "turing-registers-zero": ((TURING_LIMITS, 32, 255, 0), (0, "registers")),
    "volta-shared-memory": ((VOLTA_LIMITS, 8, 32, 48 * 1024), (2, "shared memory")),
    "turing-shared-memory": ((TURING_LIMITS, 8, 32, 48 * 1024), (1, "shared memory")),
    "threads-per-block": ((VOLTA_LIMITS, 33, 32, 0), (0, "threads-per-block limit")),
    "registers-per-thread": (
        (TURING_LIMITS, 8, 256, 0), (0, "registers-per-thread limit"),
    ),
    "smem-per-block": (
        (TURING_LIMITS, 8, 32, 64 * 1024 + 4),
        (0, "shared-memory-per-block limit"),
    ),
}


@pytest.mark.parametrize("case", OCCUPANCY_CASES.values(), ids=OCCUPANCY_CASES)
def test_blocks_per_sm(case):
    """Each limiter of the one occupancy rule, as lint and launch see it.

    ``DeviceSpec.occupancy`` raises exactly for the per-block limits and
    otherwise returns the lint's count, so a launch is refused (a raise,
    or 0 resident blocks) exactly when OCC003 fires.
    """
    from repro.common.errors import SimLaunchError

    (limits, warps, regs, smem), expected = case
    assert blocks_per_sm(limits, warps, regs, smem) == expected
    device = {VOLTA_LIMITS: V100, TURING_LIMITS: RTX2070}[limits]
    blocks, limiter = expected
    if limiter in PER_BLOCK_LIMITS:
        with pytest.raises(SimLaunchError, match=limiter):
            device.occupancy(warps * 32, regs, smem)
    else:
        assert device.occupancy(warps * 32, regs, smem) == blocks
    ctx = AnalysisContext(
        instructions=parse_program("EXIT;\n").instructions,
        meta=KernelMeta(name="t", registers=regs, smem_bytes=smem),
        num_warps=warps,
    )
    rules = [d.rule for d in OccupancyPass(limits).run(ctx)]
    assert ("OCC003" in rules) == (blocks == 0)


# ---------------------------------------------------------------------------
# Docs sync
# ---------------------------------------------------------------------------


def test_every_rule_code_is_documented():
    doc = pathlib.Path(__file__).parents[2] / "docs" / "sass_lint.md"
    text = doc.read_text(encoding="utf-8")
    doc_codes = set(re.findall(r"\b([A-Z]{2,5}\d{3})\b", text))
    pass_codes = set()
    for pass_ in default_passes():
        assert pass_.rules, f"pass {pass_.name} declares no rules"
        pass_codes.update(pass_.rules)
    missing = pass_codes - doc_codes
    assert not missing, f"rules undocumented in docs/sass_lint.md: {missing}"
    stale = doc_codes - pass_codes
    assert not stale, f"docs mention rules no pass emits: {stale}"


def test_pass_names_are_unique_and_stable():
    names = [p.name for p in default_passes()]
    assert len(names) == len(set(names))
    assert "control-codes" in names and "cfg" in names


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
