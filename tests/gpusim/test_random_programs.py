"""Both engines time random programs alike.

The fast engine's scheduler sleeps until a lower bound on each
partition's next issue and wakes every partition when a CTA barrier
releases; the reference engine steps every cycle through the same
loop.  Random straight-line programs — FP32, integer, MUFU, shared and
global memory, ``BAR.SYNC`` and an early ``EXIT`` of every warp but the
first — with random yield flags and stalls must give equal
``Counters`` under both, on both devices and with an MSHR queue short
enough to fill.

Only the counters are compared: warps race on shared and global memory,
so stored values may legitimately differ between the engines.  Timing
does not depend on values, because no random instruction writes the
address registers (R1, R2, R3, R4) or ``P1``.
"""

import dataclasses

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.gpusim import RTX2070, V100, GlobalMemory, simulate_resident_blocks
from repro.sass import assemble

DEVICES = {
    "V100": V100,
    "RTX2070": RTX2070,
    "V100-mshr2": dataclasses.replace(V100, lsu_queue_depth=2),
}

PROLOGUE = [
    ".kernel random",
    ".registers 32",
    ".smem 4096",
    ".param 8 ptr",
    "S2R R0, SR_TID.X;",
    "SHF.L.U32 R1, R0, 0x2, RZ;",  # shared: 4 bytes per thread
    "SHF.L.U32 R4, R0, 0x3, RZ;",  # shared: 8 bytes per thread, 2-way conflicts
    "MOV R2, param:ptr;",
    "MOV R3, c[0x0][0x164];",
    "IADD3 R2, R2, R1, RZ;",  # global: 4 bytes per thread
    "ISETP.GE.U32.AND P1, PT, R0, 0x20, PT;",  # every warp but the first
]

# Random operands are the data registers R8-R15.
data = st.integers(8, 15)


@st.composite
def _statement(draw):
    d, a, b, c = draw(data), draw(data), draw(data), draw(data)
    off = draw(st.sampled_from([0x0, 0x400, 0x800]))
    text = draw(st.sampled_from([
        f"FFMA R{d}, R{a}, R{b}, R{c};",
        f"IADD3 R{d}, R{a}, R{b}, RZ;",
        f"MUFU.RCP R{d}, R{a};",
        f"LDS R{d}, [R1 + {off:#x}];",
        f"LDS R{d}, [R4];",
        f"STS [R1 + {off:#x}], R{a};",
        f"LDG.E R{d}, [R2 + {off:#x}];",
        f"STG.E [R2 + {off:#x}], R{a};",
        "BAR.SYNC;",
    ]))
    yld = draw(st.sampled_from("Y-"))
    return f"[B------:R-:W-:{yld}:S{draw(st.integers(1, 4)):02d}] {text}"


@st.composite
def programs(draw):
    """Assembler source: the prologue, a random body, ``EXIT``."""
    body = draw(st.lists(_statement(), min_size=1, max_size=24))
    if draw(st.booleans()):
        body.insert(draw(st.integers(0, len(body))), "@P1 EXIT;")
    return "\n".join(PROLOGUE + body + ["EXIT;"]) + "\n"


def launch_counters(source, device, warps, blocks):
    """Counters of *blocks* resident blocks of *warps* warps each."""
    kernel = assemble(source, auto_schedule=True)
    gmem = GlobalMemory(1 << 16)
    ptr = gmem.alloc(1 << 14)
    # Random arithmetic on zeroed registers makes infinities and NaNs;
    # the values are never checked.
    with np.errstate(all="ignore"):
        return simulate_resident_blocks(
            kernel, device, params={"ptr": ptr}, gmem=gmem,
            threads_per_block=32 * warps, num_blocks=blocks,
        ).counters


# ``both_engines`` only sets REPRO_SIM_ENGINE, so one instance serves
# every example.
@settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    source=programs(),
    device=st.sampled_from(sorted(DEVICES)),
    warps=st.integers(1, 8),
    blocks=st.integers(1, 2),
)
def test_engines_agree_on_random_programs(both_engines, source, device, warps, blocks):
    both_engines(lambda: launch_counters(source, DEVICES[device], warps, blocks))
