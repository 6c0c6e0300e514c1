"""The SASS schedule-space: §6's scheduling knobs as first-class data.

The paper's enabling result is that *instruction scheduling* — not
algorithm or tiling — is worth double-digit percent on the fused
kernel's main loop: the yield-flag strategy (Fig. 7, ~1.1×), the LDG
interleave distance (Fig. 8, up to 1.24×) and the STS interleave
distance (Fig. 9, ~2%).  :class:`Schedule` packages those knobs (plus
the §3.4 fragment double-buffer depth) as one hashable search point,
and :class:`ScheduleSpace` enumerates the candidate grid the
:mod:`repro.sched.search` tuner prunes.

A :class:`Schedule` is deliberately *not* a
:class:`~repro.kernels.winograd_fused.Tunables`: ``Tunables`` also carries
structural knobs (``bk``, ``smem_layout``, ``use_p2r``) that change the
kernel's resource shape and are selected by the planner, not the
scheduler.  :meth:`Schedule.to_tunables` grafts a schedule onto any
structural base.
"""

from __future__ import annotations

import dataclasses
import itertools

from ..common.errors import ConvConfigError
from ..kernels.schedules import YIELD_STRATEGIES
from ..kernels.winograd_fused import Tunables, default_tunables
from ..winograd.tilespec import get_tile

#: The four Tunables fields a Schedule owns (everything else on
#: Tunables is structure, not schedule).
SCHEDULE_FIELDS = (
    "yield_strategy", "ldg_interleave", "sts_interleave", "double_buffer",
)


@dataclasses.dataclass(frozen=True)
class Schedule:
    """One point of the SASS instruction-scheduling space (§6, §3.4).

    Fields map one-to-one onto the paper's studies:

    * ``yield_strategy`` — Fig. 7: ``natural`` (never clear the stay
      bit; the paper's kernel), ``nvcc8`` / ``cudnn7`` (a forced warp
      switch every 8 / 7 float instructions);
    * ``ldg_interleave`` — Fig. 8: FFMAs between global prefetch loads
      (cuDNN ≈ 2, the paper 8);
    * ``sts_interleave`` — Fig. 9: FFMAs between shared-memory staging
      stores (NVCC/cuDNN ≈ 2, the paper 6);
    * ``double_buffer`` — §3.4: fragment register buffer depth (2 =
      the paper's ping-pong, 1 = single-buffered ablation).
    """

    yield_strategy: str = "natural"
    ldg_interleave: int = 8
    sts_interleave: int = 6
    double_buffer: int = 2

    def __post_init__(self) -> None:
        if self.yield_strategy not in YIELD_STRATEGIES:
            raise ConvConfigError(
                f"unknown yield strategy {self.yield_strategy!r}; "
                f"use one of {YIELD_STRATEGIES}"
            )
        for field in ("ldg_interleave", "sts_interleave"):
            value = getattr(self, field)
            if not isinstance(value, int) or value < 1:
                raise ConvConfigError(f"{field} must be an int >= 1, got {value!r}")
        if self.double_buffer not in (1, 2):
            raise ConvConfigError(
                f"double_buffer must be 1 or 2, got {self.double_buffer!r}"
            )

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def to_tunables(self, base: Tunables | None = None, tile=None) -> Tunables:
        """Graft this schedule onto *base*'s structural knobs.

        With no explicit *base*, the structural knobs come from the tile
        family's defaults (:func:`~repro.kernels.winograd_fused.default_tunables`),
        so an f44 schedule lands on ``bk=16``.  The family's generator
        validates the graft against its structural invariants (for f44:
        bk=16, transposed staging, mandatory ping-pong) when it is
        constructed.
        """
        base = base or default_tunables(tile)
        return dataclasses.replace(
            base, **{field: getattr(self, field) for field in SCHEDULE_FIELDS}
        )

    @classmethod
    def from_tunables(cls, tunables: Tunables) -> "Schedule":
        """The schedule-shaped projection of a full ``Tunables``."""
        return cls(**{field: getattr(tunables, field) for field in SCHEDULE_FIELDS})

    def label(self) -> str:
        """Compact display name, e.g. ``yield=natural/ldg8/sts6/db2``."""
        return (
            f"yield={self.yield_strategy}/ldg{self.ldg_interleave}"
            f"/sts{self.sts_interleave}/db{self.double_buffer}"
        )

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "Schedule":
        unknown = set(payload) - set(SCHEDULE_FIELDS)
        if unknown:
            raise ConvConfigError(f"unknown Schedule fields: {sorted(unknown)}")
        return cls(**payload)


#: The schedule the paper ships (natural yield, LDG8, STS6, ping-pong).
PAPER_SCHEDULE = Schedule()

#: cuDNN's inferred schedule (§6): yield every 7, LDG every 2, STS every 2.
CUDNN_SCHEDULE = Schedule(yield_strategy="cudnn7", ldg_interleave=2, sts_interleave=2)


@dataclasses.dataclass(frozen=True)
class ScheduleSpace:
    """A cartesian grid of :class:`Schedule` candidates.

    The defaults span exactly the values the paper sweeps in
    Figs. 7-9 plus the two buffer depths — 54 candidates, which is why
    the tuner prunes with successive halving instead of measuring every
    point at full budget.
    """

    yield_strategies: tuple[str, ...] = YIELD_STRATEGIES
    ldg_interleaves: tuple[int, ...] = (2, 4, 8)
    sts_interleaves: tuple[int, ...] = (2, 4, 6)
    double_buffers: tuple[int, ...] = (1, 2)

    def __post_init__(self) -> None:
        for name in ("yield_strategies", "ldg_interleaves",
                     "sts_interleaves", "double_buffers"):
            values = getattr(self, name)
            if not values:
                raise ConvConfigError(f"ScheduleSpace.{name} must be non-empty")
            if len(set(values)) != len(values):
                raise ConvConfigError(f"ScheduleSpace.{name} has duplicates: {values}")
        # Validate every axis value by constructing one Schedule per value.
        for ys in self.yield_strategies:
            Schedule(yield_strategy=ys)
        for ldg in self.ldg_interleaves:
            Schedule(ldg_interleave=ldg)
        for sts in self.sts_interleaves:
            Schedule(sts_interleave=sts)
        for db in self.double_buffers:
            Schedule(double_buffer=db)

    def __len__(self) -> int:
        return (
            len(self.yield_strategies) * len(self.ldg_interleaves)
            * len(self.sts_interleaves) * len(self.double_buffers)
        )

    def candidates(self) -> list[Schedule]:
        """Every grid point, in deterministic axis-major order."""
        return [
            Schedule(yield_strategy=ys, ldg_interleave=ldg,
                     sts_interleave=sts, double_buffer=db)
            for ys, ldg, sts, db in itertools.product(
                self.yield_strategies, self.ldg_interleaves,
                self.sts_interleaves, self.double_buffers,
            )
        ]

    def __contains__(self, schedule: Schedule) -> bool:
        return (
            schedule.yield_strategy in self.yield_strategies
            and schedule.ldg_interleave in self.ldg_interleaves
            and schedule.sts_interleave in self.sts_interleaves
            and schedule.double_buffer in self.double_buffers
        )

    def signature(self) -> str:
        """Stable identity string (memo keys for per-context search results)."""
        return (
            f"yield:{','.join(self.yield_strategies)}"
            f"|ldg:{','.join(map(str, self.ldg_interleaves))}"
            f"|sts:{','.join(map(str, self.sts_interleaves))}"
            f"|db:{','.join(map(str, self.double_buffers))}"
        )

    def axis_variants(self, field: str, base: Schedule = PAPER_SCHEDULE) -> dict:
        """Schedules varying one axis with the others pinned to *base*.

        This is how the Fig. 7-9 benchmarks and the tuner share one
        vocabulary: ``axis_variants("ldg_interleave")`` yields the
        Fig. 8 sweep ``{"ldg2": ..., "ldg4": ..., "ldg8": ...}``.
        """
        axes = {
            "yield_strategy": ("yield_strategies", lambda v: f"yield={v}"),
            "ldg_interleave": ("ldg_interleaves", lambda v: f"ldg{v}"),
            "sts_interleave": ("sts_interleaves", lambda v: f"sts{v}"),
            "double_buffer": ("double_buffers", lambda v: f"db{v}"),
        }
        if field not in axes:
            raise ConvConfigError(
                f"unknown schedule axis {field!r}; use one of {sorted(axes)}"
            )
        attr, fmt = axes[field]
        return {
            fmt(value): dataclasses.replace(base, **{field: value})
            for value in getattr(self, attr)
        }


#: The full §6 grid (54 points).
DEFAULT_SPACE = ScheduleSpace()

#: A 12-point subset for CI / --quick runs: the Fig. 7 yield axis with
#: the extreme LDG/STS distances, paper buffering only.
QUICK_SPACE = ScheduleSpace(
    ldg_interleaves=(2, 8), sts_interleaves=(2, 6), double_buffers=(2,)
)

#: The F(4×4,3×3) grid: the f44 generator's larger fragments make the
#: single-buffered ablation structurally infeasible (its generator
#: requires ``double_buffer=2``), so that axis collapses — 27 points.
F44_SPACE = ScheduleSpace(double_buffers=(2,))


def space_for_tile(tile=None) -> ScheduleSpace:
    """The searchable schedule grid for one tile family.

    f22 gets the full §6 grid; f44 drops the ``double_buffer=1`` axis
    its structural invariants forbid.  This is what keeps per-family
    searches from lint-failing on candidates the generator would reject
    at construction time.
    """
    return F44_SPACE if get_tile(tile).name == "f44" else DEFAULT_SPACE
