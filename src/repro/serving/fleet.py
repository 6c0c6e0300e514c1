"""Multi-device fleet routing: place each model on the device that wins.

The paper evaluates on two machines (Tesla V100 and RTX 2070) and its
§7.1 occupancy analysis is explicitly per-device: the same 48 KB fused
kernel keeps two blocks resident on Volta's 96 KB SMs but only one on
Turing's 64 KB.  A serving deployment therefore faces a *placement*
problem — which simulated device should host which model — and the
right input to that decision is the same machinery the runtime already
trusts: the schedule search's measured main-loop cycles, the kernel
generators' launch metadata, and :meth:`DeviceSpec.occupancy`.

:class:`FleetRouter` owns one :class:`~repro.serving.frontend.ServingFrontend`
per device plus a per-device *planning*
:class:`~repro.runtime.ExecutionContext` whose ``schedules`` cache
memoizes each device's searched schedule.  ``register_model`` estimates
the model's steady-state cost on every device:

* fused-eligible layers (3×3 / pad-1 / stride-1) are costed with the
  wave model — ``waves × iters × winner_cycles / clock`` — using the
  device's **own searched schedule** winner and the generator's real
  launch metadata (grid, registers, shared memory), so the estimate is
  workspace- and occupancy-aware;
* everything else falls back to the calibrated analytical models
  (:func:`repro.perfmodel.selection.predicted_time`), with workspace
  exclusions from :func:`~repro.perfmodel.selection.rank_algorithms`.

That is the AUTO modes' bid, per layer the cheapest candidate; a model
whose mode forces one algorithm is costed with that algorithm alone.

Placement is **greedy load-aware**: the model goes to the device
minimizing ``accumulated_load + cost`` — a pure fastest-device argmin
would park the whole fleet on the V100; balancing against accumulated
load is what makes a heterogeneous fleet actually serve from both
machines.  Every decision is traced (a ``"route"`` span on the chosen
device's planning context) and exported by :meth:`FleetRouter.stats`.

Cross-device *migration* cost — what a schedule tuned on one device
loses on another — is quantified separately by
:func:`repro.sched.crossdev.validate_plan_on`.
"""

from __future__ import annotations

import dataclasses
import math

from ..common.errors import ReproError, ServingError
from ..convolution.api import FUSED_TILE_FOR_ALGO, META_ALGORITHMS
from ..gpusim.arch import DeviceSpec, canonical_device_key, resolve_device
from ..runtime.context import ExecutionContext
from .config import ServingConfig
from .frontend import ModelSpec, ServingFrontend, model_mode


@dataclasses.dataclass(frozen=True)
class RoutingDecision:
    """One model's placement: every device's bid and who won.

    ``costs`` holds the estimated steady-state seconds per device for a
    full ``max_batch`` pass of the model's layer stack; ``loads`` the
    accumulated load on each device *before* this placement.  The chosen
    device minimizes ``loads + costs``.  ``notes`` records per-device
    costing caveats (workspace exclusions, occupancy fallbacks).
    """

    tenant: str
    model: str
    device: str
    costs: dict[str, float]
    loads: dict[str, float]
    notes: dict[str, list[str]]

    def to_dict(self) -> dict:
        return {
            "tenant": self.tenant,
            "model": self.model,
            "device": self.device,
            "costs": dict(self.costs),
            "loads": dict(self.loads),
            "notes": {k: list(v) for k, v in self.notes.items()},
        }


class _FleetDevice:
    """One device's slice of the fleet: frontend, planning context, load."""

    def __init__(self, key: str, spec: DeviceSpec, config: ServingConfig):
        self.key = key
        self.spec = spec
        self.frontend = ServingFrontend(config, device=spec)
        # The planning context is routing-only state: its schedule book
        # memoizes this device's search so costing N models pays for at
        # most one search per tile family.  Tenant isolation is unaffected
        # — serving traffic runs in the frontend's per-tenant contexts.
        self.planning = ExecutionContext(device=spec)
        self.load_s = 0.0


class FleetRouter:
    """Routes models onto a fleet of simulated devices; serves through them.

    Usage::

        router = FleetRouter(("V100", "RTX2070"),
                             ServingConfig(max_batch=32))
        router.register_model("tenant-a", model)     # placed + registered
        outs = await router.submit("tenant-a", model.name, image)
        print(router.stats()["routing"])
        await router.close()

    ``search_config`` defaults to each family's full searchable grid via
    :meth:`~repro.sched.ScheduleSearchConfig.for_tile`; pass a quick
    config (e.g. ``ScheduleSearchConfig(space=QUICK_SPACE)``) to keep
    placement cheap.  ``cost_fn(model, device_key, spec) -> seconds``
    overrides the built-in estimator entirely (tests use this to pin
    routing behavior without running searches).
    """

    def __init__(
        self,
        devices=("V100", "RTX2070"),
        config: ServingConfig | None = None,
        *,
        search_config=None,
        cost_fn=None,
    ):
        if not devices:
            raise ServingError("FleetRouter needs at least one device")
        self.config = config or ServingConfig()
        self.search_config = search_config
        self._cost_fn = cost_fn
        self._devices: dict[str, _FleetDevice] = {}
        for dev in devices:
            if isinstance(dev, DeviceSpec):
                from ..gpusim.arch import device_key

                key = device_key(dev) or dev.name
                spec = dev
            else:
                key = canonical_device_key(dev)
                spec = resolve_device(key)
            if key in self._devices:
                raise ServingError(f"duplicate fleet device {key!r}")
            self._devices[key] = _FleetDevice(key, spec, self.config)
        self._placements: dict[tuple[str, str], str] = {}
        self._decisions: list[RoutingDecision] = []

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def device_keys(self) -> list[str]:
        return list(self._devices)

    def planning_context(self, device: str) -> ExecutionContext:
        """The named device's routing context (schedule book lives here)."""
        return self._device(device).planning

    def frontend(self, device: str) -> ServingFrontend:
        """The named device's serving frontend."""
        return self._device(device).frontend

    def placement(self, tenant: str, model: str) -> str:
        """Which device key serves ``tenant/model``."""
        try:
            return self._placements[(tenant, model)]
        except KeyError:
            raise ServingError(
                f"no placement for {tenant!r}/{model!r}; register it first"
            ) from None

    def _device(self, device: str) -> _FleetDevice:
        key = canonical_device_key(device)
        try:
            return self._devices[key]
        except KeyError:
            raise ServingError(
                f"device {key!r} is not part of this fleet "
                f"(fleet: {sorted(self._devices)})"
            ) from None

    # ------------------------------------------------------------------
    # Cost model
    # ------------------------------------------------------------------
    def _fused_layer_cost(self, dev: _FleetDevice, prob, family: str) -> float:
        """Wave-model seconds of one fused layer on *dev*.

        Uses the device's own searched schedule winner (memoized on the
        planning context's book) and the generator's launch metadata, so
        two devices bid with their genuinely different occupancies and
        measured main-loop throughputs.
        """
        from ..kernels.winograd_fused import kernel_for_tile
        from ..sched.search import ensure_schedule
        from ..winograd.tilespec import get_tile

        spec = get_tile(family)
        result = ensure_schedule(
            device=dev.spec, config=self.search_config,
            context=dev.planning, tile=spec,
        )
        tunables = result.best.schedule.to_tunables(None, spec)
        gen = kernel_for_tile(prob, spec, tunables)
        blocks = gen.grid[0] * gen.grid[1]
        occupancy = dev.spec.occupancy(256, gen.num_regs, gen.launch_smem_bytes)
        if occupancy < 1:
            raise ServingError(
                f"{family} kernel cannot be resident on {dev.key} "
                f"({gen.launch_smem_bytes} B smem/block)"
            )
        iters = prob.c // spec.bc
        cycles = dev.spec.waves(blocks, occupancy) * iters * result.best.cycles_per_iter
        return cycles / (dev.spec.clock_ghz * 1e9)

    def _model_cost(
        self, model: ModelSpec, mode: str, dev: _FleetDevice
    ) -> tuple[float, list[str]]:
        """(estimated seconds, costing notes) for a full-batch pass.

        Under an AUTO *mode* each layer bids its fastest dispatch
        candidate that fits the workspace budget; a mode that forces an
        algorithm bids that algorithm alone.
        """
        from ..perfmodel.selection import predicted_time, rank_algorithms

        total = 0.0
        notes: list[str] = []
        limit = self.config.workspace_limit_bytes
        for prob in model.problems:
            batched = prob.with_batch(self.config.max_batch)
            if mode not in META_ALGORITHMS:
                ranked = [mode]
            else:
                ranked, excluded = rank_algorithms(batched, dev.spec, limit)
                for algo, reason in excluded.items():
                    if "workspace" in reason:
                        notes.append(f"{batched.label()}: {algo} excluded ({reason})")
            best = math.inf
            for algo in ranked:
                family = FUSED_TILE_FOR_ALGO.get(algo)
                if family is not None:
                    try:
                        est = self._fused_layer_cost(dev, batched, family)
                    except ReproError as exc:
                        notes.append(f"{batched.label()}: {algo} -> model ({exc})")
                        est = predicted_time(batched, dev.spec, algo)
                else:
                    est = predicted_time(batched, dev.spec, algo)
                best = min(best, est)
            total += best
        return total, notes

    # ------------------------------------------------------------------
    # Placement + registration
    # ------------------------------------------------------------------
    def place(self, tenant: str, model: ModelSpec) -> RoutingDecision:
        """Pick a device for *model*: argmin(accumulated load + cost).

        Pure costing + bookkeeping — does not register the model (see
        :meth:`register_model` for the one-call path).
        """
        decision = self._bid(tenant, model)
        self._book(decision)
        return decision

    def _bid(self, tenant: str, model: ModelSpec) -> RoutingDecision:
        """Every device's bid for *model* and the winner; books nothing.

        A mode no session can run is refused (:func:`model_mode`) before
        any device bids.
        """
        mode = model_mode(model, self.config)
        costs: dict[str, float] = {}
        notes: dict[str, list[str]] = {}
        for key, dev in self._devices.items():
            if self._cost_fn is not None:
                costs[key] = float(self._cost_fn(model, key, dev.spec))
                notes[key] = []
            else:
                costs[key], notes[key] = self._model_cost(model, mode, dev)
        loads = {key: dev.load_s for key, dev in self._devices.items()}
        chosen = min(costs, key=lambda k: (loads[k] + costs[k], k))
        return RoutingDecision(
            tenant=tenant,
            model=model.name,
            device=chosen,
            costs=costs,
            loads=loads,
            notes=notes,
        )

    def _book(self, decision: RoutingDecision) -> None:
        """Charge the winner its cost and record the decision."""
        chosen, costs, loads = decision.device, decision.costs, decision.loads
        dev = self._devices[chosen]
        dev.load_s += costs[chosen]
        with dev.planning.span(
            "route", f"{decision.tenant}/{decision.model}", device=chosen,
            cost_s=costs[chosen],
        ) as span:
            span["alternatives"] = {
                k: loads[k] + costs[k] for k in costs if k != chosen
            }
        self._decisions.append(decision)

    def register_model(self, tenant: str, model: ModelSpec) -> RoutingDecision:
        """Place *model* and register it with the winning device's frontend.

        The placement is booked only once that frontend accepts the
        model, so a refused model leaves no load and no routing entry.
        """
        key = (tenant, model.name)
        if key in self._placements:
            raise ServingError(
                f"tenant {tenant!r} already has a model named {model.name!r}"
            )
        decision = self._bid(tenant, model)
        self._devices[decision.device].frontend.register_model(tenant, model)
        self._book(decision)
        self._placements[key] = decision.device
        return decision

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    async def submit(self, tenant: str, model: str, inputs):
        """Route one request to the device serving ``tenant/model``."""
        device = self.placement(tenant, model)
        return await self._devices[device].frontend.submit(tenant, model, inputs)

    # ------------------------------------------------------------------
    # Observability / lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Routing decisions plus every device frontend's serving stats."""
        return {
            "devices": {
                key: {
                    "device": dev.spec.name,
                    "load_s": dev.load_s,
                    "models": sum(
                        1 for d in self._placements.values() if d == key
                    ),
                    "serving": dev.frontend.stats(),
                }
                for key, dev in self._devices.items()
            },
            "routing": [d.to_dict() for d in self._decisions],
        }

    async def close(self) -> None:
        for dev in self._devices.values():
            await dev.frontend.close()

    async def __aenter__(self) -> "FleetRouter":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()
