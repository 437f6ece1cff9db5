"""Multi-tenant chip partitioning: spatial regions vs. time multiplexing.

Two ways to share one chip among co-resident models:

* **Spatial** (:func:`plan_spatial`) — the chip's cores are split into
  disjoint regions, one per tenant, sized by traffic-weighted demand.
  Each model is compiled for its sub-chip and placed onto its region with
  the region-constrained NoC placement
  (:func:`repro.sched.placement.annotate_placement`).  Weights stay
  resident, so same-model requests never pay reconfiguration — the whole
  point, given that a segment swap rewrites crossbars (Section 2.1).
* **Temporal** (:func:`plan_temporal`) — the baseline: every tenant is
  compiled for the full chip and the serving engine pays
  ``weight_load_cycles`` (a full crossbar reprogram) whenever consecutive
  batches belong to different tenants.

Both planners return a :class:`ServingPlan` the engine consumes; the
explore bridge (:mod:`repro.serve.sweep`) builds the same plans from
cached performance summaries instead of live compilations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..arch import CIMArchitecture
from ..errors import CapacityError, ScheduleError
from ..graph import Graph
from ..models import get_model
from ..perf import CompileCache, default_compile_cache
from ..sched import CIMMLC, CompilerOptions
from ..sched.costs import CostModel
from ..sched.placement import annotate_placement
from ..sched.schedule import Schedule
from .workload import TenantSpec

#: Serving plan modes.
MODES = ("spatial", "temporal")


def _implicit_cache() -> Optional[CompileCache]:
    """A planner-owned :class:`~repro.perf.CompileCache`, used when the
    caller passes no ``cache=``.  Honours the ``REPRO_DISK_CACHE``
    opt-in via :func:`~repro.perf.default_compile_cache`."""
    return default_compile_cache()


@dataclass(frozen=True)
class ServiceProfile:
    """Steady-state service behaviour of one compiled tenant.

    ``latency_cycles`` is one isolated inference end to end;
    ``interval_cycles`` the pipelined steady-state admission interval;
    ``switch_cycles`` what the hardware pays to bring this tenant's
    weights onto its crossbars (zero when the tenant owns its region).
    ``energy_per_inference`` / ``switch_energy`` are the energy twins of
    the two service costs, and ``peak_power`` the tenant's worst-case
    draw while computing — what a chip-level power budget water-fills
    against.

    ``deploy_cycles`` / ``deploy_energy`` are what bringing this tenant
    up *from cold* costs — the full crossbar weight program
    (``weight_load_cycles`` / ``weight_write_energy`` from the power
    model), charged regardless of mode: even a spatial tenant that never
    pays switch cost paid deployment once.  The fleet autoscaler charges
    them on every replica spin-up.
    """

    latency_cycles: float
    interval_cycles: float
    switch_cycles: float = 0.0
    energy_per_inference: float = 0.0
    switch_energy: float = 0.0
    peak_power: float = 0.0
    deploy_cycles: float = 0.0
    deploy_energy: float = 0.0

    def batch_cycles(self, n: int) -> float:
        """Service cycles for ``n`` back-to-back inferences (no switch)."""
        if n < 1:
            return 0.0
        return self.latency_cycles + (n - 1) * self.interval_cycles

    def batch_energy(self, n: int) -> float:
        """Service energy for ``n`` back-to-back inferences (no switch)."""
        if n < 1:
            return 0.0
        return n * self.energy_per_inference

    @classmethod
    def from_report(cls, report, switch_cycles: float = 0.0
                    ) -> "ServiceProfile":
        """From a live :class:`~repro.sim.performance.PerformanceReport`.

        Switch energy mirrors switch cycles: a tenant that pays the
        weight reprogram latency on a switch also pays its energy
        (``report.weight_write_energy``); a resident tenant pays neither.
        """
        return cls(latency_cycles=report.total_cycles,
                   interval_cycles=report.steady_state_interval,
                   switch_cycles=switch_cycles,
                   energy_per_inference=report.energy_per_inference,
                   switch_energy=(report.weight_write_energy
                                  if switch_cycles > 0 else 0.0),
                   peak_power=report.power.peak_power,
                   deploy_cycles=report.weight_load_cycles,
                   deploy_energy=report.weight_write_energy)

    @classmethod
    def from_summary(cls, summary: Dict,
                     switch_cycles: Optional[float] = None
                     ) -> "ServiceProfile":
        """From a cached explore summary dict (sweep-bridge path).

        ``switch_cycles`` defaults to the summary's ``weight_load_cycles``
        (the temporal-baseline cost); pass ``0.0`` for resident tenants.
        Switch energy follows switch cycles (see :meth:`from_report`).
        """
        if switch_cycles is None:
            switch_cycles = float(summary.get("weight_load_cycles", 0.0))
        return cls(latency_cycles=float(summary["total_cycles"]),
                   interval_cycles=float(summary["steady_state_interval"]),
                   switch_cycles=switch_cycles,
                   energy_per_inference=float(
                       summary.get("energy_per_inference", 0.0)),
                   switch_energy=(float(
                       summary.get("weight_write_energy", 0.0))
                       if switch_cycles > 0 else 0.0),
                   peak_power=float(summary.get("peak_power", 0.0)),
                   deploy_cycles=float(
                       summary.get("weight_load_cycles", 0.0)),
                   deploy_energy=float(
                       summary.get("weight_write_energy", 0.0)))


@dataclass(frozen=True)
class TenantPlan:
    """One tenant's share of the hardware plus its service profile."""

    spec: TenantSpec
    cores: Tuple[int, ...]            # physical core region
    service: ServiceProfile
    schedule: Optional[Schedule] = None   # live-compile path only


@dataclass(frozen=True)
class ServingPlan:
    """Everything the engine needs: mode, tenants, and hardware shares.

    ``shared_executor`` is True for the temporal baseline (one chip-wide
    executor multiplexes all tenants) and False for spatial partitioning
    (one executor per region, running concurrently).  ``power_budget``
    records the chip-level peak-power cap the planner honoured
    (``None`` = uncapped).
    """

    mode: str
    arch_name: str
    tenants: Tuple[TenantPlan, ...]
    power_budget: Optional[float] = None

    @property
    def shared_executor(self) -> bool:
        """True when one chip-wide executor multiplexes all tenants."""
        return self.mode == "temporal"

    @property
    def peak_power(self) -> float:
        """Worst-case concurrent draw of the whole plan.

        Spatial/sharded tenants compute concurrently, so peaks sum; a
        temporal chip runs one tenant at a time, so the worst single
        tenant is the plan's peak.
        """
        peaks = [t.service.peak_power for t in self.tenants]
        if not peaks:
            return 0.0
        return max(peaks) if self.shared_executor else sum(peaks)

    def tenant(self, name: str) -> TenantPlan:
        """Look up one tenant's plan by name."""
        for t in self.tenants:
            if t.spec.name == name:
                return t
        raise KeyError(f"no tenant {name!r} in plan")


def resolve_graphs(specs: Sequence[TenantSpec]) -> Dict[str, Graph]:
    """Model-zoo graphs per tenant name."""
    return {spec.name: get_model(spec.model) for spec in specs}


def min_cores(graph: Graph, arch: CIMArchitecture,
              cache: Optional[CompileCache] = None) -> int:
    """Smallest core count keeping the whole model resident (duplication
    1, single segment) — the floor a spatial region must clear."""
    profiles = CostModel(arch, cache=cache).profiles(graph)
    return sum(p.cores_per_replica for p in profiles.values() if p.is_cim)


def partition_cores(arch: CIMArchitecture, specs: Sequence[TenantSpec],
                    floors: Dict[str, int],
                    latency_fn: Callable[[TenantSpec, int], float],
                    blocks: int = 8,
                    budget: Optional[int] = None) -> Dict[str, int]:
    """Split a hardware budget among tenants by min-max water-filling.

    Every tenant starts at its residency floor; the surplus is granted in
    ``blocks`` equal chunks, each to the tenant with the highest *traffic-
    weighted isolated latency* — share of requests times
    ``latency_fn(spec, units)``.  Tail latency rides on the slowest
    tenant's single-inference latency, so equalizing this quantity is the
    p99-oriented split; it also discovers parallelism saturation (a model
    whose latency stops improving stops attracting units), which a
    demand-proportional split cannot.

    The unit is ``arch``'s cores by default; pass ``budget`` to split a
    different resource with the same policy — multi-chip serving
    (:func:`plan_sharded`) water-fills whole *chips* among tenants.

    ``latency_fn`` is measured, so each grant costs one compilation of
    the receiving tenant; callers memoize (and the sweep bridge routes it
    through the explore disk cache).
    """
    total_floor = sum(floors[s.name] for s in specs)
    hint = ("add chips" if budget is not None
            else "use temporal multiplexing")
    if budget is None:
        budget = arch.chip.core_number
    if total_floor > budget:
        raise CapacityError(
            f"tenants need {total_floor} units resident but only "
            f"{budget} are available; {hint}")
    alloc = {s.name: floors[s.name] for s in specs}
    surplus = budget - total_floor
    block = max(1, surplus // max(1, blocks))
    total_weight = sum(s.weight for s in specs)
    while surplus > 0:
        needy = None
        needy_load = -1.0
        for s in specs:
            load = s.weight / total_weight * latency_fn(s, alloc[s.name])
            if load > needy_load:
                needy, needy_load = s, load
        grant = min(block, surplus)
        alloc[needy.name] += grant
        surplus -= grant
    return alloc


def fit_power_budget(specs: Sequence[TenantSpec],
                     alloc: Dict[str, int],
                     floors: Dict[str, int],
                     peak_fn: Callable[[TenantSpec, int], float],
                     block: int,
                     power_budget: float) -> Dict[str, int]:
    """Shrink core allocations until concurrent peak power fits the budget.

    The reverse water-fill of :func:`partition_cores`: while the sum of
    per-tenant peaks (``peak_fn(spec, units)``) exceeds ``power_budget``,
    the hungriest tenant — highest peak power, name-ordered on ties — is
    *down-duplicated* by shrinking its region ``block`` cores toward its
    residency floor (fewer cores → less operator duplication → fewer
    simultaneously active crossbars).  Freed cores are left dark: the
    plan is power-bound, not core-bound.  Raises
    :class:`~repro.errors.CapacityError` when every tenant already sits
    at its floor and the mix still cannot fit — the tenant mix must be
    rejected (or given more chips).
    """
    alloc = dict(alloc)

    def total_peak() -> float:
        return sum(peak_fn(s, alloc[s.name]) for s in specs)

    while total_peak() > power_budget:
        shrinkable = [s for s in specs if alloc[s.name] > floors[s.name]]
        if not shrinkable:
            raise CapacityError(
                f"tenant mix needs peak power {total_peak():,.1f} even at "
                f"residency floors but the budget is {power_budget:,g}; "
                f"reject a tenant or raise the budget")
        worst = max(shrinkable,
                    key=lambda s: (peak_fn(s, alloc[s.name]), s.name))
        alloc[worst.name] = max(floors[worst.name],
                                alloc[worst.name] - max(1, block))
    return alloc


def _regions(specs: Sequence[TenantSpec],
             alloc: Dict[str, int],
             pool: Optional[Sequence[int]] = None
             ) -> Dict[str, Tuple[int, ...]]:
    """Contiguous physical-core blocks in tenant order (adjacent ids are
    adjacent on the mesh/H-tree generators, keeping regions compact).

    With ``pool`` the blocks are sliced from that explicit id list
    instead of ``range(...)`` — the degraded-hardware path hands in the
    surviving physical cores so dead ids are routed around."""
    regions: Dict[str, Tuple[int, ...]] = {}
    cursor = 0
    for spec in specs:
        n = alloc[spec.name]
        if pool is None:
            regions[spec.name] = tuple(range(cursor, cursor + n))
        else:
            block = tuple(pool[cursor:cursor + n])
            if len(block) < n:
                raise CapacityError(
                    f"tenant {spec.name!r} needs {n} cores but the "
                    f"surviving pool has only {len(block)} left "
                    f"(pool mask: {list(pool)})")
            regions[spec.name] = block
        cursor += n
    return regions


def plan_spatial(arch: CIMArchitecture, specs: Sequence[TenantSpec],
                 options: Optional[CompilerOptions] = None,
                 place: bool = True,
                 alloc: Optional[Dict[str, int]] = None,
                 blocks: int = 8,
                 cache: Optional[CompileCache] = None,
                 power_budget: Optional[float] = None,
                 core_pool: Optional[Sequence[int]] = None,
                 die_cores: Optional[int] = None) -> ServingPlan:
    """Compile every tenant onto its own region of the chip.

    ``core_pool`` / ``die_cores`` serve the degraded-hardware path
    (:func:`repro.faults.plan_degraded`): regions are carved from the
    explicit surviving-core id list instead of ``range(core_number)``
    and placement hop costs use the *physical* die size, so plans route
    around dead cores.  Both default to the healthy behaviour.

    Region sizes come from :func:`partition_cores` (min-max water-filling
    on measured service intervals) unless ``alloc`` pins them explicitly;
    each tenant is compiled for its region's core count and (optionally)
    placed onto the region's physical cores with the communication-aware
    greedy placement.  One :class:`~repro.perf.CompileCache` (supplied
    or created here) is shared by every water-filling compilation.

    With a ``power_budget`` the allocation is then shrunk by
    :func:`fit_power_budget` until the tenants' summed peak power fits —
    down-duplicating the hungriest tenants (the budget wins over an
    explicit ``alloc``), or raising
    :class:`~repro.errors.CapacityError` when the mix cannot fit even at
    residency floors.
    """
    cache = cache or _implicit_cache()
    graphs = resolve_graphs(specs)
    floors = {s.name: min_cores(graphs[s.name], arch, cache=cache)
              for s in specs}
    results: Dict[Tuple[str, int], "CompilationResult"] = {}

    def compiled(spec: TenantSpec, cores: int):
        key = (spec.name, cores)
        if key not in results:
            results[key] = CIMMLC(arch.with_cores(cores), options,
                                  cache=cache).compile(graphs[spec.name])
        return results[key]

    if alloc is None:
        alloc = partition_cores(
            arch, specs, floors,
            lambda spec, cores: compiled(spec, cores).report.total_cycles,
            blocks=blocks)
    else:
        used = sum(alloc[s.name] for s in specs)
        if used > arch.chip.core_number:
            raise CapacityError(
                f"allocation uses {used} cores; {arch.name} has "
                f"{arch.chip.core_number}")
        for s in specs:
            if alloc[s.name] < floors[s.name]:
                raise CapacityError(
                    f"tenant {s.name!r} needs {floors[s.name]} cores "
                    f"resident, allocated {alloc[s.name]}")
    if power_budget is not None:
        surplus = arch.chip.core_number - sum(floors.values())
        alloc = fit_power_budget(
            specs, alloc, floors,
            lambda spec, cores: compiled(spec, cores).report.power.peak_power,
            block=max(1, surplus // max(1, blocks)),
            power_budget=power_budget)
    regions = _regions(specs, alloc, pool=core_pool)
    die = arch.chip.core_number if die_cores is None else die_cores
    tenants: List[TenantPlan] = []
    for spec in specs:
        result = compiled(spec, alloc[spec.name])
        if place:
            for seg in range(len(result.schedule.segments)):
                annotate_placement(result.schedule, segment=seg,
                                   region=regions[spec.name],
                                   die_cores=die)
        tenants.append(TenantPlan(
            spec=spec,
            cores=regions[spec.name],
            service=ServiceProfile.from_report(result.report,
                                               switch_cycles=0.0),
            schedule=result.schedule,
        ))
    return ServingPlan(mode="spatial", arch_name=arch.name,
                       tenants=tuple(tenants), power_budget=power_budget)


def plan_temporal(arch: CIMArchitecture, specs: Sequence[TenantSpec],
                  options: Optional[CompilerOptions] = None,
                  cache: Optional[CompileCache] = None,
                  power_budget: Optional[float] = None,
                  core_pool: Optional[Sequence[int]] = None,
                  die_cores: Optional[int] = None) -> ServingPlan:
    """The time-multiplexed baseline: full chip per tenant, a complete
    weight reprogram (``weight_load_cycles``) on every tenant switch.

    ``core_pool`` / ``die_cores`` support degraded hardware exactly as
    in :func:`plan_spatial`: the shared executor occupies the surviving
    physical ids and schedules are placed onto them against the
    physical die size.

    A temporal chip runs one tenant at a time, so a ``power_budget``
    binds on the single hungriest tenant; a full-chip compilation cannot
    be down-duplicated, so an over-budget tenant is *rejected*
    (:class:`~repro.errors.CapacityError` — spatial partitioning can
    reshape instead).
    """
    cache = cache or _implicit_cache()
    graphs = resolve_graphs(specs)
    tenants: List[TenantPlan] = []
    if core_pool is not None:
        if len(core_pool) < arch.chip.core_number:
            raise CapacityError(
                f"core pool supplies {len(core_pool)} cores; {arch.name} "
                f"schedules need {arch.chip.core_number} "
                f"(pool mask: {list(core_pool)})")
        all_cores = tuple(core_pool)
    else:
        all_cores = tuple(range(arch.chip.core_number))
    die = arch.chip.core_number if die_cores is None else die_cores
    for spec in specs:
        result = CIMMLC(arch, options, cache=cache).compile(graphs[spec.name])
        peak = result.report.power.peak_power
        if power_budget is not None and peak > power_budget:
            raise CapacityError(
                f"tenant {spec.name!r} peaks at {peak:,.1f} on the full "
                f"chip, over the {power_budget:,.1f} budget; use spatial "
                f"partitioning (it can down-duplicate) or reject the "
                f"tenant")
        if core_pool is not None:
            for seg in range(len(result.schedule.segments)):
                annotate_placement(result.schedule, segment=seg,
                                   region=all_cores, die_cores=die)
        tenants.append(TenantPlan(
            spec=spec,
            cores=all_cores,
            service=ServiceProfile.from_report(
                result.report,
                switch_cycles=result.report.weight_load_cycles),
            schedule=result.schedule,
        ))
    return ServingPlan(mode="temporal", arch_name=arch.name,
                       tenants=tuple(tenants), power_budget=power_budget)


def plan_sharded(system: "MultiChipSystem", specs: Sequence[TenantSpec],
                 options: Optional[CompilerOptions] = None,
                 blocks: int = 4,
                 cache: Optional[CompileCache] = None) -> ServingPlan:
    """Serve tenants that each *span several chips* of a multi-chip system.

    The system's chips are water-filled among tenants with the same
    min-max policy as :func:`partition_cores` (budget = chips, floors =
    each tenant's :func:`repro.scale.min_chips`); every tenant's model is
    then sharded across its chip block with :func:`repro.scale.shard`,
    giving a pipelined multi-chip service profile.  Weights stay resident
    on every chip, so tenants never pay switch cost — the spatial story
    one level up.

    Each tenant's block is priced as :meth:`MultiChipSystem.block` — a
    contiguous sub-block with no wraparound link and no shortcuts
    through other tenants' chips.  ``TenantPlan.cores`` holds *global*
    chip ids under this mode (stage/chip indices inside each tenant's
    :class:`~repro.scale.ShardPlan` report are block-local).

    Example
    -------
    >>> from repro.arch import MultiChipSystem, functional_testbed
    >>> from repro.serve import TenantSpec, plan_sharded
    >>> plan = plan_sharded(
    ...     MultiChipSystem(functional_testbed(), 4),
    ...     [TenantSpec("lenet", "lenet"), TenantSpec("mlp", "mlp")])
    >>> plan.mode
    'sharded'
    """
    from ..scale import min_chips, shard

    cache = cache or _implicit_cache()
    graphs = resolve_graphs(specs)
    floor_cm = CostModel(system.chip, cache=cache)
    floors = {s.name: min_chips(graphs[s.name], system.chip,
                                cost_model=floor_cm)
              for s in specs}
    plans: Dict[Tuple[str, int], "ShardPlan"] = {}

    def sharded(spec: TenantSpec, chips: int):
        key = (spec.name, chips)
        if key not in plans:
            plans[key] = shard(graphs[spec.name],
                               system.block(chips), options, cache=cache)
        return plans[key]

    alloc = partition_cores(
        system.chip, specs, floors,
        lambda spec, chips: sharded(spec, chips).report.total_cycles,
        blocks=blocks, budget=system.num_chips)
    tenants: List[TenantPlan] = []
    cursor = 0
    for spec in specs:
        n = alloc[spec.name]
        plan = sharded(spec, n)
        tenants.append(TenantPlan(
            spec=spec,
            cores=tuple(range(cursor, cursor + n)),   # chip ids
            service=ServiceProfile(
                latency_cycles=plan.report.total_cycles,
                interval_cycles=plan.report.steady_state_interval,
                switch_cycles=0.0,
                energy_per_inference=plan.report.energy_per_inference,
                switch_energy=0.0,
                peak_power=plan.report.peak_power,
                deploy_cycles=float(getattr(
                    plan.report, "weight_load_cycles", 0.0)),
                deploy_energy=float(getattr(
                    plan.report, "weight_write_energy", 0.0))),
        ))
        cursor += n
    return ServingPlan(mode="sharded", arch_name=system.name,
                       tenants=tuple(tenants))


def make_plan(mode: str, arch: CIMArchitecture, specs: Sequence[TenantSpec],
              options: Optional[CompilerOptions] = None,
              **kwargs) -> ServingPlan:
    """Dispatch on ``mode`` (:data:`MODES`, or ``"sharded"`` with a
    ``system=`` :class:`~repro.arch.MultiChipSystem` keyword); ``kwargs``
    reach the planner (e.g. ``alloc=``/``blocks=`` for spatial)."""
    if mode == "spatial":
        return plan_spatial(arch, specs, options, **kwargs)
    if mode == "temporal":
        # Forward only what plan_temporal accepts; spatial-only kwargs
        # (alloc=/blocks=) stay ignored here, as they always were.
        return plan_temporal(arch, specs, options,
                             cache=kwargs.get("cache"),
                             power_budget=kwargs.get("power_budget"),
                             core_pool=kwargs.get("core_pool"),
                             die_cores=kwargs.get("die_cores"))
    if mode == "sharded":
        if kwargs.pop("power_budget", None) is not None:
            raise ScheduleError(
                "power budgets apply to spatial/temporal plans; the "
                "sharded planner has no per-chip down-duplication yet")
        system = kwargs.pop("system", None)
        if system is None:
            from ..arch import MultiChipSystem

            system = MultiChipSystem(arch, kwargs.pop("chips", 2))
        return plan_sharded(system, specs, options, **kwargs)
    raise ScheduleError(
        f"unknown serving mode {mode!r}; choose one of "
        f"{MODES + ('sharded',)}")
