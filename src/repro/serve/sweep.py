"""Capacity sweeps: (arrival rate x partition mode x batch policy) grids
riding the :mod:`repro.explore` result cache.

The expensive part of a serving study is *compilation* — one compile per
(tenant, chip share).  This bridge expresses those compilations as
:class:`~repro.explore.space.SweepPoint` entries and evaluates them
through a :class:`~repro.explore.runner.SweepRunner`, so repeated and
overlapping capacity sweeps reuse the content-addressed disk cache; the
discrete-event simulations themselves are cheap and always run fresh
from the cached service summaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..arch import CIMArchitecture
from ..explore import SweepPoint, SweepRunner, SweepSpace
from ..sched import CompilerOptions
from .engine import BatchPolicy, TimeoutBatch, simulate
from .partition import (
    MODES,
    ServiceProfile,
    ServingPlan,
    TenantPlan,
    fit_power_budget,
    min_cores,
    partition_cores,
    resolve_graphs,
    _regions,
)
from .report import ServeReport
from .workload import TenantSpec, _require_positive, make_trace


@dataclass(frozen=True)
class ServeSweepPoint:
    """One cell of the capacity grid."""

    rate: float                 # requests per cycle
    mode: str
    policy: str
    report: ServeReport

    @property
    def rate_per_mcycle(self) -> float:
        """Arrival rate in requests per mega-cycle (display units)."""
        return self.rate * 1e6


def _summaries(runner: SweepRunner, points: List[SweepPoint]) -> List[Dict]:
    sweep = runner.run(SweepSpace.explicit(points))
    return [r.summary for r in sweep]


def build_plans(arch: CIMArchitecture, specs: Sequence[TenantSpec],
                modes: Sequence[str] = MODES,
                options: Optional[CompilerOptions] = None,
                runner: Optional[SweepRunner] = None,
                power_budget: Optional[float] = None
                ) -> Dict[str, ServingPlan]:
    """Serving plans per mode, compiled through the explore cache.

    Unlike :func:`~repro.serve.partition.make_plan` (live compiles and
    region placement), plans built here carry no schedules — only the
    cached service summaries the engine needs — so a warm cache makes
    them essentially free.  A ``power_budget`` is honoured exactly like
    the live planners: the spatial allocation is shrunk via
    :func:`~repro.serve.partition.fit_power_budget` (every probe riding
    the cache) and an over-budget temporal tenant raises
    :class:`~repro.errors.CapacityError`; a zero, negative or non-finite
    budget raises :class:`~repro.errors.ScheduleError`.
    """
    if power_budget is not None:
        _require_positive("power budget", power_budget)
    for mode in modes:
        if mode not in MODES:
            from ..errors import ScheduleError
            raise ScheduleError(
                f"unknown serving mode {mode!r}; choose one of {MODES}")
    runner = runner or SweepRunner()
    options = options or CompilerOptions()
    graphs = resolve_graphs(specs)
    summaries: Dict[Tuple[str, int], Dict] = {}

    def _point(spec: TenantSpec, cores: int) -> SweepPoint:
        return SweepPoint(f"serve {spec.name}", f"cores={cores}",
                          arch.with_cores(cores), graphs[spec.name],
                          options)

    def prefetch(pairs: List[Tuple[TenantSpec, int]]) -> None:
        """Evaluate independent points in one batch so the runner's
        worker pool (and cache) sees them together."""
        todo = [(s, c) for s, c in pairs if (s.name, c) not in summaries]
        results = _summaries(runner, [_point(s, c) for s, c in todo])
        for (s, c), summary in zip(todo, results):
            summaries[(s.name, c)] = summary

    def summary_for(spec: TenantSpec, cores: int) -> Dict:
        if (spec.name, cores) not in summaries:
            prefetch([(spec, cores)])
        return summaries[(spec.name, cores)]

    plans: Dict[str, ServingPlan] = {}
    # All full-chip compiles and every tenant's residency-floor compile
    # are independent of each other: batch them so ``runner``'s process
    # pool actually fans out (the water-filling grants that follow are
    # inherently sequential, one compile per grant).
    batch: List[Tuple[TenantSpec, int]] = []
    floors: Dict[str, int] = {}
    if "temporal" in modes:
        batch.extend((s, arch.chip.core_number) for s in specs)
    if "spatial" in modes:
        floors = {s.name: min_cores(graphs[s.name], arch) for s in specs}
        batch.extend((s, floors[s.name]) for s in specs)
    prefetch(batch)
    if "temporal" in modes:
        if power_budget is not None:
            from ..errors import CapacityError

            for s in specs:
                peak = float(
                    summary_for(s, arch.chip.core_number)["peak_power"])
                if peak > power_budget:
                    raise CapacityError(
                        f"tenant {s.name!r} peaks at {peak:,.1f} on the "
                        f"full chip, over the {power_budget:,.1f} budget; "
                        f"use spatial partitioning or reject the tenant")
        all_cores = tuple(range(arch.chip.core_number))
        plans["temporal"] = ServingPlan(
            mode="temporal", arch_name=arch.name,
            tenants=tuple(
                TenantPlan(
                    spec=s, cores=all_cores,
                    service=ServiceProfile.from_summary(
                        summary_for(s, arch.chip.core_number)))
                for s in specs
            ),
            power_budget=power_budget)
    if "spatial" in modes:
        alloc = partition_cores(
            arch, specs, floors,
            lambda spec, cores: summary_for(spec, cores)["total_cycles"])
        if power_budget is not None:
            surplus = arch.chip.core_number - sum(floors.values())
            alloc = fit_power_budget(
                specs, alloc, floors,
                lambda spec, cores: float(
                    summary_for(spec, cores)["peak_power"]),
                block=max(1, surplus // 8),
                power_budget=power_budget)
        regions = _regions(specs, alloc)
        plans["spatial"] = ServingPlan(
            mode="spatial", arch_name=arch.name,
            tenants=tuple(
                TenantPlan(
                    spec=s, cores=regions[s.name],
                    service=ServiceProfile.from_summary(
                        summary_for(s, alloc[s.name]), switch_cycles=0.0))
                for s in specs
            ),
            power_budget=power_budget)
    return plans


def serve_sweep(arch: CIMArchitecture, specs: Sequence[TenantSpec],
                rates: Sequence[float],
                modes: Sequence[str] = MODES,
                policies: Sequence[BatchPolicy] = (),
                trace_kind: str = "poisson",
                num_requests: int = 400,
                seed: int = 0,
                slo_factor: float = 10.0,
                max_queue: Optional[int] = None,
                options: Optional[CompilerOptions] = None,
                runner: Optional[SweepRunner] = None,
                power_budget: Optional[float] = None
                ) -> List[ServeSweepPoint]:
    """Run the full capacity grid; compilations hit the explore cache.

    ``rates`` are requests per cycle.  Each rate generates one seeded
    trace shared by every (mode, policy) cell, so cells differ only in
    the serving configuration.  ``power_budget`` caps every plan's
    concurrent peak power (see :func:`build_plans`).
    """
    policies = list(policies) or [TimeoutBatch(max_size=8, timeout=50_000.0)]
    plans = build_plans(arch, specs, modes=modes, options=options,
                        runner=runner, power_budget=power_budget)
    out: List[ServeSweepPoint] = []
    for rate in rates:
        trace = make_trace(trace_kind, specs, rate, num_requests, seed=seed)
        for mode in modes:
            for policy in policies:
                report = simulate(plans[mode], trace, policy=policy,
                                  max_queue=max_queue,
                                  slo_factor=slo_factor)
                out.append(ServeSweepPoint(rate=rate, mode=mode,
                                           policy=policy.describe(),
                                           report=report))
    return out


def capacity_table(points: Sequence[ServeSweepPoint]) -> str:
    """Text grid: one row per (rate, policy), p99 + SLO per mode."""
    modes = []
    for p in points:
        if p.mode not in modes:
            modes.append(p.mode)
    header = f"{'rate/Mcyc':>10} {'policy':<18}"
    for mode in modes:
        header += f" {mode + ' p99':>14} {mode + ' SLO':>13}"
    lines = [header]
    cells: Dict[Tuple[float, str], Dict[str, ServeSweepPoint]] = {}
    order: List[Tuple[float, str]] = []
    for p in points:
        key = (p.rate, p.policy)
        if key not in cells:
            cells[key] = {}
            order.append(key)
        cells[key][p.mode] = p
    for rate, policy in order:
        row = f"{rate * 1e6:>10.2f} {policy:<18}"
        for mode in modes:
            p = cells[(rate, policy)].get(mode)
            if p is None:
                row += f" {'-':>14} {'-':>13}"
            else:
                row += (f" {p.report.p99:>14,.0f} "
                        f"{p.report.slo_attainment:>12.1%}")
        lines.append(row)
    return "\n".join(lines)
