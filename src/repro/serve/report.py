"""Serving metrics: tail latency, throughput, utilization, SLO attainment.

A :class:`ServeReport` is a plain frozen value object built once per
simulation.  It keeps every per-request latency: one float per
completed request, which is all the engines keep of a completed
request.  So ``to_dict()`` round-trips the complete outcome (the
determinism tests assert bit-identical dicts across runs), and the
report renders the classic serving table (per-tenant p50/p95/p99,
throughput in requests per mega-cycle, executor utilization,
reconfiguration share).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from ..perf.kernels import fold


def percentile(latencies: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    return sorted_percentile(sorted(latencies), q)


def sorted_percentile(ordered: Sequence[float], q: float) -> float:
    """:func:`percentile` of an already ascending ``ordered`` list, so
    one sort serves every percentile read from it."""
    if not ordered:
        return 0.0
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


@dataclass(frozen=True)
class TenantStats:
    """Serving outcome of one tenant."""

    tenant: str
    model: str
    arrived: int
    completed: int
    rejected: int
    throughput_per_mcycle: float
    p50: float
    p95: float
    p99: float
    mean_latency: float
    max_latency: float
    slo_cycles: float
    slo_attainment: float
    batches: int
    mean_batch: float
    latencies: Tuple[float, ...]   # per-request, completion order
    #: Energy this tenant's traffic consumed: every batch it dispatched
    #: plus every weight reprogram its switches triggered.
    energy: float = 0.0

    @property
    def energy_per_request(self) -> float:
        """Mean energy per completed request (switch energy amortized)."""
        return self.energy / self.completed if self.completed else 0.0

    def to_dict(self) -> Dict:
        """JSON-able export of this tenant's statistics."""
        return {
            "tenant": self.tenant,
            "model": self.model,
            "arrived": self.arrived,
            "completed": self.completed,
            "rejected": self.rejected,
            "throughput_per_mcycle": self.throughput_per_mcycle,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "mean_latency": self.mean_latency,
            "max_latency": self.max_latency,
            "slo_cycles": self.slo_cycles,
            "slo_attainment": self.slo_attainment,
            "batches": self.batches,
            "mean_batch": self.mean_batch,
            "energy": self.energy,
            "energy_per_request": self.energy_per_request,
            "latencies": list(self.latencies),
        }


@dataclass(frozen=True)
class ExecutorStats:
    """Occupancy of one hardware share."""

    name: str
    tenants: Tuple[str, ...]
    busy_cycles: float
    switch_cycles: float
    switches: int
    utilization: float
    #: Energy this hardware share consumed over the scenario.
    energy: float = 0.0
    #: Worst-case draw of this share (its hungriest tenant's peak).
    peak_power: float = 0.0

    def to_dict(self) -> Dict:
        """JSON-able export of this executor's occupancy."""
        return {
            "name": self.name,
            "tenants": list(self.tenants),
            "busy_cycles": self.busy_cycles,
            "switch_cycles": self.switch_cycles,
            "switches": self.switches,
            "utilization": self.utilization,
            "energy": self.energy,
            "peak_power": self.peak_power,
        }


@dataclass(frozen=True)
class ServeReport:
    """Complete outcome of one serving scenario."""

    mode: str
    arch: str
    policy: str
    horizon_cycles: float
    tenants: Tuple[TenantStats, ...]
    executors: Tuple[ExecutorStats, ...]
    #: The chip-level peak-power cap the plan honoured (None = uncapped).
    power_budget: Optional[float] = None
    #: Digest of the span timeline recorded alongside this run (None
    #: when recording was off — the export, and therefore the report
    #: digest, is then bit-identical to pre-trace builds).
    trace_digest: Optional[str] = None

    # -- aggregates ----------------------------------------------------

    @property
    def completed(self) -> int:
        """Requests finished across all tenants."""
        return sum(t.completed for t in self.tenants)

    @property
    def rejected(self) -> int:
        """Requests dropped by queue bounds across all tenants."""
        return sum(t.rejected for t in self.tenants)

    @property
    def throughput_per_mcycle(self) -> float:
        """Completed requests per mega-cycle of simulated time."""
        if self.horizon_cycles <= 0:
            return 0.0
        return self.completed * 1e6 / self.horizon_cycles

    @cached_property
    def _sorted_latencies(self) -> List[float]:
        """Every completed request's latency, ascending (sorted once)."""
        return sorted(lat for t in self.tenants for lat in t.latencies)

    @property
    def p50(self) -> float:
        """Median end-to-end latency over every completed request."""
        return sorted_percentile(self._sorted_latencies, 50)

    @property
    def p95(self) -> float:
        """95th-percentile end-to-end latency."""
        return sorted_percentile(self._sorted_latencies, 95)

    @property
    def p99(self) -> float:
        """99th-percentile (tail) end-to-end latency."""
        return sorted_percentile(self._sorted_latencies, 99)

    @property
    def slo_attainment(self) -> float:
        """Share of arrivals finishing within their tenant's SLO."""
        arrived = sum(t.arrived for t in self.tenants)
        if arrived == 0:
            return 1.0
        met = sum(
            sum(1 for lat in t.latencies if lat <= t.slo_cycles)
            for t in self.tenants
        )
        return met / arrived

    @property
    def utilization(self) -> float:
        """Mean executor occupancy (a spatial plan averages regions)."""
        if not self.executors:
            return 0.0
        return fold(e.utilization for e in self.executors) / \
            len(self.executors)

    @property
    def switch_cycles(self) -> float:
        """Total cycles burnt reprogramming weights on tenant switches."""
        return fold(e.switch_cycles for e in self.executors)

    @property
    def total_energy(self) -> float:
        """Energy the whole scenario consumed (all executors summed)."""
        return fold(e.energy for e in self.executors)

    @property
    def avg_power(self) -> float:
        """Mean draw over the horizon: total energy / simulated cycles."""
        if self.horizon_cycles <= 0:
            return 0.0
        return self.total_energy / self.horizon_cycles

    @property
    def peak_power(self) -> float:
        """Worst-case concurrent draw: regions sum (they compute at the
        same time); a temporal chip runs one tenant at a time, so its
        single executor already carries the max."""
        if not self.executors:
            return 0.0
        peaks = [e.peak_power for e in self.executors]
        return max(peaks) if self.mode == "temporal" else fold(peaks)

    # -- export --------------------------------------------------------

    def to_dict(self) -> Dict:
        """JSON-able export of the whole scenario outcome."""
        out = {
            "mode": self.mode,
            "arch": self.arch,
            "policy": self.policy,
            "horizon_cycles": self.horizon_cycles,
            "completed": self.completed,
            "rejected": self.rejected,
            "throughput_per_mcycle": self.throughput_per_mcycle,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "slo_attainment": self.slo_attainment,
            "utilization": self.utilization,
            "switch_cycles": self.switch_cycles,
            "total_energy": self.total_energy,
            "avg_power": self.avg_power,
            "peak_power": self.peak_power,
            "power_budget": self.power_budget,
            "tenants": [t.to_dict() for t in self.tenants],
            "executors": [e.to_dict() for e in self.executors],
        }
        if self.trace_digest is not None:
            out["trace_digest"] = self.trace_digest
        return out

    def to_json(self, indent: Optional[int] = 1) -> str:
        """The :meth:`to_dict` export as a JSON string."""
        return json.dumps(self.to_dict(), indent=indent)

    def digest(self) -> str:
        """SHA-256 of the canonical JSON export.

        When the run was recorded, the export embeds the trace digest,
        so the report digest also pins the exact timeline the run
        produced (a recorded run is verifiably the run analyzed).
        """
        payload = json.dumps(self.to_dict(), sort_keys=True,
                             separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()

    def table(self) -> str:
        """Readable serving summary."""
        lines = [
            f"serve {self.arch} mode={self.mode} policy={self.policy}",
            f"horizon: {self.horizon_cycles:,.0f} cycles | "
            f"completed {self.completed} | rejected {self.rejected} | "
            f"throughput {self.throughput_per_mcycle:.2f} req/Mcycle",
            f"latency p50/p95/p99: {self.p50:,.0f} / {self.p95:,.0f} / "
            f"{self.p99:,.0f} cycles | SLO attainment "
            f"{self.slo_attainment:.1%}",
            f"utilization {self.utilization:.1%} | reconfiguration "
            f"{self.switch_cycles:,.0f} cycles",
            f"energy {self.total_energy:,.0f} | avg power "
            f"{self.avg_power:,.3f} | peak power {self.peak_power:,.1f}"
            + (f" (budget {self.power_budget:,.1f})"
               if self.power_budget is not None else ""),
        ]
        header = (f"  {'tenant':<14} {'done':>6} {'rej':>5} {'p50':>10} "
                  f"{'p99':>12} {'req/Mcyc':>9} {'SLO':>7} {'batch':>6}")
        lines.append(header)
        for t in self.tenants:
            lines.append(
                f"  {t.tenant:<14} {t.completed:>6} {t.rejected:>5} "
                f"{t.p50:>10,.0f} {t.p99:>12,.0f} "
                f"{t.throughput_per_mcycle:>9.2f} "
                f"{t.slo_attainment:>6.1%} {t.mean_batch:>6.1f}"
            )
        return "\n".join(lines)


def build_report(plan, policy_label: str,
                 latencies: Dict[str, List[float]],
                 rejected: Dict[str, int],
                 batch_sizes: Dict[str, List[int]],
                 horizon: float,
                 executors: Sequence[Tuple],
                 slo_factor: float = 10.0,
                 tenant_energy: Optional[Dict[str, float]] = None,
                 trace_digest: Optional[str] = None
                 ) -> ServeReport:
    """Assemble a :class:`ServeReport` from raw engine tallies.

    ``latencies`` maps each tenant to its completed requests' latencies
    in completion order.  Each tenant's SLO is its spec's absolute
    ``slo_cycles`` when set, otherwise ``slo_factor`` times its isolated
    single-inference latency under this plan.  ``executors`` rows are
    ``(name, tenant names, busy, switch cycles, switches, energy)``;
    ``tenant_energy`` carries the engine's per-tenant energy tally
    (defaults to zero).
    """
    tenant_energy = tenant_energy or {}
    tenant_stats: List[TenantStats] = []
    for tp in plan.tenants:
        name = tp.spec.name
        lats = latencies[name]
        ordered = sorted(lats)
        completed = len(lats)
        slo = tp.spec.slo_cycles if tp.spec.slo_cycles is not None \
            else slo_factor * tp.service.latency_cycles
        sizes = batch_sizes[name]
        tenant_stats.append(TenantStats(
            tenant=name,
            model=tp.spec.model,
            arrived=completed + rejected[name],
            completed=completed,
            rejected=rejected[name],
            throughput_per_mcycle=(completed * 1e6 / horizon
                                   if horizon > 0 else 0.0),
            p50=sorted_percentile(ordered, 50),
            p95=sorted_percentile(ordered, 95),
            p99=sorted_percentile(ordered, 99),
            mean_latency=fold(lats) / completed if completed else 0.0,
            max_latency=max(lats) if lats else 0.0,
            slo_cycles=slo,
            slo_attainment=(sum(1 for lat in lats if lat <= slo)
                            / (completed + rejected[name])
                            if completed + rejected[name] else 1.0),
            batches=len(sizes),
            mean_batch=sum(sizes) / len(sizes) if sizes else 0.0,
            latencies=tuple(lats),
            energy=tenant_energy.get(name, 0.0),
        ))
    exec_stats = tuple(
        ExecutorStats(
            name=name,
            tenants=tuple(tenant_names),
            busy_cycles=busy,
            switch_cycles=switch,
            switches=switches,
            utilization=busy / horizon if horizon > 0 else 0.0,
            energy=energy,
            peak_power=max((plan.tenant(t).service.peak_power
                            for t in tenant_names), default=0.0),
        )
        for name, tenant_names, busy, switch, switches, energy in executors
    )
    return ServeReport(
        mode=plan.mode,
        arch=plan.arch_name,
        policy=policy_label,
        horizon_cycles=horizon,
        tenants=tuple(tenant_stats),
        executors=exec_stats,
        power_budget=getattr(plan, "power_budget", None),
        trace_digest=trace_digest,
    )
