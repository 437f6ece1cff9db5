"""Fleet-level serving outcome: tails, rejections, and the energy ledger.

A :class:`FleetReport` aggregates one fleet simulation three ways:

* **per tenant** — the same :class:`~repro.serve.report.TenantStats`
  rows the single-system report uses, merged across replicas (latency
  percentiles are fleet-wide, measured at the front end: link hops
  included).
* **per replica** — :class:`ReplicaStats` occupancy rows, plus how many
  times the autoscaler deployed each replica.
* **the energy ledger** — three strictly separated entries:
  ``replica_energy`` (batches + tenant switches, from the serve cores),
  ``deploy_energy`` (every spin-up's full weight program), and
  ``link_energy`` (front-end↔replica hops).  ``energy_per_request``
  divides their sum by completed requests — the headline metric that
  makes overprovisioning visible: idle replicas still cost deployment
  energy, which amortizes over fewer requests each.

``digest()`` hashes the canonical JSON export — the currency of the
determinism pin (same seed ⇒ bit-identical report) and of the
``repro bench`` fleet workload's reference/fast equality check.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from ..perf.kernels import fold
from ..serve.report import TenantStats, sorted_percentile


@dataclass(frozen=True)
class ReplicaStats:
    """Occupancy and energy of one replica over the scenario."""

    rid: int
    mode: str
    arch: str
    completed: int
    busy_cycles: float
    switch_cycles: float
    switches: int
    utilization: float
    energy: float
    deployments: int

    def to_dict(self) -> Dict:
        """JSON-able export of this replica's row."""
        return {
            "rid": self.rid,
            "mode": self.mode,
            "arch": self.arch,
            "completed": self.completed,
            "busy_cycles": self.busy_cycles,
            "switch_cycles": self.switch_cycles,
            "switches": self.switches,
            "utilization": self.utilization,
            "energy": self.energy,
            "deployments": self.deployments,
        }


@dataclass(frozen=True)
class FleetReport:
    """Complete outcome of one fleet scenario."""

    arch: str
    fleet_size: int
    policy: str
    router: str
    admission: str
    autoscaler: Optional[str]
    horizon_cycles: float
    tenants: Tuple[TenantStats, ...]
    replicas: Tuple[ReplicaStats, ...]
    #: Front-end rejections by reason (``no_capacity`` / ``queue`` /
    #: ``slo`` / ``fairness``), plus ``replica_queue`` for requests that
    #: bounced off a replica-local ``max_queue`` bound after admission.
    rejections: Dict[str, int]
    #: ``(time, action, rid)`` autoscaler decisions, in decision order.
    scale_events: Tuple[Tuple[float, str, int], ...]
    replica_energy: float
    deploy_energy: float
    link_energy: float
    #: Replicas active at t=0 (the autoscaler's floor, or the whole
    #: fleet when scaling is off).
    initial_active: int = 0
    #: Digest of the span timeline recorded alongside this run (None
    #: when recording was off — the export, and therefore the report
    #: digest, is then bit-identical to pre-trace builds).
    trace_digest: Optional[str] = None
    #: Fault-injection ledger (:mod:`repro.faults`): the fault model,
    #: drift rewrite count/stall/energy, the chip-death record, and
    #: availability.  ``None`` on fault-free runs — the export, and
    #: therefore the digest, is then bit-identical to pre-fault builds.
    fault: Optional[Dict] = None

    # -- aggregates ----------------------------------------------------

    @property
    def completed(self) -> int:
        """Requests finished across the whole fleet."""
        return sum(t.completed for t in self.tenants)

    @property
    def rejected(self) -> int:
        """Requests rejected anywhere (front end or replica bound)."""
        return sum(t.rejected for t in self.tenants)

    @property
    def active_peak(self) -> int:
        """Largest concurrently active replica count reached (replays
        the scale-event ledger forward from ``initial_active``)."""
        running = peak = self.initial_active
        for _, action, _rid in self.scale_events:
            running += 1 if action == "up" else -1
            peak = max(peak, running)
        return peak

    @cached_property
    def _sorted_latencies(self) -> List[float]:
        """Every completed request's latency, ascending (sorted once)."""
        return sorted(lat for t in self.tenants for lat in t.latencies)

    @property
    def p50(self) -> float:
        """Median front-end latency over every completed request."""
        return sorted_percentile(self._sorted_latencies, 50)

    @property
    def p95(self) -> float:
        """95th-percentile front-end latency."""
        return sorted_percentile(self._sorted_latencies, 95)

    @property
    def p99(self) -> float:
        """99th-percentile (tail) front-end latency."""
        return sorted_percentile(self._sorted_latencies, 99)

    @property
    def slo_attainment(self) -> float:
        """Share of *arrivals* finishing within SLO (rejections count
        against attainment — a dropped request did not meet its SLO)."""
        arrived = sum(t.arrived for t in self.tenants)
        if arrived == 0:
            return 1.0
        met = sum(sum(1 for lat in t.latencies if lat <= t.slo_cycles)
                  for t in self.tenants)
        return met / arrived

    @property
    def fault_energy(self) -> float:
        """Energy charged to injected faults (drift weight rewrites)."""
        return self.fault.get("fault_energy", 0.0) if self.fault else 0.0

    @property
    def availability(self) -> float:
        """Capacity-weighted availability through the scenario: 1 minus
        the share of fleet capacity-cycles lost to a chip death (1.0 on
        fault-free runs)."""
        if self.fault is None:
            return 1.0
        return self.fault.get("availability", 1.0)

    @property
    def recovery_cycles(self) -> Optional[float]:
        """Cycles from chip death to the replacement replica being
        ready (``None``: no death, or no spare was left)."""
        death = self.fault.get("chip_death") if self.fault else None
        return death.get("recovery_cycles") if death else None

    @property
    def drift_rewrites(self) -> int:
        """Drift-forced weight rewrites the fault injection performed."""
        return self.fault.get("drift_rewrites", 0) if self.fault else 0

    @property
    def total_energy(self) -> float:
        """The full ledger: replicas + deployments + link hops (+ drift
        rewrites when faults were injected)."""
        return (self.replica_energy + self.deploy_energy
                + self.link_energy + self.fault_energy)

    @property
    def energy_per_request(self) -> float:
        """Total fleet energy amortized over completed requests."""
        return self.total_energy / self.completed if self.completed else 0.0

    @property
    def avg_power(self) -> float:
        """Mean fleet draw over the horizon."""
        if self.horizon_cycles <= 0:
            return 0.0
        return self.total_energy / self.horizon_cycles

    @property
    def utilization(self) -> float:
        """Mean replica occupancy over the horizon (all replicas)."""
        if not self.replicas:
            return 0.0
        return fold(r.utilization for r in self.replicas) / len(self.replicas)

    @property
    def deployments(self) -> int:
        """Total replica spin-ups charged to the ledger."""
        return sum(r.deployments for r in self.replicas)

    # -- export --------------------------------------------------------

    def to_dict(self) -> Dict:
        """JSON-able export of the whole fleet outcome."""
        out = {
            "arch": self.arch,
            "fleet_size": self.fleet_size,
            "policy": self.policy,
            "router": self.router,
            "admission": self.admission,
            "autoscaler": self.autoscaler,
            "horizon_cycles": self.horizon_cycles,
            "completed": self.completed,
            "rejected": self.rejected,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "slo_attainment": self.slo_attainment,
            "utilization": self.utilization,
            "replica_energy": self.replica_energy,
            "deploy_energy": self.deploy_energy,
            "link_energy": self.link_energy,
            "total_energy": self.total_energy,
            "energy_per_request": self.energy_per_request,
            "avg_power": self.avg_power,
            "deployments": self.deployments,
            "initial_active": self.initial_active,
            "active_peak": self.active_peak,
            "rejections": dict(sorted(self.rejections.items())),
            "scale_events": [list(e) for e in self.scale_events],
            "tenants": [t.to_dict() for t in self.tenants],
            "replicas": [r.to_dict() for r in self.replicas],
        }
        if self.trace_digest is not None:
            out["trace_digest"] = self.trace_digest
        if self.fault is not None:
            out["fault"] = self.fault
        return out

    def to_json(self, indent: Optional[int] = 1) -> str:
        """The :meth:`to_dict` export as a JSON string."""
        return json.dumps(self.to_dict(), indent=indent)

    def digest(self) -> str:
        """SHA-256 of the canonical export — the determinism currency."""
        payload = json.dumps(self.to_dict(), sort_keys=True,
                             separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()

    def table(self) -> str:
        """Readable fleet summary."""
        scaler = self.autoscaler or "static"
        lines = [
            f"fleet {self.arch} x{self.fleet_size} router={self.router} "
            f"policy={self.policy} admission={self.admission} "
            f"scaler={scaler}",
            f"horizon: {self.horizon_cycles:,.0f} cycles | completed "
            f"{self.completed:,} | rejected {self.rejected:,} | "
            f"deployments {self.deployments}",
            f"latency p50/p95/p99: {self.p50:,.0f} / {self.p95:,.0f} / "
            f"{self.p99:,.0f} cycles | SLO attainment "
            f"{self.slo_attainment:.1%}",
            f"energy/request {self.energy_per_request:,.1f} "
            f"(replicas {self.replica_energy:,.0f} + deploy "
            f"{self.deploy_energy:,.0f} + link {self.link_energy:,.0f})",
        ]
        if self.rejections:
            parts = ", ".join(f"{k}={v}" for k, v in
                              sorted(self.rejections.items()) if v)
            if parts:
                lines.append(f"rejections: {parts}")
        if self.fault is not None:
            death = self.fault.get("chip_death")
            line = (f"faults: availability {self.availability:.4%} | "
                    f"drift rewrites {self.drift_rewrites} "
                    f"(stall {self.fault.get('drift_stall_cycles', 0.0):,.0f} "
                    f"cyc, energy {self.fault_energy:,.0f})")
            if death is not None:
                rec = death.get("recovery_cycles")
                line += (f" | replica {death['rid']} died at "
                         f"{death['time']:,.0f}, "
                         + (f"recovered in {rec:,.0f} cyc"
                            if rec is not None else "no spare left"))
            lines.append(line)
        header = (f"  {'replica':>7} {'mode':<9} {'done':>8} {'util':>7} "
                  f"{'switches':>8} {'deploys':>7} {'energy':>14}")
        lines.append(header)
        for r in self.replicas:
            lines.append(
                f"  {r.rid:>7} {r.mode:<9} {r.completed:>8,} "
                f"{r.utilization:>6.1%} {r.switches:>8} "
                f"{r.deployments:>7} {r.energy:>14,.0f}")
        header = (f"  {'tenant':<14} {'done':>8} {'rej':>6} {'p50':>10} "
                  f"{'p99':>12} {'SLO':>7}")
        lines.append(header)
        for t in self.tenants:
            lines.append(
                f"  {t.tenant:<14} {t.completed:>8,} {t.rejected:>6,} "
                f"{t.p50:>10,.0f} {t.p99:>12,.0f} "
                f"{t.slo_attainment:>6.1%}")
        return "\n".join(lines)
