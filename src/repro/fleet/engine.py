"""The fleet discrete-event engine: one loop, many replica cores.

This is the serve engine lifted one level: the same
:class:`~repro.serve.engine.EventLoop` and
:class:`~repro.serve.engine.ReplicaCore` machinery, but with N cores —
one per replica — behind a front end that admits
(:class:`~repro.fleet.admission.AdmissionControl`), routes
(:mod:`repro.fleet.router`), and autoscales
(:class:`~repro.fleet.autoscaler.Autoscaler`).  Five event kinds drive
it: the three replica-level kinds the serve engine already uses
(arrival, batch timer, batch complete — payloads tagged with the replica
id) plus two fleet-level ones (front-end routing, autoscaler ticks).

Time and energy accounting:

* A routed request travels the front-end→replica hop (priced by the
  plan's :class:`~repro.arch.ChipLink`) before it can queue; its latency
  is measured *at the front end* — from trace arrival to batch
  completion plus the response hop — so fleet percentiles include both
  link legs.
* The energy ledger separates replica compute energy (the serve cores'
  tally), link energy (request leg charged at routing, response leg per
  completion), and deployment energy (every spin-up's full weight
  program, plus one charge per initially active replica — capacity is
  never free, which is what makes energy-per-request vs. replica count
  an honest trade-off).

Determinism is inherited, not re-proven: the shared event loop orders
ties by push sequence, routers and the autoscaler are rebuilt from their
own ``describe()``/config before every run (so their mutable state never
leaks across runs), and nothing consumes randomness — same plan, trace,
and knobs ⇒ bit-identical :class:`~repro.fleet.report.FleetReport`.
"""

from __future__ import annotations

import dataclasses
import math
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ScheduleError
from ..perf.kernels import fold
from ..serve.engine import (
    _ARRIVAL,
    _COMPLETE,
    _TIMER,
    BatchPolicy,
    EventLoop,
    ReplicaCore,
    TimeoutBatch,
)
from ..serve.report import TenantStats, sorted_percentile
from ..serve.workload import Request, _require_positive
from .admission import AdmissionControl
from .autoscaler import Autoscaler
from .plan import FleetPlan
from .report import FleetReport, ReplicaStats
from .router import LeastLoaded, Router, parse_router

#: Fleet-level event kinds (replica-level kinds are 0..2).  ``_READY``
#: wakes one executor after a fault-injected stall; ``_FAIL`` kills a
#: replica mid-trace; ``_DRIFT`` fires a drift-forced weight rewrite.
_ROUTE, _TICK, _READY = 3, 4, 5
_FAIL, _DRIFT = 6, 7


class FleetEngine:
    """Runs one (fleet plan, trace) scenario to completion."""

    def __init__(self, plan: FleetPlan,
                 policy: Optional[BatchPolicy] = None,
                 router: Optional[Router] = None,
                 admission: Optional[AdmissionControl] = None,
                 autoscaler: Optional[Autoscaler] = None,
                 max_queue: Optional[int] = None,
                 slo_factor: float = 10.0,
                 fault=None) -> None:
        self.plan = plan
        self.policy = policy or TimeoutBatch(max_size=8, timeout=50_000.0)
        self.router = router or LeastLoaded()
        self.admission = admission or AdmissionControl()
        self.autoscaler = autoscaler
        self.max_queue = max_queue
        _require_positive("slo_factor", slo_factor)
        self.slo_factor = slo_factor
        # A zero fault model is the fault-free engine, bit for bit.
        self.fault = None if fault is not None and fault.is_zero() else fault
        if self.fault is not None \
                and self.fault.chip_death_time is not None \
                and self.fault.chip_death_rid >= plan.size:
            raise ScheduleError(
                f"chip death targets replica {self.fault.chip_death_rid}; "
                f"the fleet has replicas 0..{plan.size - 1}")
        if autoscaler is not None and autoscaler.min_replicas > plan.size:
            raise ScheduleError(
                f"autoscaler floor {autoscaler.min_replicas} exceeds the "
                f"fleet's {plan.size} replicas")
        # Validate plans/policy eagerly (constructor contract).
        for rid, replica in enumerate(plan.replicas):
            ReplicaCore(replica, self.policy, max_queue=max_queue, rid=rid)

    # ------------------------------------------------------------------

    def _resolve_slos(self, cores: Sequence[ReplicaCore]
                      ) -> Dict[str, float]:
        """Per-tenant SLO in cycles: the spec's absolute value, else
        ``slo_factor`` times the *slowest* replica's isolated latency
        (conservative under heterogeneous capacities)."""
        slos: Dict[str, float] = {}
        for t in self.plan.replicas[0].tenants:
            if t.spec.slo_cycles is not None:
                slos[t.spec.name] = t.spec.slo_cycles
            else:
                slos[t.spec.name] = self.slo_factor * max(
                    core.isolated_latency(t.spec.name) for core in cores)
        return slos

    def run(self, trace: Sequence[Request],
            recorder=None) -> FleetReport:
        """Simulate the whole trace and build the fleet report.

        ``recorder`` (a :class:`repro.trace.TraceRecorder`) optionally
        captures the run as a span timeline — per-replica queue/batch/
        switch spans plus the front-end link hops and autoscaler
        deployments; ``None`` (the default) records nothing and adds no
        work.  When recording, the report's digest incorporates the
        trace digest.
        """
        plan = self.plan
        fault = self.fault
        if fault is not None and fault.link_derate != 1.0:
            # A degraded front-end link stretches both hops and raises
            # per-bit cycles; energy per bit is unchanged.
            plan = dataclasses.replace(plan,
                                       link=fault.degrade_link(plan.link))
        # Fresh stateful collaborators per run: a router's rotation
        # pointer or the autoscaler's hold counter must not leak between
        # runs (determinism contract).  Custom routers that do not
        # round-trip through parse_router() must reset themselves.
        try:
            router = parse_router(self.router.describe())
        except ScheduleError:
            router = self.router
        autoscaler = (dataclasses.replace(self.autoscaler)
                      if self.autoscaler is not None else None)
        hop_in = plan.hop_cycles(inbound=True)
        hop_out = plan.hop_cycles(inbound=False)
        hop_rt = hop_in + hop_out
        cores = [ReplicaCore(p, self.policy, max_queue=self.max_queue,
                             rid=rid, recorder=recorder,
                             track_prefix=f"replica:{rid}/",
                             enqueue_offset=hop_in)
                 for rid, p in enumerate(plan.replicas)]
        slo_cycles = self._resolve_slos(cores)
        specs = [t.spec for t in plan.replicas[0].tenants]
        total_weight = sum(s.weight for s in specs)
        tenant_share = {s.name: s.weight / total_weight for s in specs}
        req_energy = plan.link.transfer_energy(plan.request_bits, 1)
        resp_energy = plan.link.transfer_energy(plan.response_bits, 1)

        initial = (autoscaler.min_replicas if autoscaler is not None
                   else plan.size)
        active: List[int] = list(range(initial))     # ascending rids
        ready_at = {rid: 0.0 for rid in active}
        deployments = {rid: 0 for rid in range(plan.size)}
        deploy_energy = 0.0
        link_energy = 0.0
        horizon = 0.0
        # Initially active replicas were deployed before t=0: their spin
        # -up latency is outside the window but the weight program's
        # energy is on the ledger — capacity is never free.
        for rid in active:
            _, energy = plan.deploy_cost(rid)
            deploy_energy += energy
            deployments[rid] += 1

        for req in trace:
            if req.tenant not in slo_cycles:
                raise ScheduleError(
                    f"trace request for unknown tenant {req.tenant!r}")
        front_rejected: Dict[str, int] = {name: 0 for name in slo_cycles}
        reasons: Dict[str, int] = {}
        tenant_outstanding: Dict[str, int] = {n: 0 for n in slo_cycles}
        # Per-request backlog estimate, ``est[rid][tenant]``: the
        # tenant's steady-state interval on the replica (every replica
        # serves every tenant).
        est: List[Dict[str, float]] = [
            {name: core.interval(name) for name in slo_cycles}
            for core in cores]
        scale_events: List[Tuple[float, str, int]] = []

        # Every replica serves every tenant (FleetPlan's invariant), so
        # the replicas a request may go to are the active ones whose
        # deployment has finished.  The list is rebuilt only when
        # ``active`` changes or ``now`` reaches the next ``ready_at``.
        capable: List[int] = []
        next_ready = math.inf

        def refresh(now: float) -> None:
            nonlocal capable, next_ready
            capable = [rid for rid in active if ready_at[rid] <= now]
            next_ready = min((ready_at[rid] for rid in active
                              if ready_at[rid] > now), default=math.inf)

        refresh(-math.inf)

        loop = EventLoop(trace, _ROUTE)
        # Ticks and drift rounds run until the latest arrival; the trace
        # need not be sorted.
        last_arrival = max(map(attrgetter("arrival"), trace), default=0.0)
        if autoscaler is not None and trace:
            k = 1
            while k * autoscaler.tick_cycles <= last_arrival:
                loop.push(k * autoscaler.tick_cycles, _TICK, None)
                k += 1

        # -- fault injection state (all dormant when fault is None) ----
        dead: set = set()
        drift_rewrites = 0
        drift_stall = 0.0
        fault_energy = 0.0
        lost = 0
        rerouted = 0
        rerouted_hops: List[Tuple[int, str, float]] = []
        death_info: Optional[Dict] = None
        if fault is not None:
            if fault.drift_interval is not None \
                    and fault.drift_interval <= last_arrival:
                loop.push(fault.drift_interval, _DRIFT, 1)
            if fault.chip_death_time is not None:
                loop.push(fault.chip_death_time, _FAIL,
                          fault.chip_death_rid)

        screen = self.admission.screen
        route = router.route
        push = loop.push
        for now, kind, payload in loop:
            if now > horizon:
                horizon = now
            if kind == _ROUTE:
                req = payload
                if now >= next_ready:
                    refresh(now)
                candidates, reason = screen(
                    req, capable, cores, slo_cycles, hop_rt,
                    tenant_outstanding, tenant_share)
                if reason is not None:
                    front_rejected[req.tenant] += 1
                    reasons[reason] = reasons.get(reason, 0) + 1
                    continue
                rid = route(req, now, cores, candidates)
                core = cores[rid]
                # ``core.note_pending`` minus its tenant check, which
                # every trace request passed before the run.
                tenant = req.tenant
                core.pending[tenant] += 1
                core.outstanding += 1
                core.backlog_cycles += est[rid][tenant]
                tenant_outstanding[tenant] += 1
                link_energy += req_energy
                push(now + hop_in, _ARRIVAL, (rid, req))
            elif kind == _ARRIVAL:
                rid, req = payload
                core = cores[rid]
                if rid in dead:
                    # Landed on a chip that died while the request was in
                    # flight: unwind the routing bookkeeping and re-route
                    # (the request re-pays the inbound hop).
                    core.pending[req.tenant] -= 1
                    core.outstanding -= 1
                    core.backlog_cycles -= est[rid][req.tenant]
                    tenant_outstanding[req.tenant] -= 1
                    rerouted += 1
                    push(now, _ROUTE, req)
                elif not core.on_arrival(req, now, loop):
                    # Bounced off the replica-local queue bound after
                    # admission let it through (the front end's load
                    # signals are estimates, not reservations).
                    core.outstanding -= 1
                    core.backlog_cycles -= est[rid][req.tenant]
                    tenant_outstanding[req.tenant] -= 1
                    reasons["replica_queue"] = \
                        reasons.get("replica_queue", 0) + 1
                elif recorder is not None:
                    # The inbound hop the request just completed (only
                    # admitted requests carry link spans — the replayer
                    # regenerates hops from batch membership).
                    recorder.span(f"hop_in:{req.index}", "link",
                                  req.arrival, hop_in,
                                  f"replica:{rid}/link", index=req.index,
                                  tenant=req.tenant, rid=rid)
            elif kind == _TIMER:
                rid, tenant = payload
                if rid not in dead:
                    cores[rid].on_timer(tenant, now, loop)
            elif kind == _COMPLETE:
                rid, ex_name, batch = payload
                core = cores[rid]
                if rid in dead:
                    # The chip died with this batch in flight: the work
                    # is lost, the requests count as rejected (they
                    # arrived and were never answered).
                    for req in batch:
                        core.outstanding -= 1
                        core.backlog_cycles -= est[rid][req.tenant]
                        tenant_outstanding[req.tenant] -= 1
                        front_rejected[req.tenant] += 1
                        lost += 1
                    reasons["chip_death"] = \
                        reasons.get("chip_death", 0) + len(batch)
                    continue
                answered = now + hop_out
                core.on_complete(ex_name, batch, now, loop, answered)
                if answered > horizon:
                    horizon = answered
                core.outstanding -= len(batch)
                intervals = est[rid]
                for req in batch:
                    core.backlog_cycles -= intervals[req.tenant]
                    tenant_outstanding[req.tenant] -= 1
                    link_energy += resp_energy
                    if recorder is not None:
                        recorder.span(f"hop_out:{req.index}", "link",
                                      now, hop_out,
                                      f"replica:{rid}/link",
                                      index=req.index, tenant=req.tenant,
                                      rid=rid)
            elif kind == _TICK:
                outstanding = sum(cores[rid].outstanding for rid in active)
                action = autoscaler.decide(outstanding, len(active),
                                           plan.size)
                if action == "up":
                    spares = [r for r in range(plan.size)
                              if r not in active and r not in dead]
                    if spares:
                        rid = spares[0]
                        cycles, energy = plan.deploy_cost(rid)
                        active.append(rid)
                        active.sort()
                        ready_at[rid] = now + cycles
                        refresh(now)
                        deploy_energy += energy
                        deployments[rid] += 1
                        scale_events.append((now, "up", rid))
                        if recorder is not None:
                            # Initial actives were deployed before t=0
                            # and get no spans; only in-window ones do.
                            recorder.span(f"deploy:{rid}",
                                          "reconfiguration",
                                          now, cycles,
                                          f"replica:{rid}/deploy",
                                          rid=rid, energy=energy)
                elif action == "down":
                    rid = active.pop()   # highest id drains
                    refresh(now)
                    scale_events.append((now, "down", rid))
            elif kind == _READY:
                # An executor finished a fault-injected stall: re-check
                # its queues (nothing else wakes it if no traffic lands).
                rid, ex_name = payload
                if rid not in dead:
                    cores[rid].wake(ex_name, now, loop)
            elif kind == _DRIFT:
                round_no = payload
                for rid in active:
                    if ready_at[rid] > now:
                        continue   # still programming: weights are fresh
                    core = cores[rid]
                    for ex in core.executors:
                        tenant = ex.resident or ex.tenants[0].spec.name
                        service = ex.plan(tenant).service
                        cycles = service.deploy_cycles
                        energy = service.deploy_energy
                        if cycles <= 0 and energy <= 0:
                            continue
                        start = max(now, ex.busy_until)
                        ex.busy_until = start + cycles
                        ex.busy_cycles += cycles
                        drift_rewrites += 1
                        drift_stall += cycles
                        fault_energy += energy
                        if recorder is not None:
                            recorder.span(
                                f"drift:{round_no}:{ex.name}", "fault",
                                start, cycles,
                                f"replica:{rid}/ex:{ex.name}",
                                rid=rid, executor=ex.name, tenant=tenant,
                                deadline=now, cycles=cycles,
                                energy=energy, round=round_no)
                        push(ex.busy_until, _READY, (rid, ex.name))
                nxt = (round_no + 1) * fault.drift_interval
                if nxt <= last_arrival:
                    push(nxt, _DRIFT, round_no + 1)
            else:  # _FAIL
                rid = payload
                was_active = rid in active
                n_active = len(active)
                dead.add(rid)
                recovery = None
                spare = None
                if was_active:
                    active.remove(rid)
                    refresh(now)
                    scale_events.append((now, "fail", rid))
                    core = cores[rid]
                    # Flush undispatched queues back through the front
                    # end: the requests re-route (and re-pay the hop).
                    for tenant, q in core.queues.items():
                        for req in q:
                            core.outstanding -= 1
                            core.backlog_cycles -= est[rid][tenant]
                            tenant_outstanding[tenant] -= 1
                            rerouted += 1
                            rerouted_hops.append(
                                (req.index, tenant, req.arrival))
                            push(now, _ROUTE, req)
                        q.clear()
                    spares = [r for r in range(plan.size)
                              if r not in active and r not in dead]
                    if spares:
                        spare = spares[0]
                        cycles, energy = plan.deploy_cost(spare)
                        active.append(spare)
                        active.sort()
                        ready_at[spare] = now + cycles
                        refresh(now)
                        deploy_energy += energy
                        deployments[spare] += 1
                        scale_events.append((now, "up", spare))
                        recovery = cycles
                        if recorder is not None:
                            recorder.span(f"deploy:{spare}",
                                          "reconfiguration",
                                          now, cycles,
                                          f"replica:{spare}/deploy",
                                          rid=spare, energy=energy)
                    if recorder is not None:
                        recorder.span(f"chip_death:{rid}", "fault", now,
                                      recovery if recovery is not None
                                      else 0.0,
                                      f"replica:{rid}/fault", rid=rid,
                                      recovered=spare is not None,
                                      replacement=spare)
                death_info = {
                    "time": now, "rid": rid, "was_active": was_active,
                    "replicas_at_death": n_active,
                    "replacement": spare, "recovery_cycles": recovery,
                }

        for core in cores:
            core.assert_drained()

        fault_ledger = None
        if fault is not None:
            availability = 1.0
            if death_info is not None and death_info["was_active"] \
                    and horizon > 0:
                t0 = death_info["time"]
                down = (death_info["recovery_cycles"]
                        if death_info["recovery_cycles"] is not None
                        else max(0.0, horizon - t0))
                down = min(down, max(0.0, horizon - t0))
                denom = horizon * death_info["replicas_at_death"]
                availability = 1.0 - (down / denom if denom > 0 else 0.0)
            fault_ledger = {
                "model": fault.to_dict(),
                "drift_rewrites": drift_rewrites,
                "drift_stall_cycles": drift_stall,
                "fault_energy": fault_energy,
                "availability": availability,
                "chip_death": death_info,
                "lost_requests": lost,
                "rerouted_requests": rerouted,
            }

        trace_digest = None
        if recorder is not None:
            if fault is not None:
                recorder.configure(fault={
                    "chip_death_time": fault.chip_death_time,
                    "chip_death_rid": fault.chip_death_rid,
                    "drift_interval": fault.drift_interval,
                    "rerouted_hops": [list(h) for h in rerouted_hops],
                })
            link = plan.link
            recorder.configure(
                kind="fleet", policy=self.policy.describe(),
                max_size=self.policy.max_size,
                batch_timeout=getattr(self.policy, "timeout", None),
                router=self.router.describe(),
                admission=self.admission.describe(),
                fleet_size=plan.size,
                hop_in=hop_in, hop_out=hop_out,
                request_bits=plan.request_bits,
                response_bits=plan.response_bits,
                link={"bandwidth_bits": link.bandwidth_bits,
                      "latency_cycles": link.latency_cycles,
                      "serialization_overhead":
                          link.serialization_overhead,
                      "energy_per_bit": link.energy_per_bit},
                completed=sum(len(v) for core in cores
                              for v in core.latencies.values()),
                rejected=sum(front_rejected.values()) + sum(
                    n for core in cores
                    for n in core.rejected.values()))
            trace_digest = recorder.finish().digest()
        return self._build_report(cores, slo_cycles, horizon,
                                  front_rejected, reasons, scale_events,
                                  deployments, deploy_energy, link_energy,
                                  initial, autoscaler, trace_digest,
                                  fault_ledger)

    # ------------------------------------------------------------------

    def _build_report(self, cores, slo_cycles, horizon, front_rejected,
                      reasons, scale_events, deployments, deploy_energy,
                      link_energy, initial, autoscaler,
                      trace_digest=None, fault_ledger=None) -> FleetReport:
        """Merge per-core tallies into one :class:`FleetReport`."""
        plan = self.plan
        tenant_stats: List[TenantStats] = []
        for t in plan.replicas[0].tenants:
            name = t.spec.name
            lats = [lat for core in cores for lat in core.latencies[name]]
            ordered = sorted(lats)
            completed = len(lats)
            rejected = front_rejected[name] + sum(
                core.rejected[name] for core in cores)
            sizes = [s for core in cores for s in core.batch_sizes[name]]
            slo = slo_cycles[name]
            arrived = completed + rejected
            tenant_stats.append(TenantStats(
                tenant=name,
                model=t.spec.model,
                arrived=arrived,
                completed=completed,
                rejected=rejected,
                throughput_per_mcycle=(completed * 1e6 / horizon
                                       if horizon > 0 else 0.0),
                p50=sorted_percentile(ordered, 50),
                p95=sorted_percentile(ordered, 95),
                p99=sorted_percentile(ordered, 99),
                mean_latency=fold(lats) / completed if completed else 0.0,
                max_latency=max(lats) if lats else 0.0,
                slo_cycles=slo,
                slo_attainment=(sum(1 for lat in lats if lat <= slo)
                                / arrived if arrived else 1.0),
                batches=len(sizes),
                mean_batch=sum(sizes) / len(sizes) if sizes else 0.0,
                latencies=tuple(lats),
                energy=fold(core.tenant_energy[name] for core in cores),
            ))
        replica_stats = []
        replica_energy = 0.0
        for core in cores:
            busy = fold(ex.busy_cycles for ex in core.executors)
            energy = fold(ex.energy for ex in core.executors)
            replica_energy += energy
            replica_stats.append(ReplicaStats(
                rid=core.rid,
                mode=core.plan.mode,
                arch=core.plan.arch_name,
                completed=sum(len(v) for v in core.latencies.values()),
                busy_cycles=busy,
                switch_cycles=fold(ex.switch_cycles
                                   for ex in core.executors),
                switches=sum(ex.switches for ex in core.executors),
                # Mean over the replica's executors (spatial regions run
                # concurrently, so raw busy cycles can exceed the horizon).
                utilization=(busy / (len(core.executors) * horizon)
                             if horizon > 0 else 0.0),
                energy=energy,
                deployments=deployments[core.rid],
            ))
        return FleetReport(
            arch=plan.arch_name,
            fleet_size=plan.size,
            policy=self.policy.describe(),
            router=self.router.describe(),
            admission=self.admission.describe(),
            autoscaler=(autoscaler.describe()
                        if autoscaler is not None else None),
            horizon_cycles=horizon,
            tenants=tuple(tenant_stats),
            replicas=tuple(replica_stats),
            rejections=reasons,
            scale_events=tuple(scale_events),
            replica_energy=replica_energy,
            deploy_energy=deploy_energy,
            link_energy=link_energy,
            initial_active=initial,
            trace_digest=trace_digest,
            fault=fault_ledger,
        )


def simulate_fleet(plan: FleetPlan, trace: Sequence[Request],
                   policy: Optional[BatchPolicy] = None,
                   router: Optional[Router] = None,
                   admission: Optional[AdmissionControl] = None,
                   autoscaler: Optional[Autoscaler] = None,
                   max_queue: Optional[int] = None,
                   slo_factor: float = 10.0,
                   recorder=None, fault=None) -> FleetReport:
    """One-call facade: run ``trace`` through the fleet.

    Defaults: timeout batching (as single-system serving), least-loaded
    routing, open admission, no autoscaling (the whole fleet active).
    ``recorder`` optionally captures the run as a span timeline (see
    :mod:`repro.trace`); ``fault`` (a :class:`~repro.faults.FaultModel`)
    injects run-time faults — drift-forced weight rewrites, a mid-trace
    chip death with re-routing and recovery, a derated front-end link.
    A ``None`` or zero fault is the fault-free engine, bit for bit.
    """
    return FleetEngine(plan, policy=policy, router=router,
                       admission=admission, autoscaler=autoscaler,
                       max_queue=max_queue, slo_factor=slo_factor,
                       fault=fault).run(trace, recorder=recorder)
