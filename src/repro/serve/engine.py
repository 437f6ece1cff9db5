"""Deterministic discrete-event serving engine.

One :class:`_Executor` models a hardware share: the whole chip (temporal
plan) or one tenant's core region (spatial plan).  Requests land in
per-tenant FIFO queues; a :class:`BatchPolicy` decides when a queue's
head becomes a dispatchable batch; dispatch occupies the executor for
``switch + latency + (B - 1) * interval`` cycles, where ``switch`` is the
tenant's weight-(re)program cost paid only when the executor's resident
tenant changes.

Everything is driven off a single event heap keyed ``(time, seq)`` with a
monotonically increasing sequence number, so simulation order — and
therefore every reported number — is a pure function of the trace, the
plan, and the policy.  No wall clock, no RNG.

The queue/dispatch machinery is factored into :class:`ReplicaCore` so
that the same deterministic core drives both this single-system engine
and the datacenter-scale fleet engine (:mod:`repro.fleet.engine`), which
runs many cores — one per replica — off one shared :class:`EventLoop`.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..errors import ScheduleError
from .partition import ServingPlan, TenantPlan
from .report import ServeReport, build_report
from .workload import Request, _require_positive

#: Event kinds shared by the serve and fleet engines.  Ordering ties on
#: the heap are broken by the per-loop sequence number, never by kind.
_ARRIVAL, _TIMER, _COMPLETE = 0, 1, 2


class EventLoop:
    """A deterministic ``(time, seq)``-keyed event heap merged with a
    sorted arrival stream.

    The single source of simulated time for one scenario.  Every pushed
    event gets the next value of a monotonically increasing sequence
    number, so two events at the same timestamp leave in push order —
    simulation order is a pure function of the inputs, never of hash
    order or wall clock.

    ``arrivals`` (the trace) is stable-sorted by ``arrival`` once and
    merged with the heap instead of being pushed onto it, so the heap
    holds only in-flight events.  An arrival is yielded as event
    ``kind`` with the request as its payload, and wins every time tie
    against the heap — exactly the order of a heap into which every
    arrival was pushed before any other event.  Arrival times must be
    finite: a NaN has no place in the sort, and an infinite arrival
    gives an infinite horizon and NaN latencies.  They must also be
    ``>= 0``: simulated time starts at 0, where every initially active
    fleet replica becomes ready.
    """

    __slots__ = ("_heap", "_seq", "_arrivals", "_kind")

    def __init__(self, arrivals: Sequence[Request] = (),
                 kind: int = _ARRIVAL) -> None:
        self._heap: List[Tuple[float, int, int, object]] = []
        self._seq = 0
        self._arrivals = sorted(arrivals, key=attrgetter("arrival"))
        if not all(map(math.isfinite,
                       map(attrgetter("arrival"), self._arrivals))):
            bad = next(req for req in self._arrivals
                       if not math.isfinite(req.arrival))
            raise ScheduleError(
                f"trace arrival times must be finite, got {bad.arrival} "
                f"(request {bad.index})")
        if self._arrivals and self._arrivals[0].arrival < 0:
            first = self._arrivals[0]
            raise ScheduleError(
                f"trace arrival times must be >= 0, got {first.arrival} "
                f"(request {first.index})")
        self._kind = kind

    def push(self, time: float, kind: int, payload: object) -> None:
        """Schedule ``payload`` of event ``kind`` at ``time``."""
        heapq.heappush(self._heap, (time, self._seq, kind, payload))
        self._seq += 1

    def __iter__(self) -> Iterator[Tuple[float, int, object]]:
        """Drain the loop: every ``(time, kind, payload)`` event in order.

        The one way events leave the loop.  An event the caller pushes
        while it handles another is yielded later in the same pass, and
        the pass ends once the trace and the heap are both empty.  Each
        arrival is yielded once: a later pass yields only events pushed
        since.
        """
        heap = self._heap
        heappop = heapq.heappop
        kind = self._kind
        arrivals, self._arrivals = self._arrivals, []
        for req in arrivals:
            at = req.arrival
            while heap and heap[0][0] < at:
                time, _, event, payload = heappop(heap)
                yield time, event, payload
            yield at, kind, req
        while heap:
            time, _, event, payload = heappop(heap)
            yield time, event, payload


# ---------------------------------------------------------------------------
# Batching policies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FixedBatch:
    """Dispatch exactly ``size`` requests at a time.

    A queue is ready once ``size`` requests wait; smaller remainders are
    flushed only when no further arrival can top the queue up (the trace
    is finite, so the tail never deadlocks).
    """

    size: int

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ScheduleError(f"batch size must be >= 1, got {self.size}")

    @property
    def max_size(self) -> int:
        """Largest batch this policy ever dispatches."""
        return self.size

    def ready(self, queue_len: int, oldest_wait: float,
              more_arrivals: bool) -> bool:
        """Whether the queue head can dispatch now."""
        return queue_len >= self.size or (queue_len > 0 and not more_arrivals)

    def deadline(self, oldest_arrival: float) -> Optional[float]:
        """Fixed batching never forces a flush; no timer needed."""
        return None

    def describe(self) -> str:
        """CLI-parsable policy label (``fixed:N``)."""
        return f"fixed:{self.size}"


@dataclass(frozen=True)
class TimeoutBatch:
    """Dispatch up to ``max_size`` requests, or whatever has queued once
    the oldest request has waited ``timeout`` cycles.

    The classic dynamic-batching compromise: full batches under load,
    bounded queueing delay when traffic is thin.
    """

    max_size: int
    timeout: float

    def __post_init__(self) -> None:
        if self.max_size < 1:
            raise ScheduleError(
                f"batch size must be >= 1, got {self.max_size}")
        if self.timeout < 0:
            raise ScheduleError(
                f"batch timeout must be >= 0, got {self.timeout}")

    def ready(self, queue_len: int, oldest_wait: float,
              more_arrivals: bool) -> bool:
        """Whether the queue head can dispatch now."""
        if queue_len >= self.max_size:
            return True
        if queue_len > 0 and not more_arrivals:
            return True
        return queue_len > 0 and oldest_wait >= self.timeout

    def deadline(self, oldest_arrival: float) -> Optional[float]:
        """When the oldest request's timeout forces a flush."""
        return oldest_arrival + self.timeout

    def describe(self) -> str:
        """CLI-parsable policy label (``timeout:N:CYCLES``)."""
        return f"timeout:{self.max_size}:{self.timeout:g}"


def parse_policy(text: str) -> "BatchPolicy":
    """Parse a CLI policy spec: ``fixed:N`` or ``timeout:N:CYCLES``."""
    parts = text.split(":")
    try:
        if parts[0] == "fixed" and len(parts) == 2:
            return FixedBatch(int(parts[1]))
        if parts[0] == "timeout" and len(parts) == 3:
            return TimeoutBatch(int(parts[1]), float(parts[2]))
    except ValueError:
        pass
    raise ScheduleError(
        f"bad batch policy {text!r}; expected fixed:N or timeout:N:CYCLES")


BatchPolicy = object  # duck-typed: FixedBatch | TimeoutBatch


# ---------------------------------------------------------------------------
# Executors
# ---------------------------------------------------------------------------


@dataclass
class _Executor:
    """One hardware share serving one or more tenant queues."""

    name: str
    tenants: List[TenantPlan]
    busy_until: float = 0.0
    resident: Optional[str] = None   # tenant whose weights are loaded
    busy_cycles: float = 0.0
    switch_cycles: float = 0.0
    switches: int = 0
    energy: float = 0.0              # batches + weight reprograms

    def plan(self, tenant: str) -> TenantPlan:
        """This executor's plan entry for ``tenant``."""
        for t in self.tenants:
            if t.spec.name == tenant:
                return t
        raise ScheduleError(f"executor {self.name}: unknown tenant {tenant!r}")


class ReplicaCore:
    """The queue/batch/dispatch state machine of one serving system.

    Owns per-tenant FIFO queues, the executors of one
    :class:`~repro.serve.partition.ServingPlan`, and every tally a
    :class:`~repro.serve.report.ServeReport` is built from.  It is
    driven externally: the caller owns the :class:`EventLoop`, iterates
    its events, and calls back into :meth:`on_arrival` / :meth:`on_timer` /
    :meth:`on_complete`.  Event payloads are tagged with ``rid`` (the
    replica id) so many cores can share one loop — the fleet engine
    (:mod:`repro.fleet.engine`) runs one core per replica; the
    single-system :class:`ServingEngine` runs exactly one.
    """

    def __init__(self, plan: ServingPlan, policy: BatchPolicy,
                 max_queue: Optional[int] = None, rid: int = 0,
                 recorder=None, track_prefix: str = "",
                 enqueue_offset: float = 0.0) -> None:
        if max_queue is not None and max_queue < 1:
            raise ScheduleError(f"max_queue must be >= 1, got {max_queue}")
        self.plan = plan
        self.policy = policy
        self.max_queue = max_queue
        self.rid = rid
        #: Optional :class:`repro.trace.TraceRecorder`; ``None`` (the
        #: default) records nothing and adds no work on the hot path.
        self.recorder = recorder
        #: Span track namespace (the fleet engine prefixes each core's
        #: tracks with ``replica:<rid>/``).
        self.track_prefix = track_prefix
        #: Enqueue time minus trace arrival (the fleet's front-end →
        #: replica hop); only consulted when recording.
        self.enqueue_offset = enqueue_offset
        if plan.shared_executor:
            self.executors = [_Executor("chip", list(plan.tenants))]
        else:
            self.executors = [
                _Executor(f"region:{t.spec.name}", [t])
                for t in plan.tenants
            ]
        self._by_tenant = {
            t.spec.name: ex
            for ex in self.executors for t in ex.tenants
        }
        self._by_name = {ex.name: ex for ex in self.executors}
        self.queues: Dict[str, List[Request]] = {
            t.spec.name: [] for t in plan.tenants
        }
        #: Arrivals still en route to this core's queues (per tenant);
        #: the batch policies' "more arrivals may come" signal.
        self.pending: Dict[str, int] = {name: 0 for name in self.queues}
        #: Per-tenant latency of every completed request, in completion
        #: order: all a report reads of a completed request.
        self.latencies: Dict[str, List[float]] = {
            name: [] for name in self.queues
        }
        self.rejected: Dict[str, int] = {name: 0 for name in self.queues}
        self.batch_sizes: Dict[str, List[int]] = {
            name: [] for name in self.queues
        }
        self.tenant_energy: Dict[str, float] = {
            name: 0.0 for name in self.queues
        }
        self.horizon = 0.0
        #: How many requests are queued or in service right now —
        #: the router's load signal (maintained incrementally).
        self.outstanding = 0
        #: Estimated cycles of work queued or in service right now
        #: (per-request steady-state intervals; maintained incrementally).
        self.backlog_cycles = 0.0
        #: ``(tenant, deadline)`` of every flush timer on the loop that
        #: has not fired yet: one timer per deadline is enough.
        self._timers: Set[Tuple[str, float]] = set()

    # ------------------------------------------------------------------

    def note_pending(self, tenant: str) -> None:
        """Announce one future arrival for ``tenant`` (routed but not
        yet landed); pairs with the decrement inside :meth:`on_arrival`."""
        if tenant not in self.pending:
            raise ScheduleError(
                f"trace request for unknown tenant {tenant!r}")
        self.pending[tenant] += 1

    def interval(self, tenant: str) -> float:
        """The tenant's steady-state service interval on this core."""
        return self._by_tenant[tenant].plan(tenant).service.interval_cycles

    def isolated_latency(self, tenant: str) -> float:
        """The tenant's isolated single-inference latency on this core."""
        return self._by_tenant[tenant].plan(tenant).service.latency_cycles

    def try_dispatch(self, ex: _Executor, now: float,
                     loop: EventLoop) -> None:
        """Dispatch the best ready batch on ``ex``, arming flush timers
        for queues that are waiting on their timeout.

        A queue's timer is armed only when none is pending at its
        deadline: a second one would only repeat this call at the same
        time, and on a shared executor each call arms a timer for every
        waiting queue, so duplicates would multiply without bound.
        """
        if ex.busy_until > now:
            return
        # Ready tenants on this executor, FIFO across queues: serve
        # the earliest-waiting head; ties fall back to tenant order.
        queues = self.queues
        policy = self.policy
        best: Optional[TenantPlan] = None
        best_head = 0.0
        for t in ex.tenants:
            name = t.spec.name
            q = queues[name]
            if not q:
                continue
            head = q[0].arrival
            if policy.ready(len(q), now - head, self.pending[name] > 0):
                if best is None or head < best_head:
                    best, best_head = t, head
            else:
                deadline = policy.deadline(head)
                if deadline is not None and deadline > now:
                    timer = (name, deadline)
                    if timer not in self._timers:
                        self._timers.add(timer)
                        loop.push(deadline, _TIMER, (self.rid, name))
        if best is None:
            return
        name = best.spec.name
        profile = best.service
        q = queues[name]
        batch = q[:policy.max_size]
        del q[:len(batch)]
        size = len(batch)
        switch = 0.0
        switch_energy = 0.0
        if ex.resident != name:
            switch = profile.switch_cycles
            switch_energy = profile.switch_energy
            if ex.resident is not None or switch > 0:
                ex.switches += 1
            ex.resident = name
        service = profile.batch_cycles(size)
        done = now + switch + service
        ex.busy_until = done
        ex.busy_cycles += switch + service
        ex.switch_cycles += switch
        energy = switch_energy + profile.batch_energy(size)
        ex.energy += energy
        self.tenant_energy[name] += energy
        self.batch_sizes[name].append(size)
        if done > self.horizon:
            self.horizon = done
        if self.recorder is not None:
            self._record_batch(ex, name, batch, now, switch, service)
        loop.push(done, _COMPLETE, (self.rid, ex.name, tuple(batch)))

    def _record_batch(self, ex: _Executor, tenant: str,
                      batch: Sequence[Request], now: float,
                      switch: float, service: float) -> None:
        """Emit the dispatched batch's spans (recording runs only).

        ``ready`` pins *why* the batch became dispatchable — ``full``
        (hit ``max_size``), ``deadline`` (the oldest request's batching
        timeout), or ``now`` (a tail flush) — and ``t_ready`` the
        corresponding readiness time, exactly what the what-if replayer
        re-derives under mutated parameters.
        """
        from ..trace.capture import emit_batch_spans

        oldest = batch[0].arrival
        filled = batch[-1].arrival + self.enqueue_offset
        deadline = self.policy.deadline(oldest)
        if len(batch) >= self.policy.max_size:
            ready, t_ready = "full", filled
        elif deadline is not None and deadline <= now:
            ready, t_ready = "deadline", deadline
        else:
            ready, t_ready = "now", filled
        emit_batch_spans(
            self.recorder, self.track_prefix, ex.name, tenant,
            [req.index for req in batch],
            [req.arrival for req in batch],
            self.enqueue_offset, now, switch, service,
            t_ready, filled, oldest, ready)

    def on_arrival(self, req: Request, now: float, loop: EventLoop) -> bool:
        """One request lands: enqueue (or bounce off ``max_queue``) and
        attempt a dispatch.  Returns ``False`` when the queue bound
        rejected the request."""
        tenant = req.tenant
        self.pending[tenant] -= 1
        q = self.queues[tenant]
        admitted = True
        if self.max_queue is not None and len(q) >= self.max_queue:
            self.rejected[tenant] += 1
            admitted = False
        else:
            q.append(req)
        self.try_dispatch(self._by_tenant[tenant], now, loop)
        return admitted

    def on_timer(self, tenant: str, now: float, loop: EventLoop) -> None:
        """A batching-timeout timer fired for ``tenant``'s queue."""
        self._timers.discard((tenant, now))
        self.try_dispatch(self._by_tenant[tenant], now, loop)

    def wake(self, ex_name: str, now: float, loop: EventLoop) -> None:
        """Re-check dispatch on one executor by name.

        Used by fault injection: a drift-forced weight rewrite occupies
        an executor outside any batch, so nothing else would re-examine
        its queues when the stall ends."""
        self.try_dispatch(self._by_name[ex_name], now, loop)

    def on_complete(self, ex_name: str, batch: Sequence[Request],
                    now: float, loop: EventLoop,
                    latency_at: Optional[float] = None) -> None:
        """A batch finished: record per-request latencies and re-dispatch.

        Only each request's latency is kept (one float in
        :attr:`latencies`), so a run's memory grows by one float per
        completed request.  ``latency_at`` lets the fleet engine measure
        latency at the front end (completion plus the response hop)
        while the executor frees up at ``now``.
        """
        measured = now if latency_at is None else latency_at
        latencies = self.latencies
        for req in batch:
            latencies[req.tenant].append(measured - req.arrival)
        self.try_dispatch(self._by_name[ex_name], now, loop)

    def drained(self) -> bool:
        """Whether every queue is empty (trace fully dispatched)."""
        return not any(self.queues.values())

    def assert_drained(self) -> None:
        """Raise when undispatched requests remain after the loop ended."""
        for name, q in self.queues.items():
            if q:  # pragma: no cover - defensive; flush rules drain queues
                raise ScheduleError(
                    f"engine finished with {len(q)} undispatched "
                    f"requests for {name!r}")

    def executor_rows(self) -> List[Tuple]:
        """``build_report``-shaped executor tallies."""
        return [
            (ex.name, [t.spec.name for t in ex.tenants],
             ex.busy_cycles, ex.switch_cycles, ex.switches, ex.energy)
            for ex in self.executors
        ]


class ServingEngine:
    """Runs one (plan, trace, policy) scenario to completion."""

    def __init__(self, plan: ServingPlan, policy: BatchPolicy,
                 max_queue: Optional[int] = None) -> None:
        self.plan = plan
        self.policy = policy
        self.max_queue = max_queue
        # Validate the plan/policy eagerly (constructor contract).
        self._core = ReplicaCore(plan, policy, max_queue=max_queue)

    # ------------------------------------------------------------------

    def run(self, trace: Sequence[Request], slo_factor: float = 10.0,
            recorder=None) -> ServeReport:
        """Simulate the whole trace and build the report.

        ``recorder`` (a :class:`repro.trace.TraceRecorder`) optionally
        captures the run as a span timeline; ``None`` (the default)
        records nothing and adds no work.  When recording, the report's
        digest incorporates the trace digest, so a recorded run is
        verifiably the run that was analyzed.
        """
        _require_positive("slo_factor", slo_factor)
        core = ReplicaCore(self.plan, self.policy, max_queue=self.max_queue,
                           recorder=recorder)
        for req in trace:
            core.note_pending(req.tenant)
        loop = EventLoop(trace, _ARRIVAL)
        on_arrival = core.on_arrival
        on_timer = core.on_timer
        on_complete = core.on_complete

        for now, kind, payload in loop:
            if now > core.horizon:
                core.horizon = now
            if kind == _ARRIVAL:
                on_arrival(payload, now, loop)
            elif kind == _TIMER:
                on_timer(payload[1], now, loop)
            else:  # _COMPLETE
                _, ex_name, batch = payload
                on_complete(ex_name, batch, now, loop)

        core.assert_drained()
        trace_digest = None
        if recorder is not None:
            recorder.configure(
                kind="serve", policy=self.policy.describe(),
                max_size=self.policy.max_size,
                batch_timeout=getattr(self.policy, "timeout", None),
                mode=self.plan.mode, arch=self.plan.arch_name,
                completed=sum(len(v) for v in core.latencies.values()),
                rejected=sum(core.rejected.values()),
                slo_factor=slo_factor)
            trace_digest = recorder.finish().digest()
        return build_report(
            plan=self.plan,
            policy_label=self.policy.describe(),
            latencies=core.latencies,
            rejected=core.rejected,
            batch_sizes=core.batch_sizes,
            horizon=core.horizon,
            executors=core.executor_rows(),
            slo_factor=slo_factor,
            tenant_energy=core.tenant_energy,
            trace_digest=trace_digest,
        )


def simulate(plan: ServingPlan, trace: Sequence[Request],
             policy: Optional[BatchPolicy] = None,
             max_queue: Optional[int] = None,
             slo_factor: float = 10.0,
             recorder=None) -> ServeReport:
    """One-call facade: run ``trace`` through ``plan`` under ``policy``.

    ``slo_factor`` derives each tenant's latency SLO as ``factor x`` its
    isolated single-inference latency unless the spec pins an absolute
    ``slo_cycles``.  ``recorder`` optionally captures the run as a span
    timeline (see :mod:`repro.trace`).
    """
    policy = policy or TimeoutBatch(max_size=8, timeout=50_000.0)
    return ServingEngine(plan, policy, max_queue=max_queue).run(
        trace, slo_factor=slo_factor, recorder=recorder)
