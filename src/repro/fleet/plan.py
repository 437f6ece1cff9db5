"""Fleet topology: N serving replicas behind one link-priced front end.

A :class:`FleetPlan` is the static description the fleet engine
simulates: an ordered tuple of :class:`~repro.serve.partition.ServingPlan`
replicas (each a complete single-system plan — spatial, temporal, or
sharded multi-chip; homogeneous fleets repeat one plan object,
heterogeneous fleets mix them), the :class:`~repro.arch.ChipLink` pricing
the front-end↔replica hop, and the request/response payload sizes that
hop carries.

:func:`build_fleet` is the compile-side helper: it plans one system
and repeats that plan object ``replicas`` times, so an N-replica
homogeneous fleet compiles, schedules and prices each unique model
exactly once however wide it is (the cache's counters make this
assertable in tests).  Sharing is safe: plans are frozen, and the
engine builds each replica's mutable state (queues, executors) afresh.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from ..arch import ChipLink, CIMArchitecture
from ..errors import ScheduleError
from ..perf import CompileCache
from ..sched import CompilerOptions
from ..serve import ServingPlan, TenantSpec, make_plan

#: Default payload sizes for the front-end↔replica hop: a request ships
#: an input activation tensor (say a 32x32x3 image at 8 bits), a
#: response ships logits — small, so the response leg is mostly the
#: link's head latency.
REQUEST_BITS = 24_576.0
RESPONSE_BITS = 256.0


@dataclass(frozen=True)
class FleetPlan:
    """Everything the fleet engine needs: replicas, link, payloads.

    ``replicas`` is the *maximum* fleet — the autoscaler activates and
    drains a prefix-ordered subset at runtime.  Every replica must serve
    the same tenant set (capacities may differ); requests for a tenant no
    replica serves are a planning error, not a routing outcome.
    """

    replicas: Tuple[ServingPlan, ...]
    link: ChipLink = field(default_factory=ChipLink)
    request_bits: float = REQUEST_BITS
    response_bits: float = RESPONSE_BITS

    def __post_init__(self) -> None:
        """Validate replica count, payloads, and tenant-set agreement."""
        if not self.replicas:
            raise ScheduleError("a fleet needs at least one replica")
        if self.request_bits < 0 or self.response_bits < 0:
            raise ScheduleError("hop payload sizes must be >= 0")
        names = {t.spec.name for t in self.replicas[0].tenants}
        for rid, plan in enumerate(self.replicas[1:], start=1):
            if {t.spec.name for t in plan.tenants} != names:
                raise ScheduleError(
                    f"replica {rid} serves a different tenant set than "
                    f"replica 0; every replica must serve every tenant")

    @property
    def size(self) -> int:
        """Maximum replica count."""
        return len(self.replicas)

    @property
    def arch_name(self) -> str:
        """Display name: the common arch, or ``mixed`` when heterogeneous."""
        archs = {p.arch_name for p in self.replicas}
        return archs.pop() if len(archs) == 1 else "mixed"

    @property
    def tenant_names(self) -> Tuple[str, ...]:
        """Tenant names in replica-0 plan order."""
        return tuple(t.spec.name for t in self.replicas[0].tenants)

    def hop_cycles(self, inbound: bool) -> float:
        """One-way front-end↔replica hop latency (request or response)."""
        bits = self.request_bits if inbound else self.response_bits
        return self.link.transfer_cycles(bits, hops=1)

    def roundtrip_energy(self) -> float:
        """Link energy one served request pays (both directions)."""
        return self.link.roundtrip_energy(self.request_bits,
                                          self.response_bits)

    def deploy_cost(self, rid: int) -> Tuple[float, float]:
        """``(cycles, energy)`` to bring replica ``rid`` up from cold.

        Every tenant's full weight program must land before the replica
        serves.  Energy always sums across tenants; cycles sum on a
        shared (temporal) executor but run concurrently across spatial
        regions or sharded chips, so there the slowest tenant bounds the
        spin-up latency.
        """
        plan = self.replicas[rid]
        cycles = [t.service.deploy_cycles for t in plan.tenants]
        energy = sum(t.service.deploy_energy for t in plan.tenants)
        if not cycles:
            return 0.0, 0.0
        return (sum(cycles) if plan.shared_executor else max(cycles)), energy

    def with_replicas(self, n: int) -> "FleetPlan":
        """The same fleet truncated (or grown by repeating replica 0)
        to ``n`` replicas — the replica-count sweep axis."""
        if n < 1:
            raise ScheduleError(f"fleet size must be >= 1, got {n}")
        if n <= self.size:
            reps = self.replicas[:n]
        else:
            reps = self.replicas + self.replicas[:1] * (n - self.size)
        return FleetPlan(replicas=reps, link=self.link,
                         request_bits=self.request_bits,
                         response_bits=self.response_bits)


def build_fleet(arch: CIMArchitecture, specs: Sequence[TenantSpec],
                replicas: int, mode: str = "spatial",
                options: Optional[CompilerOptions] = None,
                cache: Optional[CompileCache] = None,
                link: Optional[ChipLink] = None,
                request_bits: float = REQUEST_BITS,
                response_bits: float = RESPONSE_BITS,
                **plan_kwargs) -> FleetPlan:
    """Plan a homogeneous ``replicas``-wide fleet: one plan, compiled
    through ``cache`` (supplied or created here), repeated ``replicas``
    times, so every replica is the same
    :class:`~repro.serve.partition.ServingPlan` object.
    ``plan_kwargs`` reach :func:`~repro.serve.partition.make_plan`
    (e.g. ``power_budget=``, ``chips=`` for sharded mode).
    """
    if replicas < 1:
        raise ScheduleError(f"fleet size must be >= 1, got {replicas}")
    plan = make_plan(mode, arch, specs, options,
                     cache=cache or CompileCache(), **plan_kwargs)
    return FleetPlan(replicas=(plan,) * replicas,
                     link=link if link is not None else ChipLink(),
                     request_bits=request_bits,
                     response_bits=response_bits)
