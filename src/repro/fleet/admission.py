"""Front-end admission control: reject early, reject fairly.

An overloaded fleet that queues everything converts overload into
unbounded tail latency; admission control converts it into explicit,
attributable rejections instead.  :class:`AdmissionControl` screens every
request *before* the router runs and yields one of four deterministic
outcomes (:data:`REASONS`):

* ``no_capacity`` — no active replica serves the tenant at all (e.g. the
  autoscaler has everything beyond the minimum drained and the minimum
  set is still deploying).
* ``queue`` — every capable replica already holds ``max_outstanding``
  requests (queue-depth saturation).
* ``slo`` — even the best candidate's estimated completion (backlog +
  isolated latency + both link hops) would overshoot the tenant's SLO by
  more than ``slo_budget``; admitting would burn cycles on a request
  that is already lost.
* ``fairness`` — the tenant holds more than its traffic-weighted share
  of the fleet's outstanding slots while other tenants are competing; a
  bursting tenant is clipped before it starves the rest.

Checks run in exactly that order; the first failure names the reason in
the fleet report's rejection ledger.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ScheduleError
from ..serve.engine import ReplicaCore
from ..serve.workload import Request, _require_positive

#: Rejection reasons, in check order.
REASONS = ("no_capacity", "queue", "slo", "fairness")


@dataclass
class AdmissionControl:
    """Queue-depth / SLO-budget admission with per-tenant fairness.

    ``max_outstanding`` caps requests queued-or-in-flight per replica;
    ``slo_budget`` multiplies each tenant's SLO into an admission
    deadline for the estimated completion time (``None`` disables the
    check); ``fairness`` clips any tenant exceeding its traffic-weighted
    share of the fleet-wide outstanding budget (requires
    ``max_outstanding``).
    """

    max_outstanding: Optional[int] = None
    slo_budget: Optional[float] = None
    fairness: bool = False

    def __post_init__(self) -> None:
        """Validate knob ranges and combinations."""
        if self.max_outstanding is not None and self.max_outstanding < 1:
            raise ScheduleError(
                f"max_outstanding must be >= 1, got {self.max_outstanding}")
        if self.slo_budget is not None:
            _require_positive("slo_budget", self.slo_budget)
        if self.fairness and self.max_outstanding is None:
            raise ScheduleError(
                "fairness clipping needs max_outstanding to define the "
                "fleet-wide outstanding budget")

    def describe(self) -> str:
        """Human/CLI label of the configured checks."""
        parts = []
        if self.max_outstanding is not None:
            parts.append(f"queue<={self.max_outstanding}")
        if self.slo_budget is not None:
            parts.append(f"slo<={self.slo_budget:g}x")
        if self.fairness:
            parts.append("fair")
        return "+".join(parts) if parts else "open"

    # ------------------------------------------------------------------

    def screen(self, req: Request, capable: Sequence[int],
               cores: Sequence[ReplicaCore],
               slo_cycles: Dict[str, float],
               hop_cycles: float,
               tenant_outstanding: Dict[str, int],
               tenant_share: Dict[str, float]
               ) -> Tuple[List[int], Optional[str]]:
        """Filter ``capable`` replica ids for one request.

        Returns ``(candidates, None)`` when the request may be routed
        (the router picks among ``candidates``) or ``(, reason)`` when
        it must be rejected.  ``hop_cycles`` is the round-trip link
        latency every admitted request will pay; ``tenant_outstanding``
        and ``tenant_share`` feed the fairness check.
        """
        if not capable:
            return [], "no_capacity"
        cap = self.max_outstanding
        if cap is None:
            candidates = list(capable)
        else:
            candidates = [rid for rid in capable
                          if cores[rid].outstanding < cap]
            if not candidates:
                return [], "queue"
        if self.slo_budget is not None:
            deadline = self.slo_budget * slo_cycles[req.tenant]
            candidates = [
                rid for rid in candidates
                if cores[rid].backlog_cycles + cores[rid].isolated_latency(
                    req.tenant) + hop_cycles <= deadline
            ]
            if not candidates:
                return [], "slo"
        if self.fairness:
            budget = self.max_outstanding * sum(
                1 for rid in capable) * tenant_share[req.tenant]
            if tenant_outstanding[req.tenant] + 1 > max(1.0, budget):
                return [], "fairness"
        return candidates, None
