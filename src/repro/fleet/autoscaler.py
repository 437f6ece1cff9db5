"""Replica autoscaling with asymmetric response: fast up, damped down.

The autoscaler samples the fleet every ``tick_cycles`` of simulated time
and compares the mean outstanding-per-active-replica against two
thresholds:

* above ``up_threshold`` → **scale up immediately** (one replica per
  tick): under a diurnal peak or a burst, waiting costs SLO violations
  right now.  The new replica is *not free* — it pays the deployment
  cost from the power model (the full crossbar weight program:
  ``deploy_cycles`` before it can serve, ``deploy_energy`` into the
  fleet ledger) via :meth:`~repro.fleet.plan.FleetPlan.deploy_cost`.
* below ``down_threshold`` for ``hold_ticks`` *consecutive* ticks →
  scale down by one.  The hold is the hysteresis that prevents flapping:
  a single quiet tick inside a bursty stretch must not power a replica
  off only to redeploy it (and re-pay the weight program) a tick later.
  Any tick at or above the threshold — or any scale event — resets the
  hold counter.

Scale-up activates the lowest-id inactive replica; scale-down drains the
highest-id active one (it stops receiving traffic immediately and
finishes what it holds).  Together with the prefix-ordered activation
this keeps the active set a contiguous prefix — deterministic, and the
shape first-fit routing (:class:`~repro.fleet.router.PowerAware`)
expects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..errors import ScheduleError
from ..serve.workload import _require_positive

#: Autoscaler decisions (the ``action`` field of scale events).
ACTIONS = ("up", "down")


@dataclass
class Autoscaler:
    """Threshold autoscaler with scale-down hysteresis.

    ``min_replicas`` is the floor the fleet never drains below (and the
    initial active set); ``max_replicas`` caps growth (``None`` = the
    whole :class:`~repro.fleet.plan.FleetPlan`).  Thresholds are mean
    outstanding requests per active replica.
    """

    tick_cycles: float = 1_000_000.0
    min_replicas: int = 1
    max_replicas: Optional[int] = None
    up_threshold: float = 12.0
    down_threshold: float = 3.0
    hold_ticks: int = 3

    def __post_init__(self) -> None:
        """Validate thresholds, floors, and the hysteresis window.

        A NaN or infinite tick or threshold would never fire a scale
        event, so it is refused rather than run as a silently static
        fleet.
        """
        _require_positive("tick_cycles", self.tick_cycles)
        for name in ("up_threshold", "down_threshold"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ScheduleError(f"{name} must be finite, got {value}")
        if self.min_replicas < 1:
            raise ScheduleError(
                f"min_replicas must be >= 1, got {self.min_replicas}")
        if self.max_replicas is not None and \
                self.max_replicas < self.min_replicas:
            raise ScheduleError(
                f"max_replicas ({self.max_replicas}) below min_replicas "
                f"({self.min_replicas})")
        if self.down_threshold < 0 or \
                self.up_threshold <= self.down_threshold:
            raise ScheduleError(
                f"need 0 <= down_threshold < up_threshold, got "
                f"{self.down_threshold} / {self.up_threshold}")
        if self.hold_ticks < 1:
            raise ScheduleError(
                f"hold_ticks must be >= 1, got {self.hold_ticks}")
        self._low_ticks = 0

    def describe(self) -> str:
        """Human/CLI label of the scaling rule."""
        cap = self.max_replicas if self.max_replicas is not None else "fleet"
        return (f"auto[{self.min_replicas}..{cap}] "
                f"up>{self.up_threshold:g} down<{self.down_threshold:g}"
                f"x{self.hold_ticks}")

    # ------------------------------------------------------------------

    def decide(self, outstanding: int, active: int, fleet_size: int
               ) -> Optional[str]:
        """One tick: ``"up"``, ``"down"``, or ``None`` (hold).

        ``outstanding`` is the fleet-wide queued-or-in-flight count over
        ``active`` replicas (deploying replicas count as active — their
        capacity is already bought).  Scale-up is immediate; scale-down
        requires ``hold_ticks`` consecutive quiet ticks.
        """
        cap = min(fleet_size, self.max_replicas
                  if self.max_replicas is not None else fleet_size)
        per_replica = outstanding / active if active else float("inf")
        if per_replica > self.up_threshold:
            self._low_ticks = 0
            return "up" if active < cap else None
        if per_replica < self.down_threshold:
            self._low_ticks += 1
            if self._low_ticks >= self.hold_ticks and \
                    active > self.min_replicas:
                self._low_ticks = 0
                return "down"
            return None
        self._low_ticks = 0
        return None
