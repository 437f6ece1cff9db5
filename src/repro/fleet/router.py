"""Front-end request routing: which replica serves the next request.

A router is duck-typed like the serve batch policies: ``route(req, now,
cores, candidates)`` picks a replica id from ``candidates`` (the active,
non-saturated replicas that serve the request's tenant, ascending id
order — admission control filters them *before* the router runs), and
``describe()`` yields the CLI-parsable label.  All policies are
deterministic: ties break on replica id, session keys are pure functions
of the request, and no policy consumes randomness — the house invariant
(same seed ⇒ bit-identical report) extends through the front end.

* :class:`RoundRobin` — classic rotation; equalizes request *counts*,
  blind to request cost and queue depth.
* :class:`LeastLoaded` — minimum estimated backlog cycles; the
  join-shortest-queue workhorse that absorbs bursts.
* :class:`SessionAffinity` — requests hash to sessions, sessions stick
  to replicas (cache/weight residency story one level up); falls back to
  least-loaded when the preferred replica is unavailable.
* :class:`PowerAware` — first-fit packing onto the lowest-id replica
  with backlog headroom, concentrating load so the autoscaler can drain
  and power down the tail of the fleet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..errors import ScheduleError
from ..serve.engine import ReplicaCore
from ..serve.workload import Request


def _least_loaded(cores: Sequence[ReplicaCore],
                  candidates: Sequence[int]) -> int:
    """Lowest estimated backlog among ``candidates``; ties by id."""
    best = candidates[0]
    least = cores[best].backlog_cycles
    for rid in candidates:
        load = cores[rid].backlog_cycles
        if load < least or (load == least and rid < best):
            best, least = rid, load
    return best


class RoundRobin:
    """Rotate over the candidate replicas in id order."""

    def __init__(self) -> None:
        self._next = 0

    def route(self, req: Request, now: float,
              cores: Sequence[ReplicaCore],
              candidates: Sequence[int]) -> int:
        """The next replica in rotation that is currently a candidate."""
        pick = candidates[self._next % len(candidates)]
        self._next += 1
        return pick

    def describe(self) -> str:
        """CLI-parsable router label."""
        return "rr"


class LeastLoaded:
    """Route to the replica with the smallest estimated backlog."""

    def route(self, req: Request, now: float,
              cores: Sequence[ReplicaCore],
              candidates: Sequence[int]) -> int:
        """Candidate with minimum ``backlog_cycles`` (ties by id)."""
        return _least_loaded(cores, candidates)

    def describe(self) -> str:
        """CLI-parsable router label."""
        return "least-loaded"


@dataclass
class SessionAffinity:
    """Stick each session to a home replica; spill to least-loaded.

    The request's session is ``req.index % sessions`` (a deterministic
    stand-in for a user/session id the trace generators do not model);
    its home replica is the session id taken modulo the *maximum* fleet
    size, so a session's home does not move as the autoscaler resizes
    the active set — it just spills while its home is away.
    """

    sessions: int = 1024

    def __post_init__(self) -> None:
        if self.sessions < 1:
            raise ScheduleError(
                f"sessions must be >= 1, got {self.sessions}")

    def route(self, req: Request, now: float,
              cores: Sequence[ReplicaCore],
              candidates: Sequence[int]) -> int:
        """The session's home replica when available, else least-loaded."""
        home = (req.index % self.sessions) % len(cores)
        if home in candidates:
            return home
        return _least_loaded(cores, candidates)

    def describe(self) -> str:
        """CLI-parsable router label."""
        return f"affinity:{self.sessions}"


@dataclass
class PowerAware:
    """First-fit packing: fill the lowest-id replica before spilling.

    A replica is "full" once its estimated backlog exceeds
    ``headroom_cycles``; the first candidate with room wins, so load
    concentrates on the head of the fleet and the tail idles — exactly
    what the autoscaler's scale-down hysteresis needs to see to power
    replicas off.  When every candidate is full the least-loaded one
    takes the overflow.
    """

    headroom_cycles: float = 50_000.0

    def __post_init__(self) -> None:
        if self.headroom_cycles < 0:
            raise ScheduleError(
                f"headroom_cycles must be >= 0, got {self.headroom_cycles}")

    def route(self, req: Request, now: float,
              cores: Sequence[ReplicaCore],
              candidates: Sequence[int]) -> int:
        """Lowest-id candidate with headroom, else least-loaded."""
        for rid in candidates:
            if cores[rid].backlog_cycles <= self.headroom_cycles:
                return rid
        return _least_loaded(cores, candidates)

    def describe(self) -> str:
        """CLI-parsable router label."""
        return f"power:{self.headroom_cycles:g}"


#: Router registry for the CLI (name -> zero-config constructor).
ROUTERS = {
    "rr": RoundRobin,
    "least-loaded": LeastLoaded,
    "affinity": SessionAffinity,
    "power": PowerAware,
}

Router = object  # duck-typed: RoundRobin | LeastLoaded | ...


def parse_router(text: str) -> Router:
    """Parse a CLI router spec: ``rr``, ``least-loaded``,
    ``affinity[:SESSIONS]``, or ``power[:HEADROOM]``."""
    parts = text.split(":")
    try:
        if parts[0] == "rr" and len(parts) == 1:
            return RoundRobin()
        if parts[0] == "least-loaded" and len(parts) == 1:
            return LeastLoaded()
        if parts[0] == "affinity" and len(parts) <= 2:
            return SessionAffinity(int(parts[1])) if len(parts) == 2 \
                else SessionAffinity()
        if parts[0] == "power" and len(parts) <= 2:
            return PowerAware(float(parts[1])) if len(parts) == 2 \
                else PowerAware()
    except ValueError:
        pass
    raise ScheduleError(
        f"bad router {text!r}; expected rr, least-loaded, "
        f"affinity[:SESSIONS], or power[:HEADROOM]")
