"""Datacenter-scale serving: replicated fleets, routing, admission,
autoscaling.

The serve package answers "what does one chip (or one sharded system)
deliver under live traffic"; this package lifts that one level to the
ROADMAP's north star — *millions of users* against a **fleet** of
replicas behind a front end:

* :mod:`~repro.fleet.plan` — :class:`FleetPlan`: N replica plans (each
  an ordinary serve plan, possibly heterogeneous) plus the
  :class:`~repro.arch.ChipLink`-priced front-end hop;
  :func:`build_fleet` plans a homogeneous fleet once and repeats that
  plan object for every replica (each unique model compiles once).
* :mod:`~repro.fleet.router` — pluggable routing policies: round-robin,
  least-loaded, session-affinity, power-aware first-fit packing.
* :mod:`~repro.fleet.admission` — queue-depth / SLO-budget rejection
  with per-tenant fairness; every rejection carries a reason.
* :mod:`~repro.fleet.autoscaler` — threshold scaling with asymmetric
  response (up immediately, down with hysteresis); every spin-up pays
  the power model's full weight-program deployment cost.
* :mod:`~repro.fleet.engine` — the shared deterministic DES core
  (:class:`~repro.serve.engine.EventLoop` +
  :class:`~repro.serve.engine.ReplicaCore`) run with one core per
  replica; same seed ⇒ bit-identical :class:`FleetReport`.
* :mod:`~repro.fleet.sweep` — replica-count × router grids riding the
  :mod:`repro.explore` cache (fleet size costs no extra compiles).

Quickstart
----------
>>> from repro.arch import functional_testbed
>>> from repro.fleet import build_fleet, simulate_fleet
>>> from repro.serve import TenantSpec, make_trace
>>> specs = [TenantSpec("lenet", "lenet"), TenantSpec("mlp", "mlp")]
>>> fleet = build_fleet(functional_testbed(), specs, replicas=2)
>>> trace = make_trace("poisson", specs, rate=1e-5, num_requests=40)
>>> report = simulate_fleet(fleet, trace)
>>> report.completed == 40 and report.fleet_size == 2
True
"""

from .admission import REASONS, AdmissionControl
from .autoscaler import Autoscaler
from .engine import FleetEngine, simulate_fleet
from .plan import FleetPlan, build_fleet
from .report import FleetReport, ReplicaStats
from .router import (
    ROUTERS,
    LeastLoaded,
    PowerAware,
    RoundRobin,
    SessionAffinity,
    parse_router,
)
from .sweep import (
    FleetSweepPoint,
    build_fleet_cached,
    fleet_sweep,
    fleet_table,
)

__all__ = [
    "AdmissionControl",
    "Autoscaler",
    "FleetEngine",
    "FleetPlan",
    "FleetReport",
    "FleetSweepPoint",
    "LeastLoaded",
    "PowerAware",
    "REASONS",
    "ROUTERS",
    "ReplicaStats",
    "RoundRobin",
    "SessionAffinity",
    "build_fleet",
    "build_fleet_cached",
    "fleet_sweep",
    "fleet_table",
    "parse_router",
    "simulate_fleet",
]
