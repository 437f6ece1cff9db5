#!/usr/bin/env python
"""Nightly check: the serve and fleet engines simulate exactly as they
did on the old push-everything event loop.

Production's :class:`repro.serve.engine.EventLoop` merges the
arrival-sorted trace with a heap of in-flight events;
:class:`repro.perf.reference.PushEverythingLoop` pushes every arrival
onto one heap before the run starts.  Each case runs twice, in
production and inside :func:`repro.perf.reference.pushed_arrivals`,
and the two ``FleetReport`` / ``ServeReport`` digests must be equal.
The grid covers:

* every trace kind, plus a hand-made unsorted trace whose arrivals tie
  exactly with each other, with batch timeouts and with autoscaler
  ticks;
* the ``rr``, ``least-loaded``, ``affinity`` and ``power`` routers,
  with the autoscaler on and off;
* a fault model with drift rewrites and a mid-trace chip death, so
  flushed requests re-route through the heap;
* recorded runs, whose digests also pin the span timeline;
* the single-system serve engine, spatial and temporal, under fixed
  and timeout batching with a queue bound.

Exits non-zero naming the first mismatch.  The full grid (a CLI-default
fleet of 8 isaac-flash replicas) takes about a minute on a 2-vCPU host;
``--quick`` runs the small functional-testbed grid that tier-1 runs.

Usage: ``PYTHONPATH=src python scripts/check_event_loop_oracle.py
[--quick]``
"""

import argparse
import sys
import time
from typing import Callable, Iterator, List, Optional, Tuple

from repro.arch import functional_testbed, isaac_flash
from repro.faults import FaultModel
from repro.fleet import (AdmissionControl, Autoscaler, build_fleet,
                         parse_router, simulate_fleet)
from repro.perf import CompileCache, reference
from repro.serve import TenantSpec, make_plan, make_trace, simulate
from repro.serve.engine import parse_policy
from repro.serve.workload import TRACES, Request
from repro.trace import TraceRecorder

ROUTERS = ("rr", "least-loaded", "affinity:64", "power:20000")

#: ``(arch, tenants, replicas, requests, rate per cycle, tick cycles)``.
QUICK = (functional_testbed, (("lenet", 2.0), ("mlp", 1.0)), 3, 300,
         1e-4, 500_000.0)
FULL = (isaac_flash, (("resnet18", 4.0), ("mobilenet", 1.0)), 8, 8_000,
        200e-6, 1_000_000.0)

#: Batch timeout of every timeout-batched case; the tie trace's arrival
#: grid divides it, so flush timers fire exactly on arrival times.
TIMEOUT = 50_000.0

Case = Tuple[str, Callable[[], str]]


def tie_trace(specs, n: int, rate: float) -> List[Request]:
    """``n`` requests at about ``rate`` per cycle, in scrambled order, on
    an arrival grid that divides the batch timeout and the autoscaler
    tick: about four requests share each grid time, and tenants
    alternate."""
    names = [s.name for s in specs]
    step = TIMEOUT / max(1, round(TIMEOUT * rate / 4))
    slots = max(1, n // 4)
    while slots > 1 and slots % 7 == 0:
        slots -= 1
    return [Request(i, names[i % len(names)],
                    float((i * 7) % slots) * step)
            for i in range(n)]


def traces(specs, n: int, rate: float) -> Iterator[Tuple[str, list]]:
    """Every trace kind, then the tie trace."""
    for seed, kind in enumerate(TRACES):
        yield kind, make_trace(kind, specs, rate, n, seed=seed)
    yield "ties", tie_trace(specs, n, rate)


def cases(quick: bool) -> Iterator[Case]:
    """``(label, run)`` per case; ``run()`` returns the report digest."""
    arch_fn, tenants, replicas, n, rate, tick = QUICK if quick else FULL
    specs = [TenantSpec(m, m, weight=w) for m, w in tenants]
    arch = arch_fn()
    cache = CompileCache()
    plan = build_fleet(arch, specs, replicas=replicas, cache=cache)
    serve_plans = {mode: make_plan(mode, arch, specs, cache=cache)
                   for mode in ("spatial", "temporal")}
    timeout = parse_policy(f"timeout:8:{TIMEOUT:g}")
    admissions = [AdmissionControl(max_outstanding=16)]
    if not quick:
        admissions += [AdmissionControl(),
                       AdmissionControl(max_outstanding=16, slo_budget=2.0,
                                        fairness=True)]

    def scaler() -> Autoscaler:
        return Autoscaler(tick_cycles=tick, min_replicas=1)

    for kind, trace in traces(specs, n, rate):
        for router in ROUTERS:
            for scaled in (False, True):
                for admission in admissions:
                    label = (f"fleet {kind} {router} "
                             f"{'autoscaled' if scaled else 'static'} "
                             f"{admission.describe()}")
                    yield label, (
                        lambda trace=trace, router=router, scaled=scaled,
                        admission=admission: simulate_fleet(
                            plan, trace, policy=timeout,
                            router=parse_router(router),
                            admission=admission,
                            autoscaler=scaler() if scaled else None
                        ).digest())
        arrivals = sorted(req.arrival for req in trace)
        fault = FaultModel(drift_interval=max(arrivals[-1] / 4, 1.0),
                           chip_death_time=arrivals[len(arrivals) // 2],
                           chip_death_rid=0)
        for scaled in (False, True):
            for recorded in (False, True):
                label = (f"fleet {kind} faults "
                         f"{'autoscaled' if scaled else 'static'}"
                         f"{' recorded' if recorded else ''}")
                yield label, (
                    lambda trace=trace, scaled=scaled, recorded=recorded:
                    simulate_fleet(
                        plan, trace, policy=timeout,
                        admission=AdmissionControl(max_outstanding=16),
                        autoscaler=scaler() if scaled else None,
                        recorder=TraceRecorder() if recorded else None,
                        fault=fault).digest())
        for mode, serve_plan in serve_plans.items():
            for policy in (parse_policy("fixed:4"), timeout):
                label = f"serve {kind} {mode} {policy.describe()}"
                yield label, (
                    lambda trace=trace, serve_plan=serve_plan,
                    policy=policy: simulate(
                        serve_plan, trace, policy=policy, max_queue=64,
                        recorder=TraceRecorder()).digest())


def check(quick: bool) -> Tuple[int, Optional[str]]:
    """Run the grid: ``(cases checked, first mismatch or None)``."""
    count = 0
    for label, run in cases(quick):
        production = run()
        with reference.pushed_arrivals():
            oracle = run()
        count += 1
        if production != oracle:
            return count, (f"{label}:\n  production: {production}\n"
                           f"  oracle:     {oracle}")
    return count, None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="the small functional-testbed grid")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    count, mismatch = check(args.quick)
    if mismatch is not None:
        print(f"MISMATCH {mismatch}")
        return 1
    print(f"event loop oracle check passed: {count} cases identical "
          f"({time.perf_counter() - start:.0f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
