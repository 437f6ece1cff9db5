"""``repro bench``: time the hot path, reference vs. fast, prove equality.

Each benchmark runs its workload twice — once on the scalar oracle
(:func:`repro.perf.reference.installed`: reference kernels, no implicit
memoization) and once on the production kernels from *cold* in-process
caches — and then verifies that both runs produced identical result
digests.  A digest mismatch raises, so a speedup can never be reported
for a computation that changed its answer.

The emitted JSON is a list of ``{name, wall_s, points,
speedup_vs_reference}`` objects (``wall_s`` is the production wall
clock); ``benchmarks/perf/check_regression.py`` compares a fresh
``--quick`` run against ``benchmarks/perf/BASELINE_QUICK.json`` in CI.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import reference

#: Benchmark registry: name -> factory(quick) -> (workload, points).
#: Each workload() call performs one full measurement and returns a
#: JSON-able digest of everything it computed.
_BENCHES: Dict[str, Callable] = {}


def _bench(name: str):
    def register(factory):
        _BENCHES[name] = factory
        return factory
    return register


def bench_names() -> List[str]:
    """Registered benchmark names, in definition order."""
    return list(_BENCHES)


@dataclass(frozen=True)
class BenchResult:
    """One benchmark outcome (the committed-JSON schema plus context)."""

    name: str
    wall_s: float                 # production wall clock
    points: int                   # workload size (compiles / cells / ops)
    speedup_vs_reference: float   # reference wall / fast wall
    ref_wall_s: float             # kept out of the JSON schema

    def to_dict(self) -> Dict:
        """The committed schema: name, wall_s, points, speedup."""
        return {
            "name": self.name,
            "wall_s": self.wall_s,
            "points": self.points,
            "speedup_vs_reference": self.speedup_vs_reference,
        }


def clear_process_caches() -> None:
    """Reset every implicit process memo so a timed run starts cold.

    Covers the process-wide compile cache (which holds the implicit
    searches, densities and placements) and the memoized NoC cost
    aggregates; explicit caches owned by callers are untouched.
    """
    from ..arch.noc import _average_cost, hop_cost_array
    from . import cache as perf_cache

    perf_cache.PROCESS_CACHE.clear()
    _average_cost.cache_clear()
    hop_cost_array.cache_clear()


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _compile_inputs(quick: bool):
    from ..arch import isaac_baseline
    from ..models import resnet18, vit_tiny

    graph = vit_tiny() if quick else resnet18()
    return graph, isaac_baseline().with_xb_size((128, 256))


@_bench("compile")
def _bench_compile(quick: bool) -> Tuple[Callable, int]:
    """One full multi-level compile (schedule + simulate)."""
    from ..sched import CIMMLC

    graph, arch = _compile_inputs(quick)

    def workload():
        result = CIMMLC(arch).compile(graph)
        return {"total_cycles": result.report.total_cycles,
                "op_latency": result.report.op_latency,
                "peak_power": result.report.power.peak_power}

    return workload, len(graph)


@_bench("duplication")
def _bench_duplication(quick: bool) -> Tuple[Callable, int]:
    """The two CG duplication searches over the whole model.

    Repeated like the placement workload so the fast leg's ~4 ms wall
    is not dominated by a single scheduler hiccup; repeats model the
    sweep/fleet reality where the same search keys recur, so the ratio
    includes the within-workload search memo (see :func:`run_bench`).
    """
    from ..sched.cg import duplicate_min_bottleneck, duplicate_min_total
    from ..sched.costs import CostModel

    graph, arch = _compile_inputs(quick)
    profiles = list(CostModel(arch).profiles(graph).values())
    repeats = 3 if quick else 10

    def workload():
        digest = []
        for _ in range(repeats):
            digest.append(duplicate_min_bottleneck(
                profiles, arch.chip.core_number))
            digest.append(duplicate_min_total(
                profiles, arch.chip.core_number))
        return digest

    return workload, repeats * 2


@_bench("placement")
def _bench_placement(quick: bool) -> Tuple[Callable, int]:
    """Greedy NoC placement of every segment of a compiled schedule.

    The compile die with a mesh NoC: on the preset's ideal NoC the
    placer skips scoring (every core costs 0), so the row would time
    nothing.  Repeated a few times so the timed sample is large enough
    that a single scheduler hiccup on a shared CI runner cannot swing
    the measured ratio across the regression floor.
    """
    from dataclasses import replace

    from ..arch import mesh
    from ..sched import CIMMLC
    from ..sched.placement import annotate_placement

    graph, arch = _compile_inputs(quick)
    arch = replace(arch, chip=replace(arch.chip, core_noc=mesh()))
    schedule = CIMMLC(arch).schedule(graph)
    repeats = 5 if quick else 10

    def workload():
        placements = {}
        for _ in range(repeats):
            for seg in range(len(schedule.segments)):
                placements.update(annotate_placement(schedule, segment=seg))
        return {name: list(cores) for name, cores in placements.items()}

    return workload, len(schedule.segments)


@_bench("sweep_fig22")
def _bench_sweep_fig22(quick: bool) -> Tuple[Callable, int]:
    """The Fig. 22(a) sensitivity sweep (ViT-Tiny, all four series)."""
    from ..experiments.fig22 import fig22a_cores
    from ..explore import SweepRunner
    from ..models import vit_tiny

    cores = (256, 512) if quick else (256, 512, 768, 1024)
    graph = vit_tiny()

    def workload():
        result = fig22a_cores(core_numbers=cores, graph=graph,
                              runner=SweepRunner())
        return result.as_dict()

    return workload, len(cores) * 4


@_bench("serve_capacity")
def _bench_serve_capacity(quick: bool) -> Tuple[Callable, int]:
    """A 2-tenant serve capacity sweep riding the explore bridge."""
    from ..arch import get_preset
    from ..explore import SweepRunner
    from ..serve import TenantSpec, serve_sweep

    arch = get_preset("isaac-flash")
    specs = [TenantSpec("resnet18", "resnet18", 4.0),
             TenantSpec("mobilenet", "mobilenet", 1.0)]
    rates = [10e-6] if quick else [5e-6, 10e-6, 22e-6]
    requests = 100 if quick else 300

    def workload():
        points = serve_sweep(arch, specs, rates, num_requests=requests,
                             runner=SweepRunner())
        return [{"rate": p.rate, "mode": p.mode, "policy": p.policy,
                 **p.report.to_dict()} for p in points]

    return workload, len(rates) * 2


@_bench("fleet")
def _bench_fleet(quick: bool) -> Tuple[Callable, int]:
    """A replicated fleet under a diurnal+bursty trace with autoscaling.

    The digest is the full :class:`~repro.fleet.FleetReport` dict, so
    any reference/fast divergence in trace generation, routing,
    admission, or scaling fails the equality gate in
    :func:`run_bench`.
    """
    from ..arch import get_preset
    from ..fleet import (
        AdmissionControl,
        Autoscaler,
        build_fleet,
        simulate_fleet,
    )
    from ..serve import TenantSpec, make_trace

    arch = get_preset("isaac-flash")
    specs = [TenantSpec("resnet18", "resnet18", 4.0),
             TenantSpec("mobilenet", "mobilenet", 1.0)]
    replicas = 4 if quick else 8
    requests = 2_000 if quick else 20_000

    def workload():
        fleet = build_fleet(arch, specs, replicas=replicas)
        trace = make_trace("diurnal-bursty", specs, rate=120e-6,
                           num_requests=requests, seed=0)
        report = simulate_fleet(
            fleet, trace,
            admission=AdmissionControl(max_outstanding=64),
            autoscaler=Autoscaler(min_replicas=2))
        return report.to_dict()

    return workload, requests

@_bench("trace")
def _bench_trace(quick: bool) -> Tuple[Callable, int]:
    """Trace capture + critical path + a link-grid what-if replay.

    Shards a model, records the pipeline trace, extracts its critical
    path, and re-prices a link-bandwidth grid through
    :func:`repro.trace.replay` instead of re-simulating.  The digest is
    the recording's SHA-256 plus every replayed metric set, so a
    reference/fast divergence anywhere in capture or replay fails
    the equality gate; the workload additionally refuses to report if
    identity replay is not bit-identical to the recording.
    """
    from ..arch import MultiChipSystem, isaac_baseline
    from ..models import lenet, resnet18
    from ..scale import shard
    from ..trace import Mutation, critical_path, record_shard, replay

    graph = lenet() if quick else resnet18()
    arch = isaac_baseline()
    bandwidths = (64.0, 256.0) if quick else (16.0, 64.0, 256.0, 1024.0)

    def workload():
        plan = shard(graph, MultiChipSystem(arch, 3))
        trace = record_shard(plan)
        if replay(trace).trace.digest() != trace.digest():
            raise RuntimeError(
                "identity replay diverged from the recording")
        cp = critical_path(trace)
        rows = [{"digest": trace.digest(), "cp_total": cp.total,
                 "cp_by_category": cp.by_category}]
        for bw in bandwidths:
            result = replay(trace, Mutation(link_bandwidth=bw))
            rows.append({"bw": bw, **result.metrics})
        return rows

    return workload, len(bandwidths) + 1


@_bench("faults")
def _bench_faults(quick: bool) -> Tuple[Callable, int]:
    """Degraded planning plus fault-injected fleet serving.

    Builds a serving plan around a spread of dead cores, then runs a
    fleet with drift rewrites and a mid-trace chip death.  The digest
    covers the degraded serve report, the fault-injected fleet report
    (availability ledger included), and a zero-fault fleet report that
    must equal the fault-free run — so a reference/fast divergence
    in masking, re-routing, or the bit-identity gate itself fails the
    equality check in :func:`run_bench`.
    """
    from ..arch import isaac_baseline
    from ..faults import FaultModel, plan_degraded, spread_mask
    from ..fleet import build_fleet, simulate_fleet
    from ..serve import TenantSpec, make_trace, simulate

    arch = isaac_baseline()
    specs = [TenantSpec("resnet18", "resnet18", 4.0),
             TenantSpec("mobilenet", "mobilenet", 1.0)]
    requests = 600 if quick else 6_000
    kill = 32 if quick else 96

    def workload():
        mask = FaultModel(
            dead_cores=spread_mask(arch.chip.core_number, kill))
        degraded = plan_degraded(arch, specs, mask)
        trace = make_trace("poisson", specs, rate=50e-6,
                           num_requests=requests, seed=0)
        serve_report = simulate(degraded, trace)
        fleet = build_fleet(arch, specs, replicas=4)
        horizon = trace[-1].arrival
        injected = FaultModel(drift_interval=horizon / 6,
                              chip_death_time=horizon / 2,
                              chip_death_rid=1)
        faulty = simulate_fleet(fleet, trace, fault=injected)
        clean = simulate_fleet(fleet, trace)
        zero = simulate_fleet(fleet, trace, fault=FaultModel())
        if zero.digest() != clean.digest():
            raise RuntimeError(
                "zero-fault run diverged from the fault-free run")
        return [serve_report.to_dict(), faulty.to_dict(),
                clean.to_dict()]

    return workload, requests


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------


def run_bench(names: Optional[Sequence[str]] = None,
              quick: bool = False) -> List[BenchResult]:
    """Run the selected benchmarks; raise if any fast digest deviates
    from the reference oracle's.

    Both timings start from cold in-process caches
    (:func:`clear_process_caches`), so the reported speedup reflects the
    vectorized kernels plus the *within-workload* memoization — not a
    previously warmed process.
    """
    chosen = list(names) if names else bench_names()
    unknown = [n for n in chosen if n not in _BENCHES]
    if unknown:
        raise KeyError(f"unknown benchmarks {unknown}; "
                       f"choose from {bench_names()}")
    results: List[BenchResult] = []
    for name in chosen:
        workload, points = _BENCHES[name](quick)
        clear_process_caches()
        with reference.installed():
            t0 = time.perf_counter()
            ref_digest = workload()
            ref_wall = time.perf_counter() - t0
        clear_process_caches()
        t0 = time.perf_counter()
        fast_digest = workload()
        fast_wall = time.perf_counter() - t0
        if ref_digest != fast_digest:
            raise RuntimeError(
                f"benchmark {name!r}: fast path diverged from the "
                f"reference — refusing to report a speedup")
        results.append(BenchResult(
            name=name,
            wall_s=fast_wall,
            points=points,
            speedup_vs_reference=ref_wall / max(fast_wall, 1e-9),
            ref_wall_s=ref_wall,
        ))
    return results


def to_json(results: Sequence[BenchResult]) -> str:
    """The committed ``BENCH_*.json`` payload (list of schema objects)."""
    return json.dumps([r.to_dict() for r in results], indent=1)


def table(results: Sequence[BenchResult]) -> str:
    """Readable fixed-width report."""
    lines = [f"{'benchmark':<16} {'points':>6} {'reference':>11} "
             f"{'fast':>9} {'speedup':>9}"]
    for r in results:
        lines.append(
            f"{r.name:<16} {r.points:>6} {r.ref_wall_s:>10.3f}s "
            f"{r.wall_s:>8.3f}s {r.speedup_vs_reference:>8.1f}x")
    return "\n".join(lines)
