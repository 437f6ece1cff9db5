"""The layers the traced run measures, and what each should move.

Every entry point is named ``<module>.<qualname>`` with the ``repro.``
prefix dropped, and reports ``.calls`` and ``.self_s``; entry points
that call other measured ones also report ``.total_s``.  Per-event
entry points are folded (one span per caller, with a call count).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

# (layer module, qualname, folded per-event entry point)
_ENTRY_POINTS: List[Tuple[str, str, bool]] = [
    ("sched.costs", "CostModel.profiles", False),
    ("sched.cg", "schedule_cg", False),
    ("sched.cg", "segment_graph", False),
    ("sched.cg", "duplicate_min_bottleneck", False),
    ("sched.cg", "duplicate_min_total", False),
    ("sched.mvm", "schedule_mvm", False),
    ("sched.vvm", "schedule_vvm", False),
    ("sched.compiler", "CIMMLC.compile", False),
    ("sched.placement", "annotate_placement", False),
    ("sim.performance", "PerformanceSimulator.run", False),
    ("sim.performance", "pipeline_multichip", False),
    ("sim.power", "PowerModel.evaluate", False),
    ("perf.incremental", "IncrementalCompiler.compile", False),
    ("explore.runner", "SweepRunner.run", False),
    ("explore.runner", "evaluate_point", False),
    ("explore.space", "SweepPoint.fingerprint", False),
    ("explore.runner", "ResultCache.put", False),
    ("explore.runner", "ResultCache.get", False),
    ("serve.workload", "make_trace", False),
    ("serve.engine", "ReplicaCore.on_arrival", True),
    ("serve.engine", "ReplicaCore.try_dispatch", True),
    ("serve.engine", "ReplicaCore.on_complete", True),
    ("serve.engine", "EventLoop.push", True),
    ("fleet.plan", "build_fleet", False),
    ("fleet.engine", "FleetEngine.run", False),
    ("fleet.router", "LeastLoaded.route", True),
    ("fleet.admission", "AdmissionControl.screen", True),
    ("fleet.autoscaler", "Autoscaler.decide", True),
    ("scale.shard", "shard", False),
    ("scale.partition", "partition_layers", False),
    ("scale.partition", "min_chips", False),
    ("trace.capture", "record_shard", False),
    ("trace.replay", "replay", False),
    ("trace.analysis", "critical_path", False),
]

#: ``(metric name, "repro.module:qualname", folded)`` for spans.instrument.
ENTRY_POINTS = [(f"{module}.{qualname}", f"repro.{module}:{qualname}", fold)
                for module, qualname, fold in _ENTRY_POINTS]

#: Entry points that call other measured entry points: they also
#: report ``.total_s`` (their own span including children).
PARENTS = (
    "sched.cg.schedule_cg",
    "sched.cg.segment_graph",
    "sched.compiler.CIMMLC.compile",
    "sim.performance.PerformanceSimulator.run",
    "perf.incremental.IncrementalCompiler.compile",
    "explore.runner.SweepRunner.run",
    "explore.runner.evaluate_point",
    "serve.engine.ReplicaCore.on_arrival",
    "serve.engine.ReplicaCore.try_dispatch",
    "serve.engine.ReplicaCore.on_complete",
    "fleet.plan.build_fleet",
    "fleet.engine.FleetEngine.run",
    "scale.shard.shard",
    "scale.partition.partition_layers",
)

#: CompileCache lookups counted at the boundary (``None`` is a miss).
COMPILE_CACHE_LOOKUPS = ("get_profiles", "get_dups", "get_useful_dups",
                         "get_segments")

#: Counters derived from the spans and the program's own stats().
COUNTERS: List[Tuple[str, str]] = [
    ("perf.compile_cache.hits", "count"),
    ("perf.compile_cache.misses", "count"),
    ("perf.compile_cache.hit_ratio", "ratio"),
    ("perf.incremental.exact_hits", "count"),
    ("perf.incremental.full_compiles", "count"),
    ("perf.incremental.delta_compiles", "count"),
    ("perf.incremental.spliced_segments", "count"),
    ("explore.result_cache.hits", "count"),
    ("explore.result_cache.misses", "count"),
    ("serve.events", "count"),
    ("fleet.ns_per_event", "ns"),
    ("bench.setup.self_s", "s"),
    ("bench.body.self_s", "s"),
    ("bench.trace_overhead_s", "s"),
]

#: Layer module -> (design metric it should move, workloads with most
#: work, workloads with little or none).  Design metric names map onto
#: the declared end-to-end metrics as in README.md.
SHOULD_MOVE: Dict[str, Tuple[str, str, str]] = {
    "sched.costs": ("compile_ms_p50", "zoo_compile", "fleet_diurnal"),
    "sched.cg": ("compile_ms_p90, points_per_s", "zoo_compile, arch_sweep",
                 "fleet_diurnal, shard_pipeline"),
    "sched.mvm": ("compile_ms_p50", "zoo_compile", "fleet_diurnal"),
    "sched.vvm": ("compile_ms_p50", "zoo_compile", "fleet_diurnal"),
    "sched.compiler": ("compile_ms_p50", "zoo_compile", "fleet_diurnal"),
    "sched.placement": ("compile_ms_p50", "zoo_compile",
                        "arch_sweep (never called)"),
    "sim.performance": ("compile_ms_p50, points_per_s",
                        "zoo_compile, arch_sweep", "fleet_diurnal"),
    "sim.power": ("compile_ms_p50, points_per_s", "zoo_compile, arch_sweep",
                  "fleet_diurnal"),
    "perf": ("points_per_s, peak_rss_mb", "arch_sweep",
             "zoo_compile (mostly misses)"),
    "explore": ("points_per_s (put), warm_points_per_s (get)", "arch_sweep",
                "all others"),
    "serve.workload": ("setup_s", "fleet_diurnal", "all others"),
    "serve.engine": ("requests_per_s", "fleet_diurnal", "all others"),
    "serve.events": ("requests_per_s", "fleet_diurnal", "all others"),
    "fleet": ("requests_per_s (build_fleet: setup_s)", "fleet_diurnal",
              "all others"),
    "scale": ("wall_s", "shard_pipeline", "all others"),
    "trace": ("wall_s", "shard_pipeline", "all others"),
    "bench": ("(remainder and tracing overhead)", "all", "-"),
}


def layer_of(metric: str) -> str:
    """The SHOULD_MOVE key a per-layer metric belongs to."""
    for key in sorted(SHOULD_MOVE, key=len, reverse=True):
        if metric == key or metric.startswith(key + "."):
            return key
    raise KeyError(metric)


def per_layer_metrics() -> List[Tuple[str, str]]:
    """Every per-layer metric as ``(name, unit)``, in a fixed order."""
    out: List[Tuple[str, str]] = []
    for name, _, _ in ENTRY_POINTS:
        out.append((f"{name}.calls", "count"))
        out.append((f"{name}.self_s", "s"))
        if name in PARENTS:
            out.append((f"{name}.total_s", "s"))
    return out + COUNTERS
